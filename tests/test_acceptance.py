"""End-to-end acceptance suite.

Each test prints a single PASS line so the full gate can be read off a
plain ``pytest -s`` run.  Every expected value is frozen from an
independent computation (exhaustive scans and hand arithmetic on small
rings); nothing here is derived from the code under test.
"""

from __future__ import annotations

import time

from ringinv import (
    Z,
    char_poly,
    classify,
    cline,
    drazin_finite,
    has_hirano,
    has_strongly_drazin,
    hirano,
    is_nilpotent,
    is_tripotent,
    matrix,
    modular,
    run_census,
    square_zero_sum,
    strongly_drazin,
    tripotent_decomposition,
)

from oracles import brute_force_hirano


def _passed(label: str) -> None:
    print(f"PASS: {label}")


def test_01_drazin_only_matrix_over_mod2() -> None:
    m2 = matrix(modular(2), 2)
    a = m2.element([[0, 1], [1, 1]])
    report = classify(a)
    assert report.has_hirano is False
    assert report.hirano is None
    assert report.drazin is not None
    assert report.drazin.b == m2.element([[1, 1], [1, 0]])
    assert brute_force_hirano(a) == []
    _passed("criterion 1: [[0,1],[1,1]] over M2(Z/2) is Drazin-only with inverse [[1,1],[1,0]]")


def test_02_mod3_census_and_the_element_two() -> None:
    z3 = modular(3)
    report = run_census(z3)
    assert report.counts["hirano"] == 3
    assert not has_strongly_drazin(z3.element(2))
    _passed("criterion 2: census of Z/3 counts 3 Hirano elements and 2 lacks a strongly Drazin inverse")


def test_03_integer_matrix_with_cube_identity() -> None:
    m3 = matrix(Z, 3)
    a = m3.element([[-2, 3, 2], [-2, 3, 2], [1, -1, -1]])
    assert a == a**3
    assert has_hirano(a)
    assert hirano(a).b == a
    assert not has_strongly_drazin(a)
    assert char_poly(a - a * a) == (0, 0, 2, 1)
    _passed("criterion 3: the a = a^3 integer matrix is its own Hirano inverse, is not strongly Drazin, and a - a^2 has characteristic polynomial t^2(t+2)")


def test_04_mod5_square_gains_invertibility() -> None:
    z5 = modular(5)
    assert not has_hirano(z5.element(3))
    assert has_hirano(z5.element(4))
    _passed("criterion 4: in Z/5, 3 has no Hirano inverse while 3^2 = 4 does")


def test_05_square_zero_sums() -> None:
    m2z = matrix(Z, 2)
    a = m2z.element([[0, 1], [0, 0]])
    b = m2z.element([[0, 0], [1, 0]])
    result = square_zero_sum(a, b, hirano(a * b), hirano(b * a))
    assert result.certificate.b == m2z.element([[0, 1], [1, 0]])
    assert not has_strongly_drazin(a + b)

    m2z3 = matrix(modular(3), 2)
    a3 = m2z3.element([[0, 1], [0, 0]])
    b3 = m2z3.element([[0, 0], [2, 0]])
    zero = m2z3.element([[0, 0], [0, 0]])
    assert a3 * a3 == zero and b3 * b3 == zero
    assert not has_strongly_drazin(a3 * b3)
    assert not has_hirano(a3 + b3)
    _passed("criterion 5: the square-zero shift pair sums to Hirano inverse [[0,1],[1,0]] over the integers, and the Z/3 variant has no Hirano inverse")


def _uniqueness_rings():
    for n in range(2, 65):
        yield modular(n)
    yield matrix(modular(2), 2)
    yield matrix(modular(3), 2)


def test_06_uniqueness_of_the_inverse() -> None:
    checked = 0
    for ring in _uniqueness_rings():
        for a in ring.elements():
            found = brute_force_hirano(a)
            assert len(found) <= 1, (ring, a)
            if found:
                assert hirano(a).b == found[0], (ring, a)
                assert drazin_finite(a).b == found[0], (ring, a)
            checked += 1
    _passed(f"criterion 6: the Hirano inverse is unique and matches both constructions across {checked} elements")


def test_07_existence_criterion_matches_search() -> None:
    checked = 0
    for ring in _uniqueness_rings():
        for a in ring.elements():
            assert has_hirano(a) == bool(brute_force_hirano(a)), (ring, a)
            checked += 1
    _passed(f"criterion 7: the a - a^3 nilpotency criterion matches the definitional search across {checked} elements")


def test_08_square_route_identities() -> None:
    m2 = matrix(modular(3), 2)
    checked = 0
    for a in m2.elements():
        if not has_hirano(a):
            continue
        b = hirano(a).b
        sd = strongly_drazin(a * a).b
        assert sd == b * b, a
        assert b == a * sd, a
        checked += 1
    _passed(f"criterion 8: (a^2)^sD = (a^H)^2 and a^H = a(a^2)^sD for all {checked} Hirano elements of M2(Z/3)")


def test_09_cline_and_jacobson_exhaustive() -> None:
    started = time.monotonic()
    m2 = matrix(modular(2), 2)
    elements = list(m2.elements())
    one = m2.element([[1, 0], [0, 1]])
    balanced = 0
    constructed = 0
    for a in elements:
        for b in elements:
            for c in elements:
                if a * b * a != a * c * a:
                    continue
                balanced += 1
                ac, ba = a * c, b * a
                assert has_hirano(ac) == has_hirano(ba), (a, b, c)
                assert has_hirano(one + a * c) == has_hirano(one + b * a), (a, b, c)
                if has_hirano(ac):
                    cert = cline(a, b, c, hirano(ac))
                    assert cert.b in brute_force_hirano(ba), (a, b, c)
                    constructed += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(
        "criterion 9: Cline and Jacobson biconditionals hold on all 4096 triples of M2(Z/2) "
        f"({balanced} balanced, {constructed} inverses constructed, {elapsed:.1f}s)"
    )


def test_10_tripotent_decomposition_suite() -> None:
    rings = [modular(n) for n in range(3, 82, 2)] + [matrix(modular(3), 2)]
    checked = 0
    for ring in rings:
        tripotents = None
        if ring.size() <= 100:
            tripotents = [t for t in ring.elements() if is_tripotent(t)]
        for a in ring.elements():
            if not has_hirano(a):
                continue
            dec = tripotent_decomposition(a)
            p, w = dec.tripotent, dec.nilpotent_part
            assert p**3 == p, (ring, a)
            assert a == p + w and is_nilpotent(w) is not None, (ring, a)
            assert dec.tripotent_certificate.subject == a
            assert dec.tripotent_certificate.evaluate() == p, (ring, a)
            if tripotents is not None:
                assert any(
                    p == t and is_nilpotent(a - t) is not None for t in tripotents
                ), (ring, a)
            checked += 1

    # The plus-part really must be built from (a^2 + a)/2: the cubic variant
    # (a^3 + a)/2 fails already at a = 2 in Z/9, where it evaluates to 5 and
    # its idempotency defect 5 - 25 = 7 (mod 9) is not nilpotent.
    z9 = modular(9)
    a = z9.element(2)
    inv2 = z9.element(5)  # 2 * 5 = 10 = 1 (mod 9)
    cubic_half = (a**3 + a) * inv2
    assert cubic_half == z9.element(5)
    assert is_nilpotent(cubic_half - cubic_half * cubic_half) is None
    quadratic_half = (a**2 + a) * inv2
    assert is_nilpotent(quadratic_half - quadratic_half * quadratic_half) is not None
    _passed(
        f"criterion 10: tripotent decompositions verified for {checked} elements, "
        "and the quadratic half-construction is confirmed against the failing cubic variant"
    )
