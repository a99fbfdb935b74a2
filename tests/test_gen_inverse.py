from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings

from ringinv import (
    InfiniteRingError,
    PreconditionError,
    VerificationError,
    Z,
    char_poly,
    check_drazin,
    check_hirano,
    check_strongly_drazin,
    classify,
    drazin_finite,
    has_hirano,
    has_strongly_drazin,
    hirano,
    hirano_of_hirano,
    is_nilpotent,
    is_tripotent,
    is_unit,
    matrix,
    modular,
    nilpotency_bound,
    parse_element,
    parse_ring,
    sd_difference_decomposition,
    strongly_drazin,
    tripotent_decomposition,
    unit_exponent,
)
from ringinv import gen_inverse

from conftest import (
    COMPANION_M3_Z47,
    M8_Z47_ELEMENT,
    SMALL_MODULAR,
    SMALL_RINGS,
    all_elements,
    counting_calls,
    counting_nilpotency_tests,
    counting_products,
    counting_renders,
    ring_elements,
)
from oracles import (
    brute_force_drazin,
    brute_force_hirano,
    brute_force_strongly_drazin,
    semigroup_profile,
)

# A 3x3 integer matrix satisfying a == a**3 whose defect a - a**2 is not
# nilpotent: it separates the Hirano and strongly-Drazin classes over an
# infinite ring.
CUBE_FIXED = [[-2, 3, 2], [-2, 3, 2], [1, -1, -1]]

def integer_battery():
    """Z and M1(Z), M2(Z) with entries in -2..2, and M3(Z) with entries in
    -1..1: 20 318 elements, 5 206 of them Hirano invertible."""
    yield from (Z.element(v) for v in range(-2, 3))
    for dim, span in ((1, range(-2, 3)), (2, range(-2, 3)), (3, range(-1, 2))):
        ring = matrix(Z, dim)
        for entries in itertools.product(span, repeat=dim * dim):
            yield ring.element([list(entries[row * dim : (row + 1) * dim]) for row in range(dim)])


def searched_drazin_index(a, b) -> int | None:
    """The least k >= 0 with a^k = a^(k+1) b, searched up to dim + 1: how
    classify found the index over Z before it read the defect's witness."""
    for k in range(max(1, a.ring.dim) + 2):
        if a**k == a ** (k + 1) * b:
            return k
    return None


ORBIT_RINGS = SMALL_RINGS + [
    matrix(modular(6), 2),
    matrix(modular(9), 2),
    modular(360),
    modular(997),
]


def orbit_drazin(a):
    """Drazin inverse and index from the power orbit: b = a^(m-1) with m the
    first multiple of the period at least index + 1."""
    profile = semigroup_profile(a)
    i, p = profile.index, profile.period
    m = -((i + 1) // -p) * p
    return a ** (m - 1), i


def _assert_matches_orbit_walk(ring, indices):
    exponent, bound = unit_exponent(ring), nilpotency_bound(ring)
    for i in indices:
        a = ring.element_at(i)
        cert = drazin_finite(a)
        assert (cert.b, cert.index) == orbit_drazin(a), a
        assert exponent % semigroup_profile(a).period == 0, a
        assert cert.index <= max(1, bound), a


class TestHirano:
    def test_z9_two(self):
        z9 = modular(9)
        cert = hirano(z9.element(2))
        assert cert.b == z9.element(5)
        assert cert.defect == z9.element(2) - z9.element(2) ** 3
        assert cert.defect_witness.index == 2
        assert check_hirano(z9.element(2), cert.b)

    def test_integer_cube_fixed_matrix(self):
        m3 = matrix(Z, 3)
        a = m3.element(CUBE_FIXED)
        assert a == a**3
        cert = hirano(a)
        assert cert.b == a

    def test_identity(self):
        z7 = modular(7)
        cert = hirano(z7.element(1))
        assert cert.b == z7.element(1)

    def test_absent_raises(self):
        m2 = matrix(modular(2), 2)
        a = m2.element([[0, 1], [1, 1]])
        assert not has_hirano(a)
        message = f"{a!r} has no Hirano inverse: a - a^3 is not nilpotent"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            hirano(a)

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=str)
    def test_raises_exactly_where_the_criterion_fails(self, ring):
        """The lift's own test of a^2 - a^4 decides as has_hirano does."""
        for a in ring.elements():
            if has_hirano(a):
                assert hirano(a).a == a
            else:
                with pytest.raises(PreconditionError, match="has no Hirano inverse"):
                    hirano(a)

    def test_failure_renders_the_element_once(self, monkeypatch):
        """Only hirano's own message renders the element, not the lift's."""
        calls = counting_renders(monkeypatch)
        with pytest.raises(PreconditionError, match="has no Hirano inverse"):
            hirano(modular(5).element(2))
        assert calls[0] == 1

    def test_mod5_units(self):
        z5 = modular(5)
        assert not has_hirano(z5.element(3))
        assert has_hirano(z5.element(4))

    @given(ring_elements())
    @settings(max_examples=60)
    def test_certificate_axioms(self, a):
        if not has_hirano(a):
            return
        cert = hirano(a)
        b = cert.b
        assert a * b == b * a
        assert b * a * b == b
        assert is_nilpotent(a * a - a * b) is not None


class TestStronglyDrazin:
    def test_z9_three(self):
        z9 = modular(9)
        cert = strongly_drazin(z9.element(3))
        assert cert.b == z9.element(0)
        assert check_strongly_drazin(z9.element(3), cert.b)

    def test_idempotent_is_own_inverse(self):
        m2 = matrix(Z, 2)
        a = m2.element([[1, 0], [0, 0]])
        assert strongly_drazin(a).b == a

    def test_integer_cube_fixed_matrix_has_none(self):
        m3 = matrix(Z, 3)
        a = m3.element(CUBE_FIXED)
        assert not has_strongly_drazin(a)
        poly = char_poly(a - a * a)
        assert poly == (0, 0, 2, 1)
        message = f"{a!r} has no strongly Drazin inverse: a - a^2 is not nilpotent"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            strongly_drazin(a)

    @pytest.mark.parametrize("modulus", [5, 27], ids=["not Hirano", "Hirano"])
    def test_failure_renders_the_element_once(self, modulus, monkeypatch):
        """2 in Z/5 has no Hirano inverse and 2 in Z/27 one that fails the
        strongly Drazin equations: either way only strongly_drazin's own
        message renders the element."""
        a = modular(modulus).element(2)
        message = f"{a!r} has no strongly Drazin inverse: a - a^2 is not nilpotent"
        calls = counting_renders(monkeypatch)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            strongly_drazin(a)
        assert calls[0] == 1

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=str)
    def test_raises_exactly_where_the_criterion_fails(self, ring):
        for a in ring.elements():
            if has_strongly_drazin(a):
                assert strongly_drazin(a).a == a
            else:
                with pytest.raises(PreconditionError, match="has no strongly Drazin inverse"):
                    strongly_drazin(a)

    @pytest.mark.parametrize(
        "ring", SMALL_MODULAR + [matrix(modular(2), 2), matrix(modular(3), 2)], ids=str
    )
    def test_matches_brute_force(self, ring):
        """The Hirano inverse that passes the strongly Drazin equations is the
        one element the exhaustive search finds, and it is missing exactly
        where the search finds none."""
        for a in ring.elements():
            found = brute_force_strongly_drazin(a)
            if found:
                assert [strongly_drazin(a).b] == found, a
            else:
                with pytest.raises(PreconditionError, match="has no strongly Drazin inverse"):
                    strongly_drazin(a)

    def test_mod3_two_has_none(self):
        assert not has_strongly_drazin(modular(3).element(2))

    @given(ring_elements())
    @settings(max_examples=60)
    def test_certificate_axioms(self, a):
        if not has_strongly_drazin(a):
            return
        cert = strongly_drazin(a)
        b = cert.b
        assert a * b == b * a
        assert b * a * b == b
        assert is_nilpotent(a - a * b) is not None


class TestSemigroupProfile:
    def test_z9_two(self):
        profile = semigroup_profile(modular(9).element(2))
        assert (profile.index, profile.period) == (1, 6)

    def test_identity(self):
        profile = semigroup_profile(modular(7).element(1))
        assert (profile.index, profile.period) == (1, 1)

    def test_square_zero(self):
        z4 = modular(4)
        profile = semigroup_profile(z4.element(2))
        assert (profile.index, profile.period) == (2, 1)

    def test_infinite_ring_rejected(self):
        with pytest.raises(InfiniteRingError):
            semigroup_profile(Z.element(2))

    @given(ring_elements())
    @settings(max_examples=60)
    def test_profile_is_minimal(self, a):
        profile = semigroup_profile(a)
        i, p = profile.index, profile.period
        assert a ** (i + p) == a**i
        if i > 1:
            assert a ** (i - 1 + p) != a ** (i - 1)
        for q in range(1, p):
            assert a ** (i + q) != a**i


class TestDrazinFinite:
    def test_mod2_matrix(self):
        m2 = matrix(modular(2), 2)
        a = m2.element([[0, 1], [1, 1]])
        cert = drazin_finite(a)
        assert cert.b == m2.element([[1, 1], [1, 0]])
        assert cert.index == 1
        assert check_drazin(a, cert.b, cert.index)

    def test_nilpotent(self):
        z8 = modular(8)
        cert = drazin_finite(z8.element(2))
        assert cert.b == z8.element(0)
        assert cert.index == 3

    def test_z9_two(self):
        assert drazin_finite(modular(9).element(2)).b == modular(9).element(5)

    @given(ring_elements())
    @settings(max_examples=60)
    def test_unit_gets_its_inverse(self, a):
        cert = drazin_finite(a)
        b = cert.b
        assert a * b == b * a
        assert b * a * b == b
        assert a**cert.index == a ** (cert.index + 1) * b
        assert is_unit(a) == (a * b == a.ring.one())

    def test_check_drazin_rejects_wrong_index(self):
        z4 = modular(4)
        a = z4.element(2)
        assert check_drazin(a, z4.element(0), 2)
        assert not check_drazin(a, z4.element(0), 1)


class TestDrazinMatchesOrbitWalk:
    @pytest.mark.parametrize("ring", ORBIT_RINGS, ids=str)
    def test_every_element(self, ring):
        _assert_matches_orbit_walk(ring, range(ring.size()))

    def test_sampled_m4_z2(self):
        ring = matrix(modular(2), 4)
        _assert_matches_orbit_walk(ring, random.Random(0).sample(range(ring.size()), 500))

    def test_short_exponent_fails_verification(self, monkeypatch):
        ring = matrix(modular(5), 2)
        short = unit_exponent(ring) // 2
        # the ring's cached exponent, m = short * ceil((bound + 1) / short)
        m = -((nilpotency_bound(ring) + 1) // -short) * short
        monkeypatch.setitem(vars(ring), "_drazin_exponent", m)
        caught = 0
        for a in ring.elements():
            if short % semigroup_profile(a).period:
                with pytest.raises(VerificationError):
                    drazin_finite(a)
                caught += 1
            else:
                cert = drazin_finite(a)
                assert (cert.b, cert.index) == orbit_drazin(a)
        assert caught > 0


class TestDrazinCost:
    @pytest.mark.parametrize(
        "ring_text, element_text",
        [("Z/999983", "5"), ("M3(Z/47)", COMPANION_M3_Z47), ("M8(Z/47)", M8_Z47_ELEMENT)],
        ids=["Z/999983", "M3(Z/47) companion", "M8(Z/47)"],
    )
    def test_multiplications_are_bounded(self, monkeypatch, ring_text, element_text):
        ring = parse_ring(ring_text)
        a = parse_element(ring, element_text)
        calls = counting_products(monkeypatch)
        drazin_finite(a)
        monkeypatch.undo()
        assert calls[0] <= 4 * unit_exponent(ring).bit_length() + 4 * nilpotency_bound(ring) + 16


class TestBruteForce:
    def test_no_hirano_in_mod2_matrix_example(self):
        m2 = matrix(modular(2), 2)
        assert brute_force_hirano(m2.element([[0, 1], [1, 1]])) == []

    def test_unique_over_z9(self):
        z9 = modular(9)
        assert brute_force_hirano(z9.element(2)) == [z9.element(5)]
        assert brute_force_strongly_drazin(z9.element(3)) == [z9.element(0)]

    def test_drazin_scan_contains_construction(self):
        m2 = matrix(modular(2), 2)
        a = m2.element([[0, 1], [1, 1]])
        assert drazin_finite(a).b in brute_force_drazin(a)

    def test_infinite_ring_rejected(self):
        with pytest.raises(InfiniteRingError):
            brute_force_hirano(Z.element(2))

    @given(ring_elements())
    @settings(max_examples=40)
    def test_uniqueness_and_agreement(self, a):
        found = brute_force_hirano(a)
        assert len(found) <= 1
        if found:
            assert hirano(a).b == found[0]
            assert drazin_finite(a).b == found[0]
        else:
            assert not has_hirano(a)


class TestTripotentDecomposition:
    def test_z9_two(self):
        z9 = modular(9)
        dec = tripotent_decomposition(z9.element(2))
        assert dec.tripotent == z9.element(8)
        assert dec.nilpotent_part == z9.element(3)
        assert dec.plus_idempotent == z9.element(0)
        assert dec.minus_idempotent == z9.element(1)
        assert dec.tripotent_certificate.evaluate() == dec.tripotent

    def test_tripotent_fixed(self):
        z3 = modular(3)
        dec = tripotent_decomposition(z3.element(2))
        assert dec.tripotent == z3.element(2)
        assert dec.nilpotent_part == z3.element(0)

    def test_two_part_takes_the_lift_of_a(self):
        """In Z/4, 2 is nilpotent: e lifts a itself and f = 0."""
        z4 = modular(4)
        dec = tripotent_decomposition(z4.element(2))
        assert (dec.tripotent, dec.nilpotent_part) == (z4.element(0), z4.element(2))
        assert dec.nilpotent_witness.index == 2
        assert dec.plus_idempotent == dec.minus_idempotent == z4.element(0)

    def test_mixed_modulus_splits_by_crt(self):
        """Z/12 = Z/4 x Z/3: e = 9 is the 2-part's lift, f = 4 the odd part's."""
        z12 = modular(12)
        dec = tripotent_decomposition(z12.element(5))
        assert dec.tripotent == z12.element(5)
        assert dec.plus_idempotent == z12.element(9)
        assert dec.minus_idempotent == z12.element(4)
        for cert, target in (
            (dec.tripotent_certificate, dec.tripotent),
            (dec.plus_certificate, dec.plus_idempotent),
            (dec.minus_certificate, dec.minus_idempotent),
        ):
            assert cert.evaluate() == target

    def test_integer_matrix_with_integral_half(self):
        m2 = matrix(Z, 2)
        a = m2.element([[1, 0], [0, -1]])
        dec = tripotent_decomposition(a)
        assert dec.tripotent == a
        assert dec.nilpotent_part == m2.element([[0, 0], [0, 0]])
        assert dec.plus_idempotent == m2.element([[1, 0], [0, 0]])
        assert dec.minus_idempotent == m2.element([[0, 0], [0, 1]])
        assert dec.plus_certificate is None

    def test_integer_matrix_with_odd_half(self):
        m2 = matrix(Z, 2)
        a = m2.element([[0, 1], [1, 0]])
        dec = tripotent_decomposition(a)
        assert dec.tripotent == a
        assert dec.plus_idempotent is None

    def test_integer_matrix_without_cube_identity_rejected(self):
        m2 = matrix(Z, 2)
        with pytest.raises(PreconditionError):
            tripotent_decomposition(m2.element([[1, 1], [0, 1]]))

    @pytest.mark.parametrize(
        "ring, brute_force",
        [(modular(n), True) for n in (4, 8, 12, 16)]
        + [(matrix(modular(2), 2), True)]
        + [(matrix(modular(4), 2), False), (matrix(modular(2), 3), False)],
        ids=str,
    )
    def test_split_without_one_half(self, ring, brute_force):
        """The split exists exactly where brute force finds a Hirano inverse,
        and p, e and f commute with every b that commutes with a, all found
        by loops over the ring (brute force only on the smaller rings)."""
        elements = all_elements(ring)
        for a in elements:
            if brute_force and not brute_force_hirano(a):
                message = f"{a!r} does not decompose: a - a^3 is not nilpotent"
                with pytest.raises(PreconditionError, match=re.escape(message)):
                    tripotent_decomposition(a)
            elif brute_force or has_hirano(a):
                dec = tripotent_decomposition(a)
                parts = (dec.tripotent, dec.plus_idempotent, dec.minus_idempotent)
                for b in elements:
                    if a * b == b * a:
                        assert all(x * b == b * x for x in parts), (a, b)

    @given(ring_elements())
    @settings(max_examples=60)
    def test_decomposition_laws(self, a):
        if not has_hirano(a):
            return
        dec = tripotent_decomposition(a)
        p, w = dec.tripotent, dec.nilpotent_part
        assert a == p + w
        assert is_tripotent(p)
        assert p * w == w * p
        assert dec.nilpotent_witness.index >= 1
        assert dec.tripotent_certificate.evaluate() == p


class TestSdDifference:
    def test_z9_two(self):
        z9 = modular(9)
        b, c = sd_difference_decomposition(z9.element(2))
        assert (b, c) == (z9.element(0), z9.element(7))

    def test_idempotent(self):
        z9 = modular(9)
        b, c = sd_difference_decomposition(z9.element(1))
        assert (b, c) == (z9.element(1), z9.element(0))

    def test_zero(self):
        z9 = modular(9)
        assert sd_difference_decomposition(z9.element(0)) == (
            z9.element(0),
            z9.element(0),
        )

    def test_integer_matrix_with_integral_half(self):
        m2 = matrix(Z, 2)
        a = m2.element([[1, 0], [0, -1]])
        b, c = sd_difference_decomposition(a)
        assert b - c == a
        assert has_strongly_drazin(b) and has_strongly_drazin(c)

    def test_integer_matrix_with_odd_half_rejected(self):
        m2 = matrix(Z, 2)
        with pytest.raises(PreconditionError):
            sd_difference_decomposition(m2.element([[0, 1], [1, 0]]))

    @given(ring_elements())
    @settings(max_examples=60)
    def test_difference_laws(self, a):
        if not has_hirano(a):
            return
        b, c = sd_difference_decomposition(a)
        assert b - c == a
        assert b * c == c * b
        assert has_strongly_drazin(b)
        assert has_strongly_drazin(c)


class TestSquareRoute:
    """Law 2.4: the Hirano inverse of a is a times the strongly Drazin inverse of a^2."""

    def test_mod5_four(self):
        z5 = modular(5)
        a = z5.element(4)
        assert hirano(a).b == a * strongly_drazin(a * a).b == z5.element(4)

    def test_zero(self):
        z5 = modular(5)
        a = z5.element(0)
        assert hirano(a).b == a * strongly_drazin(a * a).b == z5.element(0)

    def test_agrees_with_direct_construction(self):
        z9 = modular(9)
        for k in range(9):
            a = z9.element(k)
            assert has_hirano(a) == has_strongly_drazin(a * a), a
            if not has_strongly_drazin(a * a):
                continue
            assert a * strongly_drazin(a * a).b == hirano(a).b

    def test_inverse_of_inverse(self):
        z9 = modular(9)
        a = z9.element(2)
        assert hirano_of_hirano(hirano(a)) == a * a * hirano(a).b

    def test_inverse_without_hirano_inverse_fails_verification(self):
        z5 = modular(5)
        forged = dataclasses.replace(hirano(z5.element(4)), b=z5.element(2))
        with pytest.raises(VerificationError, match="must itself be Hirano invertible"):
            hirano_of_hirano(forged)


class TestClassify:
    def test_mod2_matrix_example(self):
        m2 = matrix(modular(2), 2)
        report = classify(m2.element([[0, 1], [1, 1]]))
        assert report.has_drazin is True
        assert report.has_strongly_drazin is False
        assert report.has_hirano is False
        assert report.hirano is None
        assert report.strongly_drazin is None
        assert report.drazin.b == m2.element([[1, 1], [1, 0]])

    def test_integer_scalar_without_hirano(self):
        report = classify(Z.element(5))
        assert report.has_hirano is False
        assert report.has_drazin is False

    def test_integer_scalar_units(self):
        for value in (0, 1, -1):
            report = classify(Z.element(value))
            assert report.has_hirano is True
            assert report.has_drazin is True
            assert report.drazin.b == Z.element(value)

    def test_integer_matrix_undecided(self):
        m2 = matrix(Z, 2)
        report = classify(m2.element([[2, 0], [0, 0]]))
        assert report.has_hirano is False
        assert report.has_drazin is None
        assert report.drazin is None

    def test_integer_cube_fixed_matrix(self):
        m3 = matrix(Z, 3)
        report = classify(m3.element(CUBE_FIXED))
        assert report.has_hirano is True
        assert report.has_strongly_drazin is False
        assert report.has_drazin is True
        assert report.hirano.b == report.element
        assert report.drazin.b == report.element

    @given(ring_elements())
    @settings(max_examples=40)
    def test_finite_ring_reports(self, a):
        report = classify(a)
        assert report.has_drazin is True
        assert report.drazin is not None
        if report.has_hirano:
            assert report.hirano.b == report.drazin.b
        if report.has_strongly_drazin:
            assert report.strongly_drazin.b == report.drazin.b

    def test_decides_each_criterion_once(self, monkeypatch):
        """2 in Z/27 is Hirano invertible and not strongly Drazin invertible:
        hirano and strongly_drazin each decide their criterion themselves.
        w = a^2 - e is tested once, by the lift, whose witness the unipotent
        series reuses (6 when the series tested w again)."""
        calls = counting_nilpotency_tests(monkeypatch)
        report = classify(modular(27).element(2))
        assert report.has_hirano and not report.has_strongly_drazin
        assert calls[0] == 5

    def test_strongly_drazin_needs_no_second_lift(self, monkeypatch):
        """3 in Z/9 has both inverses: the strongly Drazin verdict is the
        check of the Hirano inverse, not a lift of a - a^2.  w = a^2 - e is
        tested once, by the lift (6 when the unipotent series tested it
        again)."""
        calls = counting_nilpotency_tests(monkeypatch)
        report = classify(modular(9).element(3))
        assert report.has_hirano and report.has_strongly_drazin
        assert report.strongly_drazin.b == report.hirano.b == report.drazin.b
        assert calls[0] == 5

    def test_integer_drazin_axioms_are_tested_once(self, monkeypatch):
        """Over Z the Drazin axioms (and their nilpotent defect) are tested
        once, and the index is read off the defect's witness."""
        a = matrix(Z, 2).element([[1, 0], [0, 0]])
        calls = counting_calls(monkeypatch, [gen_inverse], "_nilpotency")
        report = classify(a)
        assert report.drazin.b == a and report.drazin.index == 1
        # the Hirano defect, the strongly Drazin defect and the Drazin defect once
        assert calls[0] == 3

    def test_integer_drazin_index_matches_the_search(self):
        """The witness rule gives, on every Hirano element of the battery,
        the least k >= 0 with a^k = a^(k+1) b."""
        drazin_invertible = 0
        for a in integer_battery():
            report = classify(a)
            if report.drazin is None:
                continue
            drazin_invertible += 1
            assert report.drazin.index == searched_drazin_index(a, report.drazin.b), a
        assert drazin_invertible == 5206

    def test_integer_drazin_index_is_checked_once(self, monkeypatch):
        """A non-unit over Z checks only the index its defect's witness
        gives; a unit checks index 0."""
        calls = counting_calls(monkeypatch, [gen_inverse], "_drazin_with_index")
        m2 = matrix(Z, 2)
        for a, index in (
            (Z.element(0), 1),
            (Z.element(-1), 0),
            (m2.element([[1, 0], [0, 0]]), 1),
            (m2.element([[0, 1], [0, 0]]), 2),
            (m2.element([[1, 1], [0, 0]]), 1),
        ):
            calls[0] = 0
            assert classify(a).drazin.index == index, a
            assert calls[0] == 1, a

    def test_non_hirano_element_renders_nothing(self, monkeypatch):
        calls = counting_renders(monkeypatch)
        report = classify(modular(5).element(2))
        assert not report.has_hirano and report.has_drazin
        assert calls[0] == 0

    def test_hirano_disagreeing_with_drazin_fails(self, monkeypatch):
        real = gen_inverse._hirano_inverse

        def off_by_one(a):
            cert = real(a)
            return dataclasses.replace(cert, b=cert.b + a.ring.one())

        monkeypatch.setattr(gen_inverse, "_hirano_inverse", off_by_one)
        with pytest.raises(VerificationError, match="Hirano and Drazin"):
            classify(modular(9).element(1))


class TestValidators:
    def test_check_hirano_rejects_noncommuting(self):
        m2 = matrix(modular(3), 2)
        a = m2.element([[1, 1], [0, 1]])
        b = m2.element([[1, 0], [1, 1]])
        assert not check_hirano(a, b)

    def test_check_strongly_drazin_fixture(self):
        z9 = modular(9)
        assert check_strongly_drazin(z9.element(1), z9.element(1))
        assert not check_strongly_drazin(z9.element(3), z9.element(3))

    def test_exhaustive_scan_matches_validator(self):
        z9 = modular(9)
        for a in all_elements(z9):
            found = brute_force_hirano(a)
            for b in all_elements(z9):
                assert (check_hirano(a, b) is not None) == (b in found)
