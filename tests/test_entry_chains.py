"""The chains of products that run on entry tuples against the Element-level
chains they replaced (tests/oracles.py): powers, nilpotency tests, the
unipotent series, certificate evaluation and the Newton lift give the same
elements, witnesses, certificates and raised errors, over Z, Z/n, Mk(Z/n)
and Mk(Z), with k = 9 above the compiled kernels' cap.  So do the Hirano
construction, the equation checks and the two existence criteria.  The
memoised Newton certificate matches the one built step by step, and lifts
and decompositions read the same from a cold memo and a warm one."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringinv import (
    PolynomialCertificate,
    RingError,
    Z,
    inverse_of_unipotent,
    check_hirano,
    check_strongly_drazin,
    has_hirano,
    has_strongly_drazin,
    is_nilpotent,
    lift_idempotent,
    matrix,
    modular,
    rings,
    tripotent_decomposition,
)
from ringinv.gen_inverse import _drazin_axioms, _hirano_and_strongly_drazin, _split_certificates
from ringinv.lifting import _newton_certificate, poly_add, poly_mul, poly_scale
from ringinv.rings import factorize

from conftest import SMALL_RINGS, counting_products
from oracles import (
    element_check_hirano,
    element_check_strongly_drazin,
    element_drazin_axioms,
    element_has_hirano,
    element_has_strongly_drazin,
    element_hirano_and_strongly_drazin,
    element_inverse_of_unipotent,
    element_is_nilpotent,
    element_power,
    horner_evaluate,
    naive_poly_add,
    naive_poly_mul,
    newton_lift,
)

# 1, 2 and 3 take compiled kernels, 9 the generic loops above the cap
DIMS = (1, 2, 3, rings._UNROLL_MAX_DIM + 1)

chain_rings = st.one_of(
    st.just(Z),
    st.integers(2, 300).map(modular),
    # prime powers, where many elements are nilpotent or lift; every element
    # of Z/2^15 lifts, in up to 4 Newton steps
    st.sampled_from([4, 8, 9, 27, 125, 256, 32768]).map(modular),
    st.builds(lambda n, k: matrix(modular(n), k), st.integers(2, 30), st.sampled_from(DIMS)),
    st.sampled_from(DIMS).map(lambda k: matrix(Z, k)),
)


# the diagonal entries of each triangular shape of chain_elements
DIAGONALS = {"nilpotent": [0], "liftable": [0, 1], "hirano": [-1, 0, 1]}


@st.composite
def chain_elements(draw, rings=chain_rings, shapes=("any", "nilpotent", "liftable")):
    """An element drawn as any matrix, a strictly upper triangular one
    (nilpotent), an upper triangular one with a 0/1 diagonal (x - x^2 is
    nilpotent) or one with a -1/0/1 diagonal (x - x^3 is nilpotent, so it
    is Hirano invertible), conjugated by an elementary matrix.  A
    triangular scalar of Z/n is its diagonal entry plus a multiple of the
    radical of n, which is nilpotent."""
    ring = draw(rings)
    k = max(1, ring.dim)
    entry = st.integers(0, ring.modulus - 1) if ring.is_finite else st.integers(-3, 3)
    shape = draw(st.sampled_from(shapes))
    rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if shape != "any":
        for i in range(k):
            rows[i][:i] = [0] * i
            rows[i][i] = draw(st.sampled_from(DIAGONALS[shape]))
        if ring.is_finite and not ring.is_matrix:
            radical = math.prod(p for p, _ in factorize(ring.modulus).pairs)
            rows[0][0] += radical * draw(entry)
    if not ring.is_matrix:
        return ring.element(rows[0][0])
    x = ring.element(rows)
    if k > 1:
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(entry)
        one = [[int(r == s) for s in range(k)] for r in range(k)]
        e, e_inverse = [row[:] for row in one], [row[:] for row in one]
        e[i][j], e_inverse[i][j] = c, -c
        x = ring.element(e) * x * ring.element(e_inverse)
    return x


def outcome(function, *args):
    """The function's value, or the type and message of the error it raised."""
    try:
        return function(*args)
    except (RingError, ValueError) as err:
        return type(err), str(err)


coefficients = st.lists(st.integers(-50, 50) | st.integers(-(10**40), 10**40), max_size=12)


class TestHornerAboveTheCap:
    """The generic Horner step, which M9(Z/4) and M10(Z) take in place of a
    compiled kernel, against the Element chains."""

    RINGS = [matrix(modular(4), rings._UNROLL_MAX_DIM + 1), matrix(Z, rings._UNROLL_MAX_DIM + 2)]

    def test_rings_take_the_generic_step(self):
        assert all(ring._horner is rings._generic_horner for ring in self.RINGS)

    @settings(max_examples=40, deadline=None)
    @given(chain_elements(st.sampled_from(RINGS)), coefficients)
    def test_certificate_evaluation(self, x, coeffs):
        cert = PolynomialCertificate(tuple(coeffs), x)
        assert cert.evaluate() == horner_evaluate(cert)

    @settings(max_examples=40, deadline=None)
    @given(chain_elements(st.sampled_from(RINGS)))
    def test_unipotent_inverse(self, w):
        u = w + w.ring.one()
        assert outcome(inverse_of_unipotent, u) == outcome(element_inverse_of_unipotent, u)


class TestAgainstElementChains:
    @settings(max_examples=150, deadline=None)
    @given(chain_elements(), st.integers(0, 70))
    def test_power(self, x, exponent):
        power = x ** exponent
        assert power == element_power(x, exponent)
        assert power.ring is x.ring and type(power.entries) is tuple

    @pytest.mark.parametrize("exponent", [-1, True, 2.0])
    def test_power_refuses_what_the_oracle_refuses(self, exponent):
        x = modular(9).element(3)
        assert outcome(pow, x, exponent) == outcome(element_power, x, exponent)
        assert outcome(pow, x, exponent)[0] is ValueError

    @settings(max_examples=150, deadline=None)
    @given(chain_elements())
    def test_nilpotency_witness(self, x):
        assert is_nilpotent(x) == element_is_nilpotent(x)

    @settings(max_examples=150, deadline=None)
    @given(chain_elements())
    def test_unipotent_inverse(self, w):
        u = w + w.ring.one()
        assert outcome(inverse_of_unipotent, u) == outcome(element_inverse_of_unipotent, u)

    @settings(max_examples=150, deadline=None)
    @given(chain_elements(), coefficients)
    def test_certificate_evaluation(self, x, coeffs):
        # negative coefficients and ones far above n reduce to the same residue
        cert = PolynomialCertificate(tuple(coeffs), x)
        assert cert.evaluate() == horner_evaluate(cert)

    @pytest.mark.parametrize(
        "coeffs", [(), (4,), (4, -1, 0, 7)], ids=["empty", "constant", "cubic"]
    )
    @pytest.mark.parametrize("ring", [Z, modular(9), matrix(modular(9), 2), matrix(Z, 3)], ids=str)
    def test_degree_d_costs_d_products(self, ring, coeffs, monkeypatch):
        """Horner's rule starts from the leading coefficient, so it never
        multiplies zero by x; the empty polynomial is zero, at no product."""
        cert = PolynomialCertificate(coeffs, ring.one() + ring.one())
        calls = counting_products(monkeypatch)
        value = cert.evaluate()
        monkeypatch.undo()
        assert calls[0] == max(0, len(coeffs) - 1)
        assert value == horner_evaluate(cert)
        assert coeffs or value == ring.zero()

    @settings(max_examples=150, deadline=None)
    @given(chain_elements())
    def test_newton_lift(self, x):
        assert outcome(lift_idempotent, x) == outcome(newton_lift, x)

    def test_lift_of_a_unit_of_z_mod_2_to_the_15(self):
        # 4 Newton steps and a certificate of degree 81
        x = modular(32768).element(3)
        lifted = lift_idempotent(x)
        assert lifted == newton_lift(x)
        assert len(lifted.certificate.coefficients) == 82

    @settings(max_examples=150, deadline=None)
    @given(coefficients, coefficients)
    def test_polynomial_arithmetic(self, p, q):
        p, q = tuple(p), tuple(q)
        assert poly_add(p, q) == naive_poly_add(p, q)
        assert poly_mul(p, q) == naive_poly_mul(p, q)


class TestNewtonMemo:
    """_newton_certificate(s) is t <- 3t^2 - 2t^3 applied s times to t,
    memoised; the decomposition's compositions are memoised beside it."""

    def test_memo_matches_the_stepwise_oracle(self):
        _newton_certificate.cache_clear()
        stepwise = [(0, 1)]
        for _ in range(6):
            poly = stepwise[-1]
            square = naive_poly_mul(poly, poly)
            cube = naive_poly_mul(square, poly)
            stepwise.append(naive_poly_add(poly_scale(square, 3), poly_scale(cube, -2)))
        # s = 6 cold fills the memo for 0..5; each is then read warm
        assert _newton_certificate(6) == stepwise[6]
        for steps, poly in enumerate(stepwise):
            assert _newton_certificate(steps) == poly
            assert len(poly) == 3 ** steps + 1
        assert _newton_certificate.cache_info().maxsize is not None

    @pytest.mark.parametrize(
        "ring", [modular(2187), matrix(modular(9), 2), modular(2**15)], ids=str
    )
    def test_cold_and_warm_memos_agree(self, ring):
        """Seeded elements and their squares lift, and the elements
        decompose, to dataclass-equal results with both memos cleared first
        and again with both warm; the lifts also match newton_lift."""
        def results(a, lift=lift_idempotent):
            return [outcome(lift, a), outcome(lift, a * a), outcome(tripotent_decomposition, a)]

        draw = random.Random(35)
        steps = set()
        for _ in range(12):
            a = ring.element_at(draw.randrange(ring.size()))
            _newton_certificate.cache_clear()
            _split_certificates.cache_clear()
            cold = results(a)
            assert cold == results(a), a
            assert cold[:2] == results(a, newton_lift)[:2], a
            steps.update(len(lifted.certificate.coefficients) for lifted in cold[:2]
                         if not isinstance(lifted, tuple))
        # the draw reaches lifts of more than one step count
        assert len(steps) > 1


# every small ring, and rings where the lift takes several Newton steps
# (Z/2^15, Z/2187, M2(Z/9)) or runs over Z
HIRANO_RINGS = SMALL_RINGS + [
    Z, matrix(Z, 2), matrix(Z, 3), modular(2**15), modular(2187), matrix(modular(9), 2)
]


@pytest.mark.parametrize("ring", HIRANO_RINGS, ids=str)
class TestHiranoAgainstElementOracle:
    """Elements drawn as any matrix or Hirano invertible by construction."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_construction_and_criteria(self, ring, data):
        a = data.draw(chain_elements(st.just(ring), shapes=("any", "hirano")))
        found = outcome(_hirano_and_strongly_drazin, a)
        assert found == outcome(element_hirano_and_strongly_drazin, a)
        hir, sd = found
        for x in (a, a * a):
            assert outcome(lift_idempotent, x) == outcome(newton_lift, x)
        assert has_hirano(a) == element_has_hirano(a) == (hir is not None)
        assert has_strongly_drazin(a) == element_has_strongly_drazin(a) == (sd is not None)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equation_checks(self, ring, data):
        """Each check on a drawn b, and on a's Hirano inverse when it has one."""
        a, b = (data.draw(chain_elements(st.just(ring), shapes=("any", "hirano"))) for _ in "ab")
        hir = _hirano_and_strongly_drazin(a)[0]
        for b in (b,) if hir is None else (b, hir.b):
            assert check_hirano(a, b) == element_check_hirano(a, b)
            assert check_strongly_drazin(a, b) == element_check_strongly_drazin(a, b)
            assert _drazin_axioms(a, b) == element_drazin_axioms(a, b)
