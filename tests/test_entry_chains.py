"""The chains of products that run on entry tuples against the Element-level
chains they replaced (tests/oracles.py): powers, nilpotency tests, the
unipotent series, certificate evaluation and the Newton lift give the same
elements, witnesses, certificates and raised errors, over Z, Z/n, Mk(Z/n)
and Mk(Z), with k = 9 above the compiled kernels' cap."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringinv import (
    PolynomialCertificate,
    RingError,
    Z,
    inverse_of_unipotent,
    is_nilpotent,
    lift_idempotent,
    matrix,
    modular,
    rings,
)
from ringinv.lifting import poly_add, poly_mul

from oracles import (
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


@st.composite
def chain_elements(draw, rings=chain_rings):
    """An element drawn as any matrix, a strictly upper triangular one
    (nilpotent) or an upper triangular one with a 0/1 diagonal (x - x^2 is
    nilpotent), conjugated by an elementary matrix."""
    ring = draw(rings)
    k = max(1, ring.dim)
    entry = st.integers(0, ring.modulus - 1) if ring.is_finite else st.integers(-3, 3)
    shape = draw(st.sampled_from(["any", "nilpotent", "liftable"]))
    rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
    if shape != "any":
        for i in range(k):
            rows[i][:i] = [0] * i
            rows[i][i] = 0 if shape == "nilpotent" else draw(st.integers(0, 1))
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
