from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringinv import (
    PolynomialCertificate,
    PreconditionError,
    Z,
    format_polynomial,
    is_nilpotent,
    lift_idempotent,
    matrix,
    modular,
)
from ringinv.lifting import poly_add, poly_compose, poly_mul, poly_scale, poly_sub

from conftest import all_elements, counting_products, ring_elements

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(tuple)


class TestPolynomialHelpers:
    @given(small_polys, small_polys)
    def test_mul_commutes(self, p, q):
        assert poly_mul(p, q) == poly_mul(q, p)

    @given(small_polys, small_polys)
    def test_add_sub_cancel(self, p, q):
        assert poly_sub(poly_add(p, q), q) == poly_sub(p, ())

    @given(small_polys)
    def test_scale(self, p):
        assert poly_scale(p, 2) == poly_add(p, p)

    @given(small_polys, small_polys, st.integers(-5, 5))
    def test_compose_evaluates(self, p, q, x):
        def ev(poly, v):
            acc = 0
            for c in reversed(poly):
                acc = acc * v + c
            return acc

        assert ev(poly_compose(p, q), x) == ev(p, ev(q, x))

    def test_format(self):
        assert format_polynomial((0, 3, 0, -2)) == "3*a - 2*a^3"
        assert format_polynomial((1,)) == "1"
        assert format_polynomial(()) == "0"
        assert format_polynomial((0, 1)) == "a"
        assert format_polynomial((-1, -1)) == "-1 - a"


class TestCertificate:
    def test_evaluates_with_horner(self):
        z9 = modular(9)
        cert = PolynomialCertificate((2, 0, 1), z9.element(4))
        assert cert.evaluate() == z9.element(0)

    def test_constant_polynomial_scales_identity(self):
        m = matrix(modular(5), 2)
        cert = PolynomialCertificate((3,), m.element([[1, 2], [3, 4]]))
        assert cert.evaluate() == m.element([[3, 0], [0, 3]])


class TestLiftIdempotent:
    def test_z9_fixtures(self):
        z9 = modular(9)
        assert lift_idempotent(z9.element(4)).element == z9.element(1)
        assert lift_idempotent(z9.element(3)).element == z9.element(0)

    def test_idempotent_is_fixed(self):
        z9 = modular(9)
        lifted = lift_idempotent(z9.element(1))
        assert lifted.element == z9.element(1)

    def test_each_step_squares_once(self, monkeypatch):
        """3 in Z/256 lifts in three Newton steps (certificate degree 27);
        the square the loop tests is the square the step uses, so the lift
        makes one product per step fewer than squaring twice did (53), and
        the certificate check's Horner evaluation starts from the leading
        coefficient, not from zero times x, so it makes one fewer again."""
        x = modular(256).element(3)
        calls = counting_products(monkeypatch)
        lifted = lift_idempotent(x)
        monkeypatch.undo()
        assert len(lifted.certificate.coefficients) - 1 == 3 ** 3
        assert calls[0] == 53 - 3 - 1

    def test_rejects_non_liftable(self):
        z9 = modular(9)
        with pytest.raises(PreconditionError):
            lift_idempotent(z9.element(2))

    def test_integer_matrix(self):
        m = matrix(Z, 2)
        x = m.element([[1, 3], [0, 0]])
        lifted = lift_idempotent(x)
        e = lifted.element
        assert e * e == e
        assert is_nilpotent(x - e) is not None
        assert lifted.certificate.evaluate() == e

    @given(ring_elements())
    def test_lift_properties(self, x):
        if is_nilpotent(x - x * x) is None:
            with pytest.raises(PreconditionError):
                lift_idempotent(x)
            return
        lifted = lift_idempotent(x)
        e = lifted.element
        assert e * e == e
        assert is_nilpotent(x - e) is not None
        assert lifted.certificate.evaluate() == e
        assert lifted.certificate.subject == x

    @pytest.mark.parametrize("ring", [matrix(modular(2), 2), matrix(modular(3), 2)])
    def test_lift_commutes_with_commutant(self, ring):
        for x in all_elements(ring):
            if is_nilpotent(x - x * x) is None:
                continue
            e = lift_idempotent(x).element
            for y in all_elements(ring):
                if x * y == y * x:
                    assert e * y == y * e
