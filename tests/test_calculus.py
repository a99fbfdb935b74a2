from __future__ import annotations

import itertools

import pytest

from ringinv import (
    PreconditionError,
    RingMismatchError,
    VerificationError,
    Z,
    check_hirano,
    cline,
    commuting_product,
    has_hirano,
    has_strongly_drazin,
    hirano,
    matrix,
    modular,
    orthogonal_sum,
    power_formula,
    square_zero_sum,
)

from conftest import all_elements
from oracles import brute_force_hirano

M2Z = matrix(Z, 2)
SHIFT_UP = M2Z.element([[0, 1], [0, 0]])
SHIFT_DOWN = M2Z.element([[0, 0], [1, 0]])


class TestCline:
    def test_integer_shift_pair(self):
        a, b = SHIFT_UP, SHIFT_DOWN
        h = hirano(a * b)
        cert = cline(a, b, b, h)
        assert cert.a == b * a
        assert cert.b == M2Z.element([[0, 0], [0, 1]])

    def test_zero(self):
        z9 = modular(9)
        zero = z9.element(0)
        cert = cline(zero, zero, zero, hirano(zero))
        assert cert.b == zero

    def test_rejects_unbalanced_triple(self):
        m2 = matrix(modular(3), 2)
        a = m2.element([[1, 0], [0, 1]])
        b = m2.element([[0, 1], [0, 0]])
        c = m2.element([[0, 0], [0, 0]])
        assert a * b * a != a * c * a
        with pytest.raises(PreconditionError):
            cline(a, b, c, hirano(a * c))

    def test_rejects_foreign_certificate(self):
        z9 = modular(9)
        a, b = z9.element(2), z9.element(1)
        with pytest.raises(PreconditionError):
            cline(a, b, b, hirano(z9.element(1)))

    def test_rejects_mixed_rings(self):
        z9 = modular(9)
        with pytest.raises(RingMismatchError):
            cline(z9.element(1), modular(3).element(1), z9.element(1), hirano(z9.element(1)))

    def test_exhaustive_pairs_mod2(self):
        m2 = matrix(modular(2), 2)
        elements = all_elements(m2)
        for a, b in itertools.product(elements, repeat=2):
            if not has_hirano(a * b):
                continue
            cert = cline(a, b, b, hirano(a * b))
            assert cert.b in brute_force_hirano(b * a)


class TestCommutingProduct:
    def test_z9_square(self):
        z9 = modular(9)
        ha = hirano(z9.element(2))
        cert = commuting_product(ha, ha)
        assert cert.a == z9.element(4)
        assert cert.b == z9.element(7)
        assert brute_force_hirano(z9.element(4)) == [z9.element(7)]

    def test_identity(self):
        z9 = modular(9)
        one = hirano(z9.element(1))
        assert commuting_product(one, one).b == z9.element(1)

    def test_rejects_noncommuting(self):
        m2 = matrix(modular(3), 2)
        ha = hirano(m2.element([[1, 1], [0, 1]]))
        hb = hirano(m2.element([[1, 0], [1, 1]]))
        with pytest.raises(PreconditionError):
            commuting_product(ha, hb)

    def test_exhaustive_commuting_pairs_mod2(self):
        m2 = matrix(modular(2), 2)
        elements = all_elements(m2)
        for a, b in itertools.product(elements, repeat=2):
            if a * b != b * a or not (has_hirano(a) and has_hirano(b)):
                continue
            ha, hb = hirano(a), hirano(b)
            cert = commuting_product(ha, hb)
            assert cert.b in brute_force_hirano(a * b)
            assert ha.b * hb.b == hb.b * ha.b


class TestPowerFormula:
    def test_mod5(self):
        z5 = modular(5)
        cert = power_formula(hirano(z5.element(4)), 2)
        assert cert.a == z5.element(1)
        assert cert.b == z5.element(1)

    def test_first_power_is_same_inverse(self):
        z9 = modular(9)
        ha = hirano(z9.element(2))
        assert power_formula(ha, 1).b == ha.b

    def test_z9_square_matches_product(self):
        z9 = modular(9)
        ha = hirano(z9.element(2))
        assert power_formula(ha, 2).b == z9.element(7)

    def test_rejects_nonpositive_power(self):
        z9 = modular(9)
        with pytest.raises(PreconditionError):
            power_formula(hirano(z9.element(2)), 0)

    def test_converse_fails_witness(self):
        z5 = modular(5)
        a = z5.element(3)
        assert has_hirano(a * a)
        assert not has_hirano(a)


class TestOrthogonalSum:
    def test_integer_diagonal(self):
        a = M2Z.element([[1, 0], [0, 0]])
        b = M2Z.element([[0, 0], [0, -1]])
        cert = orthogonal_sum(hirano(a), hirano(b))
        assert cert.a == a + b
        assert cert.b == M2Z.element([[1, 0], [0, -1]])

    def test_zero_summand(self):
        z9 = modular(9)
        ha = hirano(z9.element(2))
        hz = hirano(z9.element(0))
        assert orthogonal_sum(ha, hz).b == ha.b

    def test_rejects_nonorthogonal(self):
        z9 = modular(9)
        ha = hirano(z9.element(1))
        with pytest.raises(PreconditionError):
            orthogonal_sum(ha, ha)

    def test_exhaustive_orthogonal_pairs_mod3(self):
        z3 = modular(3)
        m2 = matrix(z3, 2)
        zero = m2.element([[0, 0], [0, 0]])
        elements = all_elements(m2)
        pairs = 0
        for a, b in itertools.product(elements, repeat=2):
            if a * b != zero or b * a != zero:
                continue
            if not (has_hirano(a) and has_hirano(b)):
                continue
            cert = orthogonal_sum(hirano(a), hirano(b))
            assert cert.b in brute_force_hirano(a + b)
            pairs += 1
        assert pairs > 0


class TestSquareZeroSum:
    def test_integer_shift_pair(self):
        a, b = SHIFT_UP, SHIFT_DOWN
        result = square_zero_sum(a, b, hirano(a * b), hirano(b * a))
        flip = M2Z.element([[0, 1], [1, 0]])
        assert result.certificate.a == a + b
        assert result.certificate.b == flip
        assert result.statement_inverse == flip
        assert result.proof_inverse == flip
        assert result.statement_valid and result.proof_valid
        assert result.forms_agree

    def test_zero_pair(self):
        z9 = modular(9)
        zero = z9.element(0)
        result = square_zero_sum(zero, zero, hirano(zero), hirano(zero))
        assert result.certificate.b == zero

    def test_mod3_obstruction(self):
        m2 = matrix(modular(3), 2)
        a = m2.element([[0, 1], [0, 0]])
        b = m2.element([[0, 0], [2, 0]])
        zero = m2.element([[0, 0], [0, 0]])
        assert a * a == zero and b * b == zero
        product = a * b
        assert product == m2.element([[2, 0], [0, 0]])
        assert not has_strongly_drazin(product)
        assert not has_hirano(a + b)
        # ab and ba are Hirano invertible, so both candidates are formed;
        # without ab strongly Drazin neither inverts a + b
        hab, hba = hirano(product), hirano(b * a)
        with pytest.raises(VerificationError, match="neither candidate inverted"):
            square_zero_sum(a, b, hab, hba)
        with pytest.raises(PreconditionError):
            square_zero_sum(a, b, hirano(m2.element([[1, 0], [0, 0]])), hba)
        with pytest.raises(PreconditionError):
            square_zero_sum(a, b, hab, hab)

    def test_rejects_nonzero_squares(self):
        z9 = modular(9)
        one = z9.element(1)
        with pytest.raises(PreconditionError):
            square_zero_sum(one, one, hirano(one), hirano(one))

    def test_exhaustive_square_zero_pairs_mod2(self):
        m2 = matrix(modular(2), 2)
        zero = m2.element([[0, 0], [0, 0]])
        elements = all_elements(m2)
        for a, b in itertools.product(elements, repeat=2):
            if a * a != zero or b * b != zero:
                continue
            if not has_strongly_drazin(a * b):
                continue
            result = square_zero_sum(a, b, hirano(a * b), hirano(b * a))
            assert result.statement_valid
            assert result.certificate.b in brute_force_hirano(a + b)


class TestOneMinus:
    def test_shipped_witness(self):
        # in Z/5, 4 - 4^3 = -60 is 0 while 1 - 4 = 2 gives 2 - 8 = -6, a unit
        ring = modular(5)
        a = ring.element(4)
        assert has_hirano(a)
        assert not has_hirano(ring.element(1) - a)
        assert brute_force_hirano(ring.element(1) - a) == []

    @pytest.mark.parametrize("n", range(2, 17))
    def test_strongly_drazin_symmetry(self, n):
        ring = modular(n)
        one = ring.element(1)
        for a in all_elements(ring):
            assert has_strongly_drazin(a) == has_strongly_drazin(one - a)
