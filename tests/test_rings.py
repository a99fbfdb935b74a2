from __future__ import annotations

import copy
import dataclasses
import operator
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringinv import (
    InfiniteRingError,
    PreconditionError,
    RingMismatchError,
    RingSpec,
    UnsupportedRingError,
    VerificationError,
    Z,
    char_poly,
    det,
    inverse_of_unipotent,
    is_idempotent,
    is_nilpotent,
    is_tripotent,
    is_unit,
    matrix,
    modular,
    nilpotency_bound,
    parse_ring,
    unit_exponent,
)
from ringinv import rings
from ringinv._scan import RingScan
from ringinv.lifting import PolynomialCertificate
from ringinv.rings import NilpotencyWitness, factorize

from conftest import (
    SMALL_RINGS,
    UNFACTORABLE_MODULUS,
    counting_products,
    finite_rings,
    ring_element_pairs,
    ring_elements,
)
from oracles import brute_force_units, naive_entrywise, naive_product, naive_scale


class TestRingSpec:
    def test_modular_requires_modulus_at_least_two(self):
        with pytest.raises(ValueError):
            modular(1)
        with pytest.raises(ValueError):
            modular(0)

    def test_matrix_entries_must_be_scalar(self):
        with pytest.raises(ValueError):
            matrix(matrix(Z, 2), 2)

    def test_matrix_dim_positive(self):
        with pytest.raises(ValueError):
            matrix(Z, 0)

    def test_dim_and_modulus_both_distinguish_rings(self):
        assert matrix(modular(5), 1) != modular(5)
        assert matrix(Z, 2) != matrix(modular(2), 2)
        for text, built in [
            ("Z", Z),
            ("Z/5", modular(5)),
            ("M1(Z/5)", matrix(modular(5), 1)),
            ("M1(Z)", matrix(Z, 1)),
            ("M2(Z/2)", matrix(modular(2), 2)),
        ]:
            parsed = parse_ring(text)
            assert parsed == built
            assert hash(parsed) == hash(built)

    def test_sizes(self):
        assert modular(7).size() == 7
        assert matrix(modular(3), 2).size() == 81
        assert matrix(modular(2), 3).size() == 512
        with pytest.raises(InfiniteRingError):
            Z.size()
        with pytest.raises(InfiniteRingError):
            matrix(Z, 2).size()

    def test_rendering(self):
        assert str(Z) == "Z"
        assert str(modular(9)) == "Z/9"
        assert str(matrix(modular(3), 2)) == "M2(Z/3)"
        assert str(matrix(Z, 3)) == "M3(Z)"

    @given(finite_rings, st.data())
    def test_element_at_matches_enumeration(self, ring, data):
        index = data.draw(st.integers(0, ring.size() - 1))
        listed = None
        for pos, e in enumerate(ring.elements()):
            if pos == index:
                listed = e
                break
        assert listed == ring.element_at(index)
        assert ring.index_of(listed) == index

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=str)
    def test_elements_walk_the_element_at_order(self, ring):
        assert list(ring.elements()) == [ring.element_at(i) for i in range(ring.size())]

    def test_infinite_rings_are_not_enumerated(self):
        for ring in (Z, matrix(Z, 2)):
            with pytest.raises(InfiniteRingError, match="cannot enumerate"):
                ring.elements()

    def test_element_at_bounds(self):
        with pytest.raises(IndexError):
            modular(5).element_at(5)
        with pytest.raises(IndexError):
            modular(5).element_at(-1)

    def test_index_of_rejects_foreign_and_infinite(self):
        with pytest.raises(RingMismatchError):
            modular(5).index_of(modular(7).element(3))
        with pytest.raises(InfiniteRingError):
            Z.index_of(Z.element(3))

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=str)
    def test_scan_codec_matches_element_at(self, ring):
        scan = RingScan(ring)
        assert np.array_equal(scan.codes(scan.stack), np.arange(ring.size()))
        for i in range(ring.size()):
            a = ring.element_at(i)
            rows = a.payload if ring.is_matrix else ((a.payload,),)
            assert scan.stack[i].tolist() == [list(row) for row in rows]


ARITHMETIC_RINGS = SMALL_RINGS + [Z, matrix(Z, 2), matrix(Z, 3)]


@st.composite
def built_operands(draw):
    """Two elements of one ring built by ring.element from entries in [-9, 9],
    and an exponent n <= 4."""
    ring = draw(st.sampled_from(ARITHMETIC_RINGS))
    d = max(1, ring.dim)

    def payload():
        values = draw(st.lists(st.integers(-9, 9), min_size=d * d, max_size=d * d))
        if not ring.is_matrix:
            return values[0]
        return [values[i:i + d] for i in range(0, d * d, d)]

    return ring.element(payload()), ring.element(payload()), draw(st.integers(0, 4))


class TestElement:
    def test_residues_are_normalized(self):
        z9 = modular(9)
        assert z9.element(-1) == z9.element(8)
        assert z9.element(27).payload == 0

    def test_matrix_entries_normalized(self):
        m = matrix(modular(4), 2)
        e = m.element([[-1, 4], [5, 2]])
        assert e.payload == ((3, 0), (1, 2))

    def test_bool_payload_rejected(self):
        with pytest.raises(ValueError):
            modular(5).element(True)
        with pytest.raises(ValueError):
            matrix(modular(2), 2).element([[True, 0], [0, 1]])

    def test_shape_must_match(self):
        with pytest.raises(ValueError):
            matrix(modular(3), 2).element([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            modular(3).element([[1]])

    def test_mixed_ring_arithmetic_rejected(self):
        with pytest.raises(RingMismatchError):
            modular(3).element(1) + modular(5).element(1)

    @given(ring_element_pairs())
    def test_additive_group(self, pair):
        a, b = pair
        zero = a.ring.zero()
        assert a + b == b + a
        assert a - a == zero
        assert a + (-a) == zero
        assert -(-a) == a

    @given(ring_element_pairs())
    def test_multiplication_distributes(self, pair):
        a, b = pair
        assert a * (a + b) == a * a + a * b
        assert (a + b) * b == a * b + b * b

    @given(ring_elements(), st.integers(0, 6))
    def test_power_matches_repeated_product(self, a, n):
        acc = a.ring.one()
        for _ in range(n):
            acc = acc * a
        assert a ** n == acc

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            modular(5).element(2) ** -1

    def test_integer_scaling(self):
        z7 = modular(7)
        assert 3 * z7.element(4) == z7.element(5)
        assert z7.element(4) * 3 == z7.element(5)

    def test_identity_shapes(self):
        m = matrix(Z, 2)
        assert m.one().payload == ((1, 0), (0, 1))
        assert m.zero().payload == ((0, 0), (0, 0))

    @given(built_operands())
    def test_arithmetic_results_equal_their_validated_rebuild(self, operands):
        a, b, n = operands
        ring = a.ring
        d = max(1, ring.dim)
        for x in (a + b, a - b, a * b, 3 * a, -a, a ** n):
            assert len(x.entries) == d * d
            assert all(type(v) is int for v in x.entries)
            if ring.is_finite:
                assert all(0 <= v < ring.modulus for v in x.entries)
            rebuilt = ring.element(x.payload)
            assert rebuilt == x
            assert hash(rebuilt) == hash(x)


# Z, a small and a composite modulus, and moduli past 2**64 and 10**40.
PRODUCT_MODULI = [None, 2, 12, 2**64 + 13, 10**40 + 121]


@st.composite
def product_operands(draw, dim):
    """Two elements of RingSpec(modulus, dim) from entries with up to 40 digits,
    negative ones included; ring.element reduces them for the finite rings."""
    ring = RingSpec(draw(st.sampled_from(PRODUCT_MODULI)), dim)
    d = max(1, dim)
    entries = st.integers(-(10**40), 10**40)

    def payload():
        values = draw(st.lists(entries, min_size=d * d, max_size=d * d))
        return values[0] if dim == 0 else [values[i:i + d] for i in range(0, d * d, d)]

    return ring.element(payload()), ring.element(payload())


class TestProductKernel:
    # dims 0 and 1 both take the k = 1 kernel; the last dim is above the cap
    @pytest.mark.parametrize("dim", range(rings._UNROLL_MAX_DIM + 2))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_triple_loop(self, dim, data):
        a, b = data.draw(product_operands(dim))
        assert a * b == naive_product(a, b)
        assert b * a == naive_product(b, a)

    def test_one_kernel_per_dimension_and_entry_kind(self):
        assert matrix(modular(5), 3)._product is matrix(modular(7), 3)._product
        assert modular(5)._product is matrix(modular(7), 1)._product
        assert matrix(Z, 3)._product is not matrix(modular(7), 3)._product

    def test_no_kernel_above_the_cap(self):
        ring = matrix(modular(5), rings._UNROLL_MAX_DIM + 1)
        x = ring.element([[i * j for j in range(ring.dim)] for i in range(ring.dim)])
        before = rings._product_kernel.cache_info()
        assert x * x == naive_product(x, x)
        assert rings._product_kernel.cache_info() == before
        assert ring._product is rings._generic_product

    def test_power_costs_its_squarings_and_multiplications(self, monkeypatch):
        a = matrix(modular(7), 2).element([[1, 2], [3, 4]])
        calls = counting_products(monkeypatch)
        powers = {}
        for n in range(1, 65):
            calls[0] = 0
            powers[n] = a ** n
            assert calls[0] == (n.bit_length() - 1) + (bin(n).count("1") - 1), n
        monkeypatch.undo()
        acc = a.ring.one()
        for n in range(1, 65):
            acc = acc * a
            assert powers[n] == acc

    def test_ring_constants_are_built_once(self):
        ring = matrix(modular(9), 2)
        assert ring.one() is ring.one()
        assert ring.zero() is ring.zero()
        assert RingSpec(9, 2).one() == ring.one()

    def test_rings_and_elements_pickle_after_a_product(self):
        ring = matrix(modular(9), 2)
        x = ring.element([[1, 2], [3, 4]])
        y = pickle.loads(pickle.dumps(x * x))
        assert y == x * x
        assert y * x == x * x * x



class TestEntrywiseKernels:
    # dims 0 and 1 both take the k = 1 kernels; the last dim is above the cap
    @pytest.mark.parametrize("dim", range(rings._UNROLL_MAX_DIM + 2))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_entrywise_loop(self, dim, data):
        a, b = data.draw(product_operands(dim))
        c = data.draw(st.integers(-(10**40), 10**40))
        assert a + b == naive_entrywise(operator.add, a, b)
        assert a - b == naive_entrywise(operator.sub, a, b)
        assert -a == naive_entrywise(operator.sub, a.ring.zero(), a)
        assert c * a == a * c == naive_scale(c, a)

    def test_one_kernel_per_dimension_entry_kind_and_operator(self):
        assert matrix(modular(5), 3)._add is matrix(modular(7), 3)._add
        assert modular(5)._sub is matrix(modular(7), 1)._sub
        assert matrix(Z, 3)._add is not matrix(modular(7), 3)._add
        assert modular(5)._add is not modular(5)._sub

    def test_no_kernel_above_the_cap(self):
        ring = matrix(modular(5), rings._UNROLL_MAX_DIM + 1)
        x = ring.element([[i * j for j in range(ring.dim)] for i in range(ring.dim)])
        before = rings._entrywise_kernel.cache_info()
        assert x + x == naive_entrywise(operator.add, x, x)
        assert x - x == ring.zero()
        assert rings._entrywise_kernel.cache_info() == before


class TestTrustedConstruction:
    """Elements made by arithmetic keep the contract of validated ones."""

    def results(self):
        ring = matrix(modular(9), 2)
        a, b = ring.element([[1, 2], [3, 4]]), ring.element([[5, 6], [7, 8]])
        return [a, a * b, a + b, a - b, -a, 3 * a, a ** 5, ring.element_at(17), ring.one()]

    def test_fields_are_frozen(self):
        for x in self.results():
            for name in ("ring", "entries"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(x, name, getattr(x, name))
            assert not hasattr(x, "__dict__")

    def test_pickle_and_deepcopy_round_trips(self):
        for x in self.results():
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert y == x
                assert hash(y) == hash(x)
                assert y.ring.element(y.payload) == x

    def test_equal_but_distinct_rings_mix(self):
        # parse_ring would return one memoised ring for both
        first, second = RingSpec(9, 2), RingSpec(9, 2)
        assert first is not second
        a, b = first.element([[1, 2], [3, 4]]), second.element([[5, 6], [7, 8]])
        assert a * b == first.element([[19, 22], [43, 50]])
        assert a + b == second.element([[6, 8], [10, 12]])
        assert b - a == first.element([[4, 4], [4, 4]])
        assert a == second.element([[1, 2], [3, 4]])
        assert hash(a) == hash(second.element([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("op", [operator.mul, operator.add, operator.sub], ids=str)
    @pytest.mark.parametrize(
        "left, right",
        [(modular(3), modular(5)), (modular(3), matrix(modular(3), 1)), (Z, modular(7))],
        ids=str,
    )
    def test_different_rings_raise(self, op, left, right):
        with pytest.raises(RingMismatchError):
            op(left.one(), right.one())

    def test_bools_and_int_sums_are_type_errors(self):
        a = matrix(modular(9), 2).element([[1, 2], [3, 4]])
        for bad in (lambda: a * True, lambda: True * a, lambda: a + 1, lambda: 1 - a):
            with pytest.raises(TypeError):
                bad()


class TestPredicates:
    def test_idempotent_tripotent(self):
        z9 = modular(9)
        assert is_idempotent(z9.element(1))
        assert not is_idempotent(z9.element(2))
        assert is_tripotent(z9.element(8))
        assert not is_tripotent(z9.element(2))

    @pytest.mark.usefixtures("wall_clock_limit")
    def test_factorize(self):
        f = factorize(12)
        assert f.pairs == ((2, 2), (3, 1))
        assert f.max_exponent == 2
        f = factorize(97)
        assert f.pairs == ((97, 1),)

    @pytest.mark.usefixtures("wall_clock_limit")
    def test_factorize_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0)
        moduli = list(range(2, 3000))
        moduli += [rng.randrange(2, 10**18) for _ in range(60)]
        moduli += [
            sympy.prevprime(rng.randrange(10**5, 10**9))
            * sympy.prevprime(rng.randrange(10**5, 10**9))
            for _ in range(10)
        ]
        moduli += [10**16 + 61, 2**61 - 1, 1_000_003**2, 999_983**3 * 12, 2**64, 3**40]
        # Strong pseudoprimes to the first eleven and to the first twelve prime
        # bases, with no prime factor small enough for trial division.
        moduli += [3825123056546413051, 318665857834031151167461]
        for n in moduli:
            assert dict(factorize(n).pairs) == sympy.factorint(n), n

    @pytest.mark.usefixtures("wall_clock_limit")
    def test_factorize_refuses_past_the_rho_budget(self, monkeypatch):
        with pytest.raises(PreconditionError, match=str(UNFACTORABLE_MODULUS)):
            factorize(UNFACTORABLE_MODULUS)
        # the hardest modulus of test_factorize_matches_sympy needs a budget of 2**19 - 2
        hardest = 318665857834031151167461
        monkeypatch.setattr(rings, "_factorize", rings._factorize.__wrapped__)
        monkeypatch.setattr(rings, "_RHO_STEPS", 2**19 - 3)
        with pytest.raises(PreconditionError, match=str(hardest)):
            factorize(hardest)
        monkeypatch.setattr(rings, "_RHO_STEPS", 2**19)
        assert factorize(hardest).pairs == ((399165290221, 1), (798330580441, 1))

    @pytest.mark.usefixtures("wall_clock_limit")
    def test_factorize_rejects_non_integers(self):
        for bad in (1, 0, -5, True, 2.0, "12"):
            with pytest.raises(ValueError):
                factorize(bad)

    def test_nilpotency_bounds(self):
        assert nilpotency_bound(modular(9)) == 2
        assert nilpotency_bound(modular(12)) == 2
        assert nilpotency_bound(modular(8)) == 3
        assert nilpotency_bound(matrix(Z, 3)) == 3
        assert nilpotency_bound(matrix(modular(4), 2)) == 4
        with pytest.raises(UnsupportedRingError):
            nilpotency_bound(Z)

    def test_unit_exponents(self):
        assert unit_exponent(matrix(modular(2), 2)) == 6
        assert unit_exponent(matrix(modular(2), 3)) == 84
        assert unit_exponent(matrix(modular(7), 2)) == 336
        assert unit_exponent(matrix(modular(2), 4)) == 420
        assert unit_exponent(modular(997)) == 996
        for ring in (Z, matrix(Z, 2)):
            with pytest.raises(InfiniteRingError):
                unit_exponent(ring)

    def test_nilpotent_witness_is_minimal(self):
        z9 = modular(9)
        assert is_nilpotent(z9.element(0)) == NilpotencyWitness(1)
        assert is_nilpotent(z9.element(3)) == NilpotencyWitness(2)
        assert is_nilpotent(z9.element(6)) == NilpotencyWitness(2)
        assert is_nilpotent(z9.element(2)) is None

    def test_nilpotent_over_integers(self):
        assert is_nilpotent(Z.element(0)) == NilpotencyWitness(1)
        assert is_nilpotent(Z.element(2)) is None
        m = matrix(Z, 2)
        n = m.element([[0, 5], [0, 0]])
        assert is_nilpotent(n) == NilpotencyWitness(2)
        assert is_nilpotent(m.one()) is None

    @given(ring_elements())
    def test_nilpotent_witness_checks_out(self, a):
        w = is_nilpotent(a)
        if w is None:
            assert a ** nilpotency_bound(a.ring) != a.ring.zero()
        else:
            assert a ** w.index == a.ring.zero()
            assert w.index == 1 or a ** (w.index - 1) != a.ring.zero()

    def test_units(self):
        z9 = modular(9)
        assert is_unit(z9.element(2))
        assert not is_unit(z9.element(3))
        assert is_unit(Z.element(-1))
        assert not is_unit(Z.element(2))
        m = matrix(modular(2), 2)
        assert is_unit(m.element([[0, 1], [1, 1]]))
        assert not is_unit(m.element([[1, 1], [1, 1]]))
        mz = matrix(Z, 2)
        assert is_unit(mz.element([[0, 1], [-1, 0]]))
        assert not is_unit(mz.element([[2, 0], [0, 1]]))


class TestUnipotentInverse:
    def test_fixture(self):
        z9 = modular(9)
        u = z9.element(4)
        v = inverse_of_unipotent(u)
        assert v == z9.element(7)
        assert u * v == z9.one()

    @given(ring_elements())
    def test_inverse_of_one_plus_nilpotent(self, w):
        if is_nilpotent(w) is None:
            return
        u = w.ring.one() + w
        v = inverse_of_unipotent(u)
        assert u * v == w.ring.one()
        assert v * u == w.ring.one()

    def test_rejects_non_unipotent(self):
        z9 = modular(9)
        with pytest.raises((PreconditionError, VerificationError)):
            inverse_of_unipotent(z9.element(2))

    def test_lying_witness_is_caught(self, monkeypatch):
        z8 = modular(8)
        u = z8.one() + z8.element(2)
        # the series stops at the nilpotency test on entry tuples behind is_nilpotent
        monkeypatch.setattr("ringinv.rings._nilpotency", lambda ring, w: NilpotencyWitness(2))
        with pytest.raises(VerificationError):
            inverse_of_unipotent(u)


class TestCharPoly:
    def test_identity(self):
        m = matrix(Z, 2)
        assert char_poly(m.one()) == (1, -2, 1)

    def test_z9_fixture(self):
        m = matrix(modular(9), 2)
        a = m.element([[0, 1], [3, 0]])
        cp = char_poly(a)
        assert cp == (6, 0, 1)

    def test_scalar_rejected(self):
        with pytest.raises(PreconditionError):
            char_poly(modular(9).element(3))

    @given(ring_elements(rings=st.sampled_from([matrix(modular(n), 2) for n in (2, 3, 5, 9)])))
    def test_cayley_hamilton(self, a):
        coeffs = char_poly(a)
        assert PolynomialCertificate(coeffs, a).evaluate() == a.ring.zero()

    @given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    def test_det_2x2_over_integers(self, entries):
        m = matrix(Z, 2)
        a = m.element([entries[:2], entries[2:]])
        assert det(a) == entries[0] * entries[3] - entries[1] * entries[2]

    @given(ring_element_pairs(rings=st.sampled_from([matrix(modular(n), 2) for n in (3, 4, 7)])))
    def test_det_is_multiplicative(self, pair):
        a, b = pair
        n = a.ring.modulus
        assert det(a * b) % n == (det(a) * det(b)) % n


@st.composite
def small_square_matrices(draw):
    """A k-by-k matrix, k <= 6, with entries in [-9, 9], over Z or a Z/n."""
    base = draw(st.sampled_from([Z] + [modular(n) for n in (2, 4, 6, 9, 25)]))
    k = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-9, 9), min_size=k * k, max_size=k * k))
    return matrix(base, k).element([entries[i:i + k] for i in range(0, k * k, k)])


class TestDet:
    """det eliminates; the characteristic polynomial, whose constant term
    is (-1)^k det, is its oracle."""

    @given(small_square_matrices())
    @settings(max_examples=300)
    def test_matches_the_characteristic_polynomial(self, a):
        c0 = char_poly(a)[0]
        expected = c0 if a.ring.dim % 2 == 0 else -c0
        n = a.ring.modulus
        assert det(a) == (expected if n is None else expected % n)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[-7]], -7),
            ([[0, 1], [1, 0]], -1),
            ([[0, 2, 1], [3, 0, 0], [1, 1, 1]], -3),
            # the second pivot vanishes after the first step
            ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),
            ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1),
            ([[1, 2], [2, 4]], 0),
            ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
            ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0),
        ],
        ids=["k=1", "swap", "zero leading pivot", "zero second pivot", "reversal",
             "singular 2x2", "zero column", "singular 3x3"],
    )
    def test_fixtures_over_integers(self, rows, expected):
        a = matrix(Z, len(rows)).element(rows)
        assert det(a) == expected
        c0 = char_poly(a)[0]
        assert det(a) == (c0 if len(rows) % 2 == 0 else -c0)

    def test_reduced_in_the_entry_ring(self):
        assert det(matrix(modular(5), 1).element([[7]])) == 2
        assert det(matrix(modular(6), 2).element([[0, 5], [1, 0]])) == 1

    def test_scalar_rejected(self):
        with pytest.raises(PreconditionError):
            det(modular(9).element(3))

    @pytest.mark.parametrize("ring", [matrix(modular(4), 2), matrix(modular(6), 2)], ids=str)
    def test_is_unit_matches_inverse_search(self, ring):
        units = [is_unit(a) for a in ring.elements()]
        assert units == brute_force_units(ring)
        assert 0 < sum(units) < ring.size()
