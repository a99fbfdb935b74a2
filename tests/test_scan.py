"""The generated centraliser and the equation scan built on it.

The whole-ring filter in tests/oracles.py is the oracle: on every element
of the small rings, and on a seeded sample of the larger ones, the
centralisers generated in one batched call must equal the filtered
commuting sets over a prime power (a centraliser left unenumerated must be
the whole ring; a composite modulus generates none of its own), and the
scan, batched or one element at a time, must return the same three index
lists.
The one-matrix elimination kernel_mod is the oracle of the batched one,
and x % m the oracle of the in-place reduction kernel _reduce.
"""

from __future__ import annotations

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringinv import (
    CensusMismatchError,
    VerificationError,
    matrix,
    modular,
    run_census,
    verify_theorem,
)
from ringinv import _scan, census
from ringinv._scan import RingScan
from ringinv.census import _LawContext
from ringinv.rings import factorize

from conftest import counting_products
from oracles import filtered_inverse_scans, kernel_mod

EXHAUSTIVE_RINGS = (
    [modular(27), modular(997)]
    + [matrix(modular(n), 2) for n in range(2, 10)]
    + [matrix(modular(2), 3)]
)
SAMPLED_RINGS = [matrix(modular(16), 2), matrix(modular(3), 3), matrix(modular(2), 4)]
SAMPLES = 200
M4Z2 = matrix(modular(2), 4)
M3Z2 = matrix(modular(2), 3)
# Element products per cross-checked element of a census: the criteria,
# the Hirano lift and the scan's verdict tests (about 21 on M3(Z/2)),
# whatever the size of the ring.
PRODUCTS_PER_CHECKED = 100


@functools.cache
def scan_of(ring) -> RingScan:
    return RingScan(ring)


# holds the last ring's oracle answers, so the cost test reuses M4(Z/2)'s sample
@functools.lru_cache(maxsize=1)
def oracle(ring, indexes: tuple[int, ...]) -> list[tuple[np.ndarray, dict]]:
    return filtered_inverse_scans(scan_of(ring), indexes)


def sample(ring) -> list[int]:
    return sorted(random.Random(0).sample(range(ring.size()), SAMPLES))


def generated(scan: RingScan, indexes) -> dict[int, list[int] | None]:
    """Each index's centraliser codes, from one batched _centralisers call;
    None for a whole-ring centraliser, which is not enumerated."""
    indexes = list(indexes)
    found = {}
    for members, _, codes, _ in scan._centralisers(scan.stack[indexes]):
        for i, member in enumerate(members.tolist()):
            found[indexes[member]] = None if codes is None else codes[i].tolist()
    return found


def centraliser_size_mod2(p: np.ndarray) -> int:
    """The number of x over F_2 with px = xp: 2 ** (k*k - rank) of the map
    x -> px - xp, its rank found by XOR elimination of the images of the
    k*k matrix units, each packed into the bits of an int."""
    k = len(p)
    units = np.eye(k * k, dtype=np.int64).reshape(k * k, k, k)
    images = ((p @ units - units @ p) % 2).reshape(k * k, k * k)
    basis: list[int] = []  # distinct leading bits, each absent from the later ones
    for v in (images @ (1 << np.arange(k * k, dtype=np.int64))).tolist():
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return 2 ** (k * k - len(basis))


def last_generator(orders):
    """Per matrix of a batch, the position of its last generator of order > 1."""
    return orders.shape[1] - 1 - np.argmax(orders[:, ::-1] > 1, axis=1)


def dropped(gens, orders, q):
    """Each matrix's last generator replaced by zero, of order 1."""
    gens, orders = gens.copy(), orders.copy()
    items, last = np.arange(len(orders)), last_generator(orders)
    gens[items, last] = 0
    orders[items, last] = 1
    return gens, orders


def shifted(gens, orders, q):
    """Each matrix's first generator moved off the centraliser."""
    gens = gens.copy()
    items, first = np.arange(len(orders)), np.argmax(orders > 1, axis=1)
    gens[items, first, 1] = (gens[items, first, 1] + 1) % q
    return gens, orders


def doubled(gens, orders, q):
    """Each matrix's last generator listed twice, so the enumeration repeats elements."""
    items, last = np.arange(len(orders)), last_generator(orders)
    return (
        np.concatenate([gens, gens[items, last, None]], axis=1),
        np.concatenate([orders, orders[items, last, None]], axis=1),
    )


def commutators(stack: np.ndarray) -> np.ndarray:
    """Per matrix a of the stack, the matrix of x -> ax - xa on row-major
    entries: column j is the image of the j-th matrix unit."""
    n, d = stack.shape[:2]
    units = np.eye(d * d, dtype=np.int64).reshape(d * d, d, d)
    images = stack[:, None] @ units[None] - units[None] @ stack[:, None]
    return images.reshape(n, d * d, d * d).transpose(0, 2, 1)


# moduli of every kind up to 10**6: primes, prime powers, powers of two, composites
MODULI = st.one_of(
    st.sampled_from(
        [2, 3, 7, 997, 999_983, 9, 3**12, 7**7, 4, 1024, 2**19, 6, 12, 30, 720_720, 10**6]
    ),
    st.integers(2, 10**6),
)
REDUCE_SIZES = [0, 1, _scan._BLOCK - 1, _scan._BLOCK, _scan._BLOCK + 1, 3 * _scan._BLOCK + 5]


def counting_rows(monkeypatch) -> list[int]:
    """Patch RingScan._solve_rows to record the number of rows of each block
    it tests for bab = b."""
    solve_rows = RingScan._solve_rows
    blocks: list[int] = []

    def counting(self, a, members, rows, codes, ab):
        blocks.append(codes.size)
        return solve_rows(self, a, members, rows, codes, ab)

    monkeypatch.setattr(RingScan, "_solve_rows", counting)
    return blocks


@pytest.mark.usefixtures("wall_clock_limit")
class TestCentraliserParity:
    @pytest.mark.parametrize(
        "ring, indexes",
        [(r, range(r.size())) for r in EXHAUSTIVE_RINGS]
        + [(r, sample(r)) for r in SAMPLED_RINGS],
        ids=[str(r) for r in EXHAUSTIVE_RINGS] + [f"{r} sample" for r in SAMPLED_RINGS],
    )
    def test_generated_scan_matches_the_filter(self, ring, indexes):
        """The centraliser rows are compared over a prime power only: a
        composite modulus generates none of its own, and its scan lifts its
        components' sets."""
        scan = scan_of(ring)
        batched = scan.inverse_scans(indexes)
        assert len(batched) == len(indexes)
        prime_power = len(factorize(ring.modulus).pairs) == 1
        centralisers = generated(scan, indexes) if prime_power else {}
        whole_ring = list(range(ring.size()))
        expected = oracle(ring, tuple(indexes))
        for index, one, (commuting, found) in zip(indexes, batched, expected, strict=True):
            if prime_power:
                rows = centralisers[index]
                assert (whole_ring if rows is None else rows) == commuting.tolist(), index
            assert scan.inverse_scan(index) == found, index
            assert one == found, index

    @pytest.mark.parametrize("block", [_scan._BLOCK, 64], ids=["budget", "tiny budget"])
    @pytest.mark.parametrize(
        "ring", [matrix(modular(6), 2), matrix(modular(2), 3), modular(12)], ids=str
    )
    def test_shuffled_batch_with_repeats_matches_batches_of_one(self, ring, block, monkeypatch):
        """Scalars (whole-ring centralisers) and non-scalars, in shuffled
        order, each index twice or more, across the elimination's chunk of
        _BLOCK // k^2 matrices and across row blocks."""
        monkeypatch.setattr(_scan, "_BLOCK", block)
        scan = RingScan(ring)
        scalars = [ring.index_of(c * ring.one()) for c in range(ring.modulus)]
        indexes = list(range(ring.size())) * 2 + scalars * 3
        random.Random(1).shuffle(indexes)
        assert not ring.dim or len(indexes) > block // ring.dim**4
        single = {i: scan.inverse_scan(i) for i in set(indexes)}
        assert scan.inverse_scans(indexes) == [single[i] for i in indexes]
        checked = scalars + indexes[:20]
        for index, (_, found) in zip(checked, filtered_inverse_scans(scan, checked), strict=True):
            assert single[index] == found, index

    @pytest.mark.parametrize(
        "ring, indexes, first_block",
        [
            # 64 // 13 = 4 whole rings per grid
            (modular(13), range(13), 52),
            # two whole rings per grid, the fewest a grid holds
            (modular(32), range(32), 64),
            # one ring per block: broadcast views beside the stack
            (modular(49), range(49), 49),
            (modular(61), range(61), 61),
            (modular(64), range(64), 64),
            # above 64 rows: views cut at 64 rows
            (modular(67), range(67), 64),
            # 16 rows per ring of 2 x 2 matrices: one scalar per block,
            # beside a generated centraliser
            (matrix(modular(2), 2), [0, 9, 6, 9, 0], 16),
        ],
        ids=["Z/13", "Z/32", "Z/49", "Z/61", "Z/64", "Z/67", "M2(Z/2) scalars"],
    )
    def test_whole_ring_grids_match_batches_of_one(self, ring, indexes, first_block, monkeypatch):
        """With _BLOCK at 64 entries, on each side of the grid's limits: the
        batched scan equals batches of one and the filter, and its row
        blocks hold exactly the centralisers, at most 64 // d^2 rows each."""
        monkeypatch.setattr(_scan, "_BLOCK", 64)
        scan = RingScan(ring)
        single = [scan.inverse_scan(i) for i in indexes]
        blocks = counting_rows(monkeypatch)
        assert scan.inverse_scans(indexes) == single
        expected = filtered_inverse_scans(scan, indexes)
        assert single == [found for _, found in expected]
        assert sum(blocks) == sum(len(commuting) for commuting, _ in expected)
        assert blocks[0] == first_block and max(blocks) <= 64 // max(1, ring.dim) ** 2

    def test_composite_grids_match_batches_of_one(self, monkeypatch):
        """Z/65 = Z/5 x Z/13 scans its components' grids, each below the
        64-entry limits: the batched scan equals batches of one and the
        filter."""
        monkeypatch.setattr(_scan, "_BLOCK", 64)
        ring = modular(65)
        scan = RingScan(ring)
        single = [scan.inverse_scan(i) for i in range(65)]
        assert scan.inverse_scans(range(65)) == single
        assert single == [found for _, found in filtered_inverse_scans(scan, range(65))]

    @pytest.mark.parametrize(
        "ring",
        [matrix(modular(n), 2) for n in (4, 6, 8, 9)] + [M3Z2],
        ids=str,
    )
    def test_batched_elimination_matches_one_matrix_at_a_time(self, ring):
        scan = scan_of(ring)
        mats = commutators(scan.stack)
        for q in (p**e for p, e in factorize(ring.modulus).pairs):
            gens, orders = _scan._kernels_mod(mats, q, _scan._inverse_table(q))
            for mat, g, o in zip(mats, gens, orders):
                want_g, want_o = kernel_mod(mat, q)
                assert (g == want_g).all() and (o == want_o).all()

    @pytest.mark.parametrize("ring", [modular(12), matrix(modular(2), 2)], ids=str)
    def test_whole_ring_is_the_stack_itself(self, ring):
        scan = scan_of(ring)
        scalars = [ring.index_of(a) for a in (ring.zero(), ring.one(), ring.one() + ring.one())]
        assert generated(scan, scalars) == dict.fromkeys(scalars)

    def test_centraliser_of_a_non_scalar_is_generated(self):
        ring = matrix(modular(7), 2)
        scan = scan_of(ring)
        index = ring.index_of(ring.element([[1, 2], [3, 4]]))
        assert len(generated(scan, [index])[index]) == 49


class TestCentraliserSelfCheck:
    def test_dropped_generator_fails_the_census(self, monkeypatch):
        kernels_mod = _scan._kernels_mod
        monkeypatch.setattr(
            _scan, "_kernels_mod", lambda mats, q, inv: dropped(*kernels_mod(mats, q, inv), q)
        )
        with pytest.raises(CensusMismatchError):
            run_census(matrix(modular(4), 2))

    @pytest.mark.parametrize(
        "corrupt, message",
        [(shifted, "non-commuting"), (doubled, "repeats")],
        ids=["shifted", "doubled"],
    )
    def test_corrupted_generators_are_caught(self, corrupt, message, monkeypatch):
        kernels_mod = _scan._kernels_mod
        monkeypatch.setattr(
            _scan, "_kernels_mod", lambda mats, q, inv: corrupt(*kernels_mod(mats, q, inv), q)
        )
        ring = matrix(modular(5), 2)
        a = ring.element([[1, 2], [3, 4]])
        scan = RingScan(ring)
        with pytest.raises(VerificationError, match=message):
            scan.inverse_scan(ring.index_of(a))
        with pytest.raises(VerificationError, match=message):
            scan.inverse_scans([0, ring.index_of(a), 7])

    def test_failing_batch_reports_as_one_element_at_a_time(self, monkeypatch):
        """Every generator set loses one generator, and the centraliser of
        the last element also gets a non-commuting one.  Law 2.2 rescans a
        batch that raises one element at a time, so it records the same
        violations as with chunks of one element.  The census fails either
        way: a batch on the self-check it raises, a chunk of one at its
        first element that lost a generator."""
        ring = matrix(modular(3), 2)
        late = commutators(RingScan(ring).stack[-1:])[0]
        kernels_mod = _scan._kernels_mod

        def corrupted(mats, q, inv):
            gens, orders = dropped(*kernels_mod(mats, q, inv), q)
            hit = (mats % q == late % q).all(axis=(1, 2))
            gens[hit] = shifted(gens, orders, q)[0][hit]
            return gens, orders

        monkeypatch.setattr(_scan, "_kernels_mod", corrupted)
        outcomes = []
        for chunk in (census.SCAN_CHUNK, 1):
            monkeypatch.setattr(census, "SCAN_CHUNK", chunk)
            with pytest.raises(VerificationError) as failure:
                run_census(ring)
            outcomes.append((failure.value, verify_theorem("2.2", ring)))
        (batched, law_batched), (single, law_single) = outcomes
        assert law_batched == law_single
        assert any("non-commuting" in v.detail for v in law_batched.violations)
        assert "non-commuting" in str(batched) and type(single) is CensusMismatchError


class TestPrimePowersOnly:
    @pytest.mark.parametrize("ring", [matrix(modular(6), 2), modular(360)], ids=str)
    def test_elimination_sees_only_prime_powers(self, ring, monkeypatch):
        """A composite modulus reaches _centralisers and _kernels_mod only
        through its components, in the census and in the laws that read the
        scan."""
        kernels_mod, centralisers = _scan._kernels_mod, RingScan._centralisers
        moduli = {"_kernels_mod": set(), "_centralisers": set()}

        def prime_power(name, q):
            assert len(factorize(q).pairs) == 1, (name, q)
            moduli[name].add(q)

        def checked_kernels(mats, q, inverse):
            prime_power("_kernels_mod", q)
            return kernels_mod(mats, q, inverse)

        def checked_centralisers(scan, a):
            prime_power("_centralisers", scan.modulus)
            return centralisers(scan, a)

        monkeypatch.setattr(_scan, "_kernels_mod", checked_kernels)
        monkeypatch.setattr(RingScan, "_centralisers", checked_centralisers)
        run_census(ring)
        for law in ("2.2", "3.6"):
            assert verify_theorem(law, ring).ok, law
        components = {p**e for p, e in factorize(ring.modulus).pairs}
        assert moduli == {
            "_kernels_mod": components if ring.dim else set(),
            "_centralisers": components,
        }


class TestScanCost:
    def test_scanned_rows_are_the_centralisers(self, monkeypatch):
        """The distinct sampled indexes in one batched scan, whose rows are
        their centralisers; each index is then read twice through the law
        memo, which scans nothing more."""
        scan = scan_of(M4Z2)
        ctx = _LawContext(M4Z2)
        ctx.scan = scan
        scan.masks  # whole-ring set-up, built once per scan object
        indexes = sample(M4Z2)
        mul = RingScan._mul
        widest = 0

        def widest_mul(self, x, y):
            nonlocal widest
            widest = max(widest, *(math.prod(t.shape[:-2]) for t in (x, y)))
            return mul(self, x, y)

        blocks = counting_rows(monkeypatch)
        monkeypatch.setattr(RingScan, "_mul", widest_mul)
        ctx.prefetch(indexes)
        for index in indexes + indexes[::-1]:
            ctx.scanned_hirano(index)
        monkeypatch.undo()
        touched = sum(blocks)
        assert touched == sum(len(commuting) for commuting, _ in oracle(M4Z2, tuple(indexes)))
        assert touched < 0.05 * SAMPLES * M4Z2.size()
        assert widest <= min(touched, _scan._BLOCK // 16)

    @pytest.mark.parametrize("law", ["2.2", "3.1"])
    def test_arity_one_law_rows_are_the_centralisers(self, law, monkeypatch):
        """An arity-1 law walks the whole ring and scans each element once,
        on the rows of its centraliser only."""
        blocks = counting_rows(monkeypatch)
        report = verify_theorem(law, M3Z2)
        monkeypatch.undo()
        assert report.ok and report.strategy == "exhaustive"
        assert report.instances == M3Z2.size() == 512
        assert sum(blocks) == sum(centraliser_size_mod2(p) for p in scan_of(M3Z2).stack)

    def test_law_3_6_split_rows_are_the_tripotent_centralisers(self, monkeypatch):
        ctx = _LawContext(M4Z2)
        scan = ctx.scan
        scan.masks  # whole-ring set-up, built once per scan object
        centralisers = RingScan._centralisers
        touched = 0

        def counting_centralisers(self, a):
            nonlocal touched
            for members, rows, codes, ab in centralisers(self, a):
                touched += len(members) * (self.size if rows is None else rows.shape[1])
                yield members, rows, codes, ab

        monkeypatch.setattr(RingScan, "_centralisers", counting_centralisers)
        scan.split_mask
        monkeypatch.undo()
        tripotents = np.flatnonzero(scan.masks["tripotent"])
        assert touched == sum(centraliser_size_mod2(p) for p in scan.stack[tripotents])
        assert touched < 0.05 * len(tripotents) * M4Z2.size()

    def test_census_cross_check_rows_and_products(self, monkeypatch):
        inverse_scans = RingScan.inverse_scans
        scanned: list[int] = []

        def recording_scans(self, indexes):
            scanned.extend(indexes)
            return inverse_scans(self, indexes)

        blocks = counting_rows(monkeypatch)
        monkeypatch.setattr(RingScan, "inverse_scans", recording_scans)
        products = counting_products(monkeypatch)
        checked = run_census(M3Z2).cross_check.checked
        monkeypatch.undo()
        assert scanned == list(range(M3Z2.size())) and checked == len(scanned)
        scan = scan_of(M3Z2)
        assert sum(blocks) == sum(len(commuting) for commuting, _ in filtered_inverse_scans(scan, scanned))
        assert products[0] <= PRODUCTS_PER_CHECKED * checked

    def test_laws_scan_each_index_once(self, monkeypatch):
        inverse_scans = RingScan.inverse_scans
        scanned: list[int] = []

        def recording_scans(self, indexes):
            scanned.extend(indexes)
            return inverse_scans(self, indexes)

        monkeypatch.setattr(RingScan, "inverse_scans", recording_scans)
        for law in ("4.1", "4.2", "2.2", "3.1"):
            scanned.clear()
            assert verify_theorem(law, modular(27)).ok
            assert sorted(scanned) == list(range(27)), law


class TestReduce:
    @settings(max_examples=60, deadline=None)
    @given(
        m=MODULI,
        d=st.integers(1, 3),
        size=st.sampled_from(REDUCE_SIZES),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_remainder_in_place(self, m, d, size, strided, seed):
        """Entries from -d^2 (m-1)^3 to d^2 (m-1)^3, the widest the scan
        forms, the extremes included; a strided view has no flat view and
        must be reduced in place all the same, its neighbours untouched."""
        top = d * d * (m - 1) ** 3
        values = np.random.default_rng(seed).integers(-top, top, size, endpoint=True)
        values[:2] = [top, -top][:size]
        base = np.zeros(2 * size, dtype=np.int64)
        x = base[::2] if strided else base[:size]
        x[:] = values
        assert _scan._reduce(x, m) is x
        assert np.array_equal(x, values % m)
        if strided:
            assert not base[1::2].any()

    def test_keeps_the_shape_of_a_stack(self):
        x = np.arange(-3 * _scan._BLOCK, 3 * _scan._BLOCK, 3, dtype=np.int64).reshape(-1, 2, 2)
        want = x % 11
        assert _scan._reduce(x, 11) is x and np.array_equal(x, want)


class TestStackAndMemory:
    @pytest.mark.parametrize(
        "ring",
        [matrix(modular(8), 2), matrix(modular(12), 2), modular(243), modular(360)],
        ids=str,
    )
    def test_scans_leave_the_stack_intact(self, ring):
        """Every reduction of the stack, such as the component codes of a
        composite modulus, reduces a copy; over Z/n the codes are views of
        the entries, and no scan writes into them."""
        scan = RingScan(ring)
        before = scan.stack.copy()
        indexes = sample(ring)
        scan.masks
        scan.inverse_scans(indexes)
        scan.drazin_codes(indexes)
        scan.split_mask
        assert np.array_equal(scan.stack, before)

    def test_mask_build_peak_memory(self):
        """masks holds under four whole-ring arrays at its peak beside
        the stack: x^2 and x^3 are made after the nilpotent and unit powers,
        so neither is alive beside a power's operands and product (5.24
        stack sizes when they were made first)."""
        scan = RingScan(matrix(modular(13), 2))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            scan.masks
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 4 * scan.stack.nbytes


class TestSharedTripotentMask:
    @pytest.mark.parametrize("ring", [matrix(modular(3), 2), matrix(modular(6), 2)], ids=str)
    def test_census_masks_are_built_once(self, ring, monkeypatch):
        """A second read of masks or split_mask returns the first read's
        arrays and does no stack arithmetic: no product, power, code
        lookup, centraliser or component scan."""
        scan = RingScan(ring)
        masks, split = scan.masks, scan.split_mask

        def refuse(*args, **kwargs):
            raise AssertionError("a cached mask was rebuilt")

        for name in ("_product", "_mul", "_power", "codes", "_centralisers", "__init__"):
            monkeypatch.setattr(RingScan, name, refuse)
        assert scan.masks is masks
        assert scan.split_mask is split
