"""The generated centraliser and the equation scan built on it.

The whole-ring filter in tests/oracles.py is the oracle: on every element
of the small rings, and on a seeded sample of the larger ones, the
generated centraliser must equal the filtered commuting set and the scan
must return the same three index lists.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from ringinv import CensusMismatchError, VerificationError, matrix, modular, run_census
from ringinv import _scan
from ringinv._scan import RingScan
from ringinv.census import _LawContext

from oracles import filtered_inverse_scan

EXHAUSTIVE_RINGS = (
    [modular(27), modular(997)]
    + [matrix(modular(n), 2) for n in range(2, 10)]
    + [matrix(modular(2), 3)]
)
SAMPLED_RINGS = [matrix(modular(16), 2), matrix(modular(3), 3), matrix(modular(2), 4)]
SAMPLES = 200
M4Z2 = matrix(modular(2), 4)


@functools.cache
def scan_of(ring) -> RingScan:
    return RingScan(ring)


# holds the last sampled ring's oracle answers for the cost test
@functools.lru_cache(maxsize=SAMPLES)
def oracle(ring, index: int) -> tuple[list[int], dict]:
    return filtered_inverse_scan(scan_of(ring), index)


def sample(ring) -> list[int]:
    return sorted(random.Random(0).sample(range(ring.size()), SAMPLES))


def generated(scan: RingScan, index: int) -> list[int]:
    return scan.codes(scan.centraliser(scan.stack[index])).tolist()


def shifted(gens, orders, q):
    """One generator moved off the centraliser."""
    gens = gens.copy()
    first = np.flatnonzero(orders > 1)[0]
    gens[first, 1] = (gens[first, 1] + 1) % q
    return gens, orders


def doubled(gens, orders, q):
    """One generator listed twice, so the enumeration repeats elements."""
    last = np.flatnonzero(orders > 1)[-1:]
    return np.concatenate([gens, gens[last]]), np.concatenate([orders, orders[last]])


class TestCentraliserParity:
    @pytest.mark.parametrize(
        "ring, indexes",
        [(r, range(r.size())) for r in EXHAUSTIVE_RINGS]
        + [(r, sample(r)) for r in SAMPLED_RINGS],
        ids=[str(r) for r in EXHAUSTIVE_RINGS] + [f"{r} sample" for r in SAMPLED_RINGS],
    )
    def test_generated_scan_matches_the_filter(self, ring, indexes):
        scan = scan_of(ring)
        for index in indexes:
            commuting, found = oracle(ring, index)
            assert generated(scan, index) == commuting, index
            assert scan.inverse_scan(index) == found, index

    @pytest.mark.parametrize("ring", [modular(12), matrix(modular(2), 2)], ids=str)
    def test_whole_ring_is_the_stack_itself(self, ring):
        scan = scan_of(ring)
        for a in (ring.zero(), ring.one(), ring.one() + ring.one()):
            assert scan.centraliser(scan.stack[ring.index_of(a)]) is scan.stack

    def test_centraliser_of_a_non_scalar_is_generated(self):
        ring = matrix(modular(7), 2)
        scan = scan_of(ring)
        index = ring.index_of(ring.element([[1, 2], [3, 4]]))
        assert len(scan.centraliser(scan.stack[index])) == 49


class TestCentraliserSelfCheck:
    def test_dropped_generator_fails_the_census(self, monkeypatch):
        kernel_mod = _scan._kernel_mod

        def without_last(mat, q):
            gens, orders = kernel_mod(mat, q)
            last = np.flatnonzero(orders > 1)[-1]
            return np.delete(gens, last, axis=0), np.delete(orders, last)

        monkeypatch.setattr(_scan, "_kernel_mod", without_last)
        with pytest.raises(CensusMismatchError):
            run_census(matrix(modular(4), 2))

    @pytest.mark.parametrize(
        "corrupt, message",
        [(shifted, "non-commuting"), (doubled, "repeats")],
        ids=["shifted", "doubled"],
    )
    def test_corrupted_generators_are_caught(self, corrupt, message, monkeypatch):
        kernel_mod = _scan._kernel_mod
        monkeypatch.setattr(
            _scan, "_kernel_mod", lambda mat, q: corrupt(*kernel_mod(mat, q), q)
        )
        ring = matrix(modular(5), 2)
        a = ring.element([[1, 2], [3, 4]])
        with pytest.raises(VerificationError, match=message):
            RingScan(ring).inverse_scan(ring.index_of(a))


class TestScanCost:
    def test_scanned_rows_are_the_centralisers(self, monkeypatch):
        scan = scan_of(M4Z2)
        scan.nilpotent_mask()  # whole-ring set-up, built once per scan object
        indexes = sample(M4Z2)
        centraliser, mul = RingScan.centraliser, RingScan._mul
        touched = 0
        widest = 0

        def counting_centraliser(self, a):
            nonlocal touched
            rows = centraliser(self, a)
            touched += len(rows)
            return rows

        def widest_mul(self, x, y):
            nonlocal widest
            widest = max([widest] + [len(t) for t in (x, y) if t.ndim == 3])
            return mul(self, x, y)

        monkeypatch.setattr(RingScan, "centraliser", counting_centraliser)
        monkeypatch.setattr(RingScan, "_mul", widest_mul)
        for index in indexes:
            widest = 0
            before = touched
            scan.inverse_scan(index)
            assert widest <= touched - before, index
        monkeypatch.undo()
        assert touched == sum(len(oracle(M4Z2, i)[0]) for i in indexes)
        assert touched < 0.05 * SAMPLES * M4Z2.size()


class TestSharedTripotentMask:
    def test_census_masks_reuse_the_tripotent_mask(self):
        scan = RingScan(matrix(modular(3), 2))
        assert scan.census_masks()["tripotent"] is scan.tripotent_mask()
        fresh = RingScan(matrix(modular(3), 2))
        mask = fresh.tripotent_mask()
        assert fresh.census_masks()["tripotent"] is mask

    def test_law_context_builds_no_other_mask(self, monkeypatch):
        def refuse(scan):
            raise AssertionError("census_masks built for the tripotents alone")

        monkeypatch.setattr(RingScan, "census_masks", refuse)
        ctx = _LawContext(matrix(modular(3), 2))
        assert ctx.tripotents == np.flatnonzero(ctx.scan.tripotent_mask()).tolist()
        assert len(ctx.tripotents) == 39
