from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import random
import re
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from ringinv import (
    LAWS,
    CensusMismatchError,
    InfiniteRingError,
    PreconditionError,
    RingSpec,
    VerificationError,
    ViolationRecord,
    Z,
    has_hirano,
    has_strongly_drazin,
    hirano,
    is_idempotent,
    is_nilpotent,
    is_tripotent,
    is_unit,
    matrix,
    modular,
    parse_ring,
    run_census,
    verify_theorem,
)
from ringinv import _scan, census, gen_inverse
from ringinv._scan import RingScan, check_scan_fits
from ringinv.census import _LawContext
from ringinv.rings import factorize

from conftest import (
    HIRANO_FAILURE,
    SMALL_MODULAR,
    SMALL_RINGS,
    altering_masks,
    counting_calls,
    counting_nilpotency_tests,
    counting_products,
)
from oracles import element_verdicts, filtered_inverse_scans, whole_stack_masks

Z3_COUNTS = {
    "total": 3,
    "nilpotent": 1,
    "idempotent": 2,
    "tripotent": 3,
    "unit": 2,
    "drazin": 3,
    "strongly_drazin": 2,
    "hirano": 3,
}

Z9_COUNTS = {
    "total": 9,
    "nilpotent": 3,
    "idempotent": 2,
    "tripotent": 3,
    "unit": 6,
    "drazin": 9,
    "strongly_drazin": 6,
    "hirano": 9,
}

M2Z2_COUNTS = {
    "total": 16,
    "nilpotent": 4,
    "idempotent": 8,
    "tripotent": 11,
    "unit": 6,
    "drazin": 16,
    "strongly_drazin": 14,
    "hirano": 14,
}

M2Z3_COUNTS = {
    "total": 81,
    "nilpotent": 9,
    "idempotent": 14,
    "tripotent": 39,
    "unit": 48,
    "drazin": 81,
    "strongly_drazin": 30,
    "hirano": 63,
}

# every finite ring whose census is recorded in census_golden.json
GOLDEN_CENSUS_RINGS = [
    ring
    for ring in (
        parse_ring(entry["argv"][1])
        for entry in json.loads(
            (Path(__file__).parent / "data" / "census_golden.json").read_text()
        )
        if entry["exit_code"] == 0
    )
    if ring.is_finite
]
# per-element drazin_finite takes about 9 s over the 153 364 elements of the
# golden rings above the exhaustive cap, so those are compared on a sample
POWER_FORMULA_SAMPLES = 1000

# (ring, instances, checked) triples frozen from exhaustive runs; a change in
# any of them means the verification harness itself changed behavior.
BATTERY = [
    ("2.1", "Z/9", 9, 9),
    ("2.2", "Z/9", 9, 9),
    ("2.4", "Z/9", 9, 9),
    ("3.1", "Z/9", 9, 9),
    ("3.2", "Z/9", 9, 9),
    ("3.3", "Z/9", 9, 9),
    ("3.4", "Z/9", 90, 45),
    ("3.6", "Z/9", 1, 1),
    ("4.1", "Z/9", 729, 297),
    ("4.2", "Z/9", 81, 81),
    ("4.3", "Z/9", 81, 81),
    ("4.4", "Z/9", 81, 81),
    ("4.5", "Z/9", 9, 9),
    ("5.1", "Z/9", 729, 297),
    ("5.2", "Z/9", 81, 81),
    ("5.4", "Z/9", 81, 21),
    ("5.5", "Z/9", 81, 9),
    ("2.1", "M2(Z/2)", 16, 14),
    ("2.2", "M2(Z/2)", 16, 16),
    ("2.4", "M2(Z/2)", 16, 14),
    ("3.1", "M2(Z/2)", 16, 16),
    ("3.2", "M2(Z/2)", 16, 14),
    ("3.3", "M2(Z/2)", 16, 14),
    ("3.4", "M2(Z/2)", 272, 90),
    ("3.6", "M2(Z/2)", 1, 1),
    ("4.1", "M2(Z/2)", 4096, 1504),
    ("4.2", "M2(Z/2)", 256, 256),
    ("4.3", "M2(Z/2)", 256, 256),
    ("4.4", "M2(Z/2)", 256, 76),
    ("4.5", "M2(Z/2)", 16, 14),
    ("5.1", "M2(Z/2)", 4096, 1504),
    ("5.2", "M2(Z/2)", 256, 256),
    ("5.4", "M2(Z/2)", 256, 36),
    ("5.5", "M2(Z/2)", 256, 16),
]

RINGS = {"Z/9": modular(9), "M2(Z/2)": matrix(modular(2), 2)}

COUNT_KEYS = tuple(Z3_COUNTS)
MASK_KEYS = ("nilpotent", "idempotent", "tripotent", "unit", "strongly_drazin", "hirano")
WALK_RINGS = SMALL_RINGS + [matrix(modular(5), 2), matrix(modular(6), 2), modular(360)]
SPLIT_RINGS = SMALL_RINGS + [
    matrix(modular(5), 2),
    matrix(modular(6), 2),
    matrix(modular(7), 2),
    modular(360),
]
# 262 144 elements, above ORACLE_RING_CAP: the laws that read the scan refuse it
M3Z4 = matrix(modular(4), 3)
M3Z4_OVERSIZED = "M3(Z/4) is too large for the whole-ring law (cap 65536)"


def unreachable(*args):
    raise AssertionError("a refused request scanned or decided an element")


def walk_census(ring):
    """Census counts and first witness indexes, one element at a time.

    This is the count path run_census used before its whole-ring masks,
    kept as an independent oracle for them.
    """
    counts = dict.fromkeys(COUNT_KEYS, 0)
    first_hirano_not_sd = None
    first_not_hirano = None
    for index, a in enumerate(ring.elements()):
        counts["total"] += 1
        if is_nilpotent(a) is not None:
            counts["nilpotent"] += 1
        if is_idempotent(a):
            counts["idempotent"] += 1
        if is_tripotent(a):
            counts["tripotent"] += 1
        if is_unit(a):
            counts["unit"] += 1
        counts["drazin"] += 1
        hir = has_hirano(a)
        sd = has_strongly_drazin(a)
        if hir:
            counts["hirano"] += 1
        if sd:
            counts["strongly_drazin"] += 1
        if hir and not sd and first_hirano_not_sd is None:
            first_hirano_not_sd = index
        if not hir and first_not_hirano is None:
            first_not_hirano = index
    return counts, first_hirano_not_sd, first_not_hirano


def walk_split(ring, tripotent=is_tripotent, nilpotent=lambda w: is_nilpotent(w) is not None):
    """Whether each element is p + w, p tripotent, w nilpotent, ap = pa.

    This is the per-element search law 3.6 ran before its pair scan, kept as
    an independent oracle for RingScan.split_mask.  The old law
    tried every tripotent p against a; here the inner loop runs over the
    nilpotents w and looks p = a - w up among the tripotents, which asks the
    same question (aw = wa iff ap = pa) in a fraction of the pairs.  The
    tripotent and nilpotent predicates may be narrowed, as a faulty mask
    would narrow them.
    """
    tripotents = {p for p in ring.elements() if tripotent(p)}
    nilpotents = [w for w in ring.elements() if nilpotent(w)]
    return [
        any(a - w in tripotents and a * w == w * a for w in nilpotents)
        for a in ring.elements()
    ]


class TestCensusCounts:
    def test_mod3(self):
        report = run_census(modular(3))
        assert report.counts == Z3_COUNTS
        assert report.is_strongly_2_nil_clean is True

    def test_mod9(self):
        report = run_census(modular(9))
        assert report.counts == Z9_COUNTS
        assert report.is_strongly_2_nil_clean is True

    def test_mod2_matrices(self):
        report = run_census(matrix(modular(2), 2))
        assert report.counts == M2Z2_COUNTS
        assert report.is_strongly_2_nil_clean is False

    def test_mod3_matrices(self):
        report = run_census(matrix(modular(3), 2))
        assert report.counts == M2Z3_COUNTS
        assert report.is_strongly_2_nil_clean is False

    def test_hierarchy_always_holds(self):
        for n in range(2, 13):
            counts = run_census(modular(n)).counts
            assert counts["strongly_drazin"] <= counts["hirano"]
            assert counts["hirano"] <= counts["drazin"]
            assert counts["drazin"] == counts["total"]


class TestCensusMasks:
    @pytest.mark.parametrize("ring", WALK_RINGS, ids=str)
    def test_counts_and_witnesses_match_the_walk(self, ring):
        counts, first_hirano_not_sd, first_not_hirano = walk_census(ring)
        report = run_census(ring)
        assert report.counts == counts
        expected = [i for i in (first_hirano_not_sd, first_not_hirano) if i is not None]
        assert [w.index for w in report.witnesses] == expected
        assert [w.element for w in report.witnesses] == [
            str(ring.element_at(i)) for i in expected
        ]

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=str)
    def test_unit_mask_matches_is_unit(self, ring):
        mask = RingScan(ring).masks["unit"]
        assert mask.tolist() == [is_unit(a) for a in ring.elements()]

    def test_unit_mask_matches_is_unit_in_dimension_four(self):
        ring = matrix(modular(2), 4)
        mask = RingScan(ring).masks["unit"]
        indexes = random.Random(0).sample(range(ring.size()), 500)
        assert [bool(mask[i]) for i in indexes] == [
            is_unit(ring.element_at(i)) for i in indexes
        ]
        assert 0 < mask[indexes].sum() < 500

    @pytest.mark.parametrize(
        "ring, first", [(matrix(modular(5), 2), "[[0,1],[2,0]]"), (modular(9), "2")],
        ids=["M2(Z/5)", "Z/9"],
    )
    def test_halved_unit_exponent_is_caught(self, ring, first, monkeypatch):
        # x^(exponent/2) = 1 misses the units of full order; the scan's
        # Drazin inverse (a*d = 1) and is_unit both still see them
        unit_exponent = _scan.unit_exponent
        monkeypatch.setattr(_scan, "unit_exponent", lambda r: unit_exponent(r) // 2)
        with pytest.raises(CensusMismatchError, match="unit") as caught:
            run_census(ring)
        assert f"at element {first}:" in str(caught.value)

    def test_inverse_scan_solves_only_the_three_systems(self):
        found = RingScan(matrix(modular(2), 2)).inverse_scan(9)
        assert sorted(found) == ["drazin", "hirano", "strongly_drazin"]

    @pytest.mark.parametrize("category", MASK_KEYS)
    def test_corrupted_mask_entry_is_caught(self, category, monkeypatch):
        ring = matrix(modular(2), 2)
        index = 9

        def corrupted(scan, masks):
            masks[category] = masks[category].copy()
            masks[category][index] ^= True
            return masks

        altering_masks(monkeypatch, corrupted)
        with pytest.raises(CensusMismatchError) as caught:
            run_census(ring)
        if category == "nilpotent":
            # the scan's defect tests read the same mask, so an earlier
            # element's scanned Hirano set gains a second member
            assert str(caught.value) == (
                "equation scan in M2(Z/2) found the Hirano inverses [0, 6] of "
                "[[0,1],[1,0]], not exactly the constructed one"
            )
        else:
            assert category in str(caught.value)
            assert str(ring.element_at(index)) in str(caught.value)

    @pytest.mark.parametrize(
        "ring", [modular(999_983), modular(1_000_000), matrix(modular(31), 2),
                 matrix(modular(4), 3), matrix(modular(2), 4),
                 # 2**20 elements, above RING_SIZE_CAP: a stack of exactly
                 # SCAN_MEMORY_BUDGET bytes is admitted
                 matrix(modular(32), 2)], ids=str
    )
    def test_scan_guard_admits_rings_under_the_default_cap(self, ring):
        check_scan_fits(ring)

    def test_scan_guard_refuses_oversized_stack(self):
        with pytest.raises(PreconditionError, match="MiB"):
            check_scan_fits(modular(10**8))
        with pytest.raises(PreconditionError, match="MiB"):
            check_scan_fits(matrix(modular(2), 5))

    def test_scan_guard_refuses_int64_overflow(self):
        with pytest.raises(PreconditionError, match="int64"):
            check_scan_fits(modular(10**10))
        with pytest.raises(PreconditionError, match="int64"):
            check_scan_fits(matrix(modular(2**31 + 11), 2))

    def test_scan_guard_bounds_the_unreduced_row_product(self):
        # b(ab) with ab unreduced reaches d^2 (m-1)^3: 2^21 fits int64 and
        # 2^21 + 1 does not, though both stacks fit the memory budget
        for m in (2**21, 2**21 + 1):
            assert _scan._WORKING_COPIES * m * 8 <= _scan.SCAN_MEMORY_BUDGET
        check_scan_fits(modular(2**21))
        with pytest.raises(PreconditionError, match="int64") as refused:
            check_scan_fits(modular(2**21 + 1))
        assert "MiB" not in str(refused.value)

    def test_int64_limit_is_numpys(self):
        assert _scan._INT64_MAX == int(np.iinfo(np.int64).max)

    def test_scan_guard_runs_before_census_and_law_oracle(self, monkeypatch):
        monkeypatch.setattr(_scan, "SCAN_MEMORY_BUDGET", 64)
        with pytest.raises(PreconditionError, match="MiB"):
            run_census(modular(9))
        with pytest.raises(PreconditionError, match="MiB"):
            _LawContext(modular(9)).scan


COMPOSITE_RINGS = [
    modular(6), modular(360), modular(5040), matrix(modular(12), 1),
    matrix(modular(6), 2), matrix(modular(10), 2), matrix(modular(12), 2),
]


class TestComponentMasks:
    """A composite modulus builds its masks from its prime-power components;
    whole_stack_masks, the powers of the whole stack at the full modulus, is
    the oracle."""

    def test_masks_match_the_whole_stack_oracle(self):
        start = time.perf_counter()
        for ring in COMPOSITE_RINGS:
            want = whole_stack_masks(ring)
            got = RingScan(ring).masks
            assert list(got) == list(want)
            for key in want:
                assert np.array_equal(got[key], want[key]), (ring, key)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize(
        "ring, q, category, index",
        [(modular(360), 9, "unit", 2), (modular(360), 5, "tripotent", 2),
         (matrix(modular(6), 2), 3, "hirano", 40), (matrix(modular(6), 2), 2, "idempotent", 6)],
        ids=["Z/360 unit", "Z/360 tripotent", "M2(Z/6) hirano", "M2(Z/6) idempotent"],
    )
    def test_corrupted_component_mask_is_caught(self, ring, q, category, index, monkeypatch):
        """A component mask flipped at one index flips the whole-ring mask
        at each element with that component code whose other components
        hold the class; the cross-check names the first of them."""
        components = [RingSpec(p**e, ring.dim) for p, e in factorize(ring.modulus).pairs]
        stack = RingScan(ring).stack
        codes = {part.modulus: RingScan(part).codes(stack % part.modulus) for part in components}
        others = np.ones(ring.size(), dtype=bool)
        for part in components:
            if part.modulus != q:
                others &= whole_stack_masks(part)[category][codes[part.modulus]]
        lifted = int(np.flatnonzero(others & (codes[q] == index))[0])

        def corrupted(scan, masks):
            if scan.modulus == q:
                masks[category] = masks[category].copy()
                masks[category][index] ^= True
            return masks

        altering_masks(monkeypatch, corrupted)
        with pytest.raises(CensusMismatchError, match=category) as caught:
            run_census(ring)
        assert f"at element {ring.element_at(lifted)}:" in str(caught.value)


# every composite ring above, and every composite ring of the census golden file
COMPONENT_SCAN_RINGS = list({
    str(ring): ring
    for ring in COMPOSITE_RINGS + GOLDEN_CENSUS_RINGS
    if len(factorize(ring.modulus).pairs) > 1
}.values())


class TestComponentScans:
    """A composite modulus lifts its inverse sets from its prime-power
    components; filtered_inverse_scans, the whole-ring filter at the full
    modulus, is the oracle."""

    @pytest.mark.parametrize("ring", COMPONENT_SCAN_RINGS, ids=str)
    def test_lifted_sets_match_the_filter(self, ring):
        """Every element of a ring of at most 10^4 elements, and 200
        seeded ones above that."""
        size = ring.size()
        indexes = range(size)
        if size > 10**4:
            indexes = sorted(random.Random(0).sample(indexes, 200))
        scan = RingScan(ring)
        expected = filtered_inverse_scans(scan, indexes)
        lifted = scan.inverse_scans(indexes)
        for index, found, (_, want) in zip(indexes, lifted, expected, strict=True):
            assert found == want, index

    @pytest.mark.parametrize(
        "ring, q, index, key, message",
        [
            (matrix(modular(6), 2), 3, 40, "hirano",
             "hirano mask says True, criterion says True, equation scan says False"),
            (modular(360), 8, 3, "drazin", "found 0 Drazin inverses"),
        ],
        ids=["M2(Z/6) hirano", "Z/360 drazin"],
    )
    def test_corrupted_component_set_is_caught(self, ring, q, index, key, message, monkeypatch):
        """The scan of the component Mk(Z/q) loses the inverses of one
        key for the element at index.  Each element of the ring with that
        component code that has such an inverse loses it too, and the census
        names the first of them."""
        inverse_scans = RingScan.inverse_scans

        def corrupted(scan, indexes):
            found = inverse_scans(scan, indexes)
            if scan.modulus == q:
                for i, one in zip(indexes, found):
                    if i == index:
                        one[key] = []
            return found

        has = whole_stack_masks(ring)["hirano"] if key == "hirano" else np.ones(ring.size(), bool)
        codes = RingScan(RingSpec(q, ring.dim)).codes(RingScan(ring).stack % q)
        lifted = ring.element_at(int(np.flatnonzero(has & (codes == index))[0]))
        monkeypatch.setattr(RingScan, "inverse_scans", corrupted)
        with pytest.raises(CensusMismatchError, match=re.escape(message)) as caught:
            run_census(ring)
        assert re.search(rf"(of|at element) {re.escape(str(lifted))}[ ,:]", str(caught.value))


class TestTripotentSplits:
    @pytest.mark.parametrize("ring", SPLIT_RINGS, ids=str)
    def test_tripotent_indexes_match_the_walk(self, ring):
        # the is_tripotent walk over the whole ring is the oracle for the mask
        walk = [i for i, p in enumerate(ring.elements()) if is_tripotent(p)]
        assert RingScan(ring).masks["tripotent"].nonzero()[0].tolist() == walk

    @pytest.mark.parametrize("ring", SPLIT_RINGS, ids=str)
    def test_split_mask_matches_the_walk_and_the_criterion(self, ring):
        split = RingScan(ring).split_mask.tolist()
        assert split == walk_split(ring)
        assert split == [has_hirano(a) for a in ring.elements()]

    @staticmethod
    def z12_unsplit(split4, split3):
        """Law 3.6's detail on Z/12 = Z/4 x Z/3 (every element Hirano) when
        its components split as the walks split4 and split3 say: the first
        element with a component that does not split."""
        first = next(a for a in range(12) if not (split4[a % 4] and split3[a % 3]))
        return (
            "every-element-Hirano is True but every-element-splits is False; "
            f"first element without a split: {first}"
        )

    def test_idempotents_alone_leave_elements_unsplit(self, monkeypatch):
        """Z/3's tripotent mask cut to its idempotents: -1 of Z/3 no longer
        splits, nor does any element of Z/12 with that component."""
        z3 = modular(3)
        idempotents = np.array([is_idempotent(p) for p in z3.elements()])

        def cut(scan, masks):
            if scan.modulus == 3:
                masks["tripotent"] = idempotents
            return masks

        altering_masks(monkeypatch, cut)
        report = verify_theorem("3.6", modular(12))
        detail = self.z12_unsplit(walk_split(modular(4)), walk_split(z3, is_idempotent))
        assert [(v.inputs, v.detail) for v in report.violations] == [((), detail)]

    def test_missing_nilpotent_is_caught(self, monkeypatch):
        """Z/4's nilpotent mask without 2: 2 of Z/4 no longer splits, nor
        does any element of Z/12 with that component."""
        def without_two(scan, masks):
            if scan.modulus == 4:
                masks["nilpotent"] = masks["nilpotent"].copy()
                masks["nilpotent"][2] = False
            return masks

        altering_masks(monkeypatch, without_two)
        report = verify_theorem("3.6", modular(12))
        z4 = modular(4)
        split4 = walk_split(z4, nilpotent=lambda w: w == z4.zero())
        detail = self.z12_unsplit(split4, walk_split(modular(3)))
        assert [(v.inputs, v.detail) for v in report.violations] == [((), detail)]

    def test_multiplications_are_bounded(self, monkeypatch):
        ring = matrix(modular(7), 2)
        calls = counting_products(monkeypatch)
        report = verify_theorem("3.6", ring)
        monkeypatch.undo()
        assert report.ok
        assert calls[0] <= 8 * ring.size()


class TestCensusWitnesses:
    def test_mod3_has_only_the_hirano_gap(self):
        report = run_census(modular(3))
        assert len(report.witnesses) == 1
        witness = report.witnesses[0]
        assert witness.element == "2"
        assert witness.index == 2
        assert "Hirano" in witness.reason and "strongly Drazin" in witness.reason

    def test_mod2_matrices_have_only_the_drazin_gap(self):
        report = run_census(matrix(modular(2), 2))
        assert len(report.witnesses) == 1
        witness = report.witnesses[0]
        assert witness.element == "[[0,1],[1,1]]"
        assert "Drazin" in witness.reason and "Hirano" in witness.reason

    def test_mod3_matrices_have_both_gaps(self):
        report = run_census(matrix(modular(3), 2))
        assert len(report.witnesses) == 2


class TestCensusMechanics:
    def test_json_shape(self):
        payload = json.loads(run_census(modular(3)).to_json())
        assert set(payload) == {
            "ring",
            "counts",
            "witnesses",
            "is_strongly_2_nil_clean",
            "cross_check",
        }
        assert payload["ring"] == "Z/3"
        assert payload["cross_check"]["strategy"] == "exhaustive"
        assert payload["cross_check"]["seed"] is None
        assert payload["cross_check"]["checked"] == 3

    def test_infinite_ring_rejected(self):
        with pytest.raises(InfiniteRingError):
            run_census(Z)

    def test_oversized_ring_rejected(self, monkeypatch):
        monkeypatch.setattr(RingScan, "__init__", unreachable)
        with pytest.raises(PreconditionError) as refused:
            run_census(matrix(modular(7), 3))
        assert str(refused.value) == "M3(Z/7) has 40353607 elements, above the cap 1000000"

    def test_sample_count_is_bounded_before_any_scan(self, monkeypatch):
        monkeypatch.setattr(RingScan, "__init__", unreachable)
        with pytest.raises(PreconditionError) as refused:
            run_census(modular(20000), samples=10_001)
        assert str(refused.value) == "samples must be at most 10000, got 10001"

    def test_sampled_cross_check_above_cap(self):
        ring = matrix(modular(11), 2)  # 14641 elements > exhaustive cap
        report = run_census(ring, seed=3, samples=20)
        assert report.cross_check.strategy == "sampled"
        assert report.cross_check.seed == 3
        assert report.cross_check.checked == 20
        again = run_census(ring, seed=3, samples=20)
        assert report.to_json() == again.to_json()


class TestPowerFormulaCodes:
    """RingScan.drazin_codes against the per-element power formula it
    replaced in the census, drazin_finite, kept as the oracle."""

    @pytest.mark.parametrize("ring", GOLDEN_CENSUS_RINGS, ids=str)
    def test_codes_match_drazin_finite(self, ring):
        codes = RingScan(ring).drazin_codes(range(ring.size()))
        indexes = range(ring.size())
        if ring.size() > census.EXHAUSTIVE_SCAN_CAP:
            indexes = random.Random(0).sample(indexes, POWER_FORMULA_SAMPLES)
        for i in indexes:
            assert codes[i] == ring.index_of(gen_inverse.drazin_finite(ring.element_at(i)).b)

    @pytest.mark.parametrize("chunk", [census.SCAN_CHUNK, 1], ids=["batched", "chunks of one"])
    def test_corrupted_code_is_caught(self, chunk, monkeypatch):
        ring = matrix(modular(3), 2)
        index = 40
        drazin_codes = RingScan.drazin_codes

        def corrupted(scan, indexes):
            codes = drazin_codes(scan, indexes)
            if index in indexes:
                codes[list(indexes).index(index)] += 1
            return codes

        monkeypatch.setattr(RingScan, "drazin_codes", corrupted)
        monkeypatch.setattr(census, "SCAN_CHUNK", chunk)
        with pytest.raises(CensusMismatchError, match="power-formula") as caught:
            run_census(ring)
        assert f"Drazin inverse of {ring.element_at(index)} in" in str(caught.value)

    def test_lifted_inverse_other_than_the_scanned_drazin_is_caught(self, monkeypatch):
        # the scan and the lift agree on another Hirano inverse of a = 1
        ring = matrix(modular(3), 2)
        one, other = ring.index_of(ring.one()), 5
        inverse_scans = RingScan.inverse_scans
        lift = census._hirano_and_strongly_drazin

        def other_candidate(scan, indexes):
            found = inverse_scans(scan, indexes)
            if one in indexes:
                found[list(indexes).index(one)]["hirano"] = [other]
            return found

        def other_inverse(a):
            hir, sd = lift(a)
            if a == ring.one():
                hir = dataclasses.replace(hir, b=ring.element_at(other))
            return hir, sd

        monkeypatch.setattr(RingScan, "inverse_scans", other_candidate)
        monkeypatch.setattr(census, "_hirano_and_strongly_drazin", other_inverse)
        with pytest.raises(CensusMismatchError, match="uniqueness failure") as caught:
            run_census(ring)
        assert f"inverses of {ring.one()} disagree" in str(caught.value)

    @pytest.mark.parametrize(
        "keys, name",
        [(("hirano", "strongly_drazin"), "Hirano"), (("strongly_drazin",), "strongly Drazin")],
        ids=["both", "strongly Drazin"],
    )
    @pytest.mark.parametrize("ring", [modular(9), matrix(modular(3), 2)], ids=str)
    def test_second_scanned_candidate_is_caught(self, ring, keys, name, monkeypatch):
        """A Hirano or strongly Drazin inverse is unique, so a scanned set
        with two members fails the census, though it holds the constructed
        inverse; the zero element, first in index order, fails first."""
        inverse_scans = RingScan.inverse_scans

        def second_candidate(scan, indexes):
            found = inverse_scans(scan, indexes)
            for one in found:
                for key in keys:
                    if one[key]:
                        one[key].append((one[key][0] + 1) % scan.size)
            return found

        monkeypatch.setattr(RingScan, "inverse_scans", second_candidate)
        with pytest.raises(CensusMismatchError) as caught:
            run_census(ring)
        assert str(caught.value) == (
            f"equation scan in {ring} found the {name} inverses [0, 1] of {ring.zero()}, "
            "not exactly the constructed one"
        )

    def test_census_runs_no_per_element_power(self, monkeypatch):
        drazin = counting_calls(monkeypatch, [gen_inverse, census], "drazin_finite")
        classified = counting_calls(monkeypatch, [gen_inverse], "classify")
        run_census(matrix(modular(3), 2))
        assert drazin == [0] and classified == [0]
        assert not hasattr(census, "classify")


class TestScanVerdicts:
    """census._scan_verdicts, a chunk's four scan verdicts from one stack
    product, against element_verdicts, the Element arithmetic that the
    census ran per element before, kept as the oracle."""

    @pytest.mark.parametrize(
        "ring",
        [matrix(modular(4), 2), matrix(modular(6), 2), matrix(modular(2), 3), modular(360)],
        ids=str,
    )
    def test_chunk_verdicts_match_element_arithmetic(self, ring):
        scan = RingScan(ring)
        seen = set()
        for start in range(0, ring.size(), census.SCAN_CHUNK):
            chunk = range(start, min(start + census.SCAN_CHUNK, ring.size()))
            scanned = scan.inverse_scans(chunk)
            verdicts = census._scan_verdicts(scan, chunk, scanned)
            for index, found, got in zip(chunk, scanned, verdicts, strict=True):
                assert got == element_verdicts(ring, index, found["drazin"][0]), index
                seen.add(got)
        # every verdict is met and missed somewhere in the ring
        assert all(len({row[i] for row in seen}) == 2 for i in range(4))

    @pytest.mark.parametrize("chunk", [census.SCAN_CHUNK, 1], ids=["batched", "chunks of one"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (
                {65: [0]},
                "three-path mismatch in M2(Z/4) at element [[1,0],[0,1]]: nilpotent mask "
                "says False, criterion says False, equation scan says True",
            ),
            (
                {25: [25]},
                "three-path mismatch in M2(Z/4) at element [[0,1],[2,1]]: tripotent mask "
                "says False, criterion says False, equation scan says True",
            ),
            (
                {25: [1]},
                "uniqueness failure in M2(Z/4): the Hirano and Drazin inverses of "
                "[[0,1],[2,1]] disagree",
            ),
            (
                {25: [], 65: [0]},
                "equation scan in M2(Z/4) found 0 Drazin inverses of [[0,1],[2,1]], "
                "not exactly one",
            ),
        ],
        ids=["zero", "itself", "other", "none"],
    )
    def test_corrupted_drazin_inverse_is_caught(self, corrupt, message, chunk, monkeypatch):
        """The scanned unique Drazin inverse replaced at some indexes: the
        census fails at the first of them with the message the per-element
        verdicts gave, whatever the chunk."""
        ring = matrix(modular(4), 2)
        inverse_scans = RingScan.inverse_scans

        def corrupted(scan, indexes):
            found = inverse_scans(scan, indexes)
            for position, index in enumerate(indexes):
                if index in corrupt:
                    found[position]["drazin"] = corrupt[index]
            return found

        monkeypatch.setattr(RingScan, "inverse_scans", corrupted)
        monkeypatch.setattr(census, "SCAN_CHUNK", chunk)
        with pytest.raises(CensusMismatchError) as caught:
            run_census(ring)
        assert str(caught.value) == message


class TestVerifyTheorem:
    def test_registry_contents(self):
        assert set(LAWS) == {
            "2.1",
            "2.2",
            "2.4",
            "3.1",
            "3.2",
            "3.3",
            "3.4",
            "3.6",
            "4.1",
            "4.2",
            "4.3",
            "4.4",
            "4.5",
            "5.1",
            "5.2",
            "5.4",
            "5.5",
        }

    def test_unknown_law_rejected(self):
        with pytest.raises(PreconditionError):
            verify_theorem("9.9", modular(9))

    @pytest.mark.parametrize("law_id", ["3.3", "3.4"])
    @pytest.mark.parametrize("ring", [modular(4), matrix(modular(4), 2)], ids=str)
    def test_split_laws_hold_where_2_is_not_a_unit(self, law_id, ring):
        report = verify_theorem(law_id, ring)
        assert report.strategy == "exhaustive"
        assert report.ok and report.checked > 0

    @pytest.mark.parametrize("law_id,ring_name,instances,checked", BATTERY)
    def test_exhaustive_battery(self, law_id, ring_name, instances, checked):
        report = verify_theorem(law_id, RINGS[ring_name])
        assert report.ok, report.violations
        assert report.strategy == "exhaustive"
        assert report.seed is None
        assert report.instances == instances
        assert report.checked == checked
        assert len(report.violations) == 0

    def test_sampled_strategy_is_reproducible(self):
        ring = matrix(modular(5), 2)  # 625 ** 3 triples, above the exhaustive cap
        first = verify_theorem("4.1", ring, seed=7, samples=500)
        second = verify_theorem("4.1", ring, seed=7, samples=500)
        assert first.strategy == "sampled"
        assert first.seed == 7
        assert first.instances == 500
        assert first.ok
        assert (first.checked, first.violations) == (second.checked, second.violations)

    def test_seed_changes_the_sample(self):
        ring = matrix(modular(5), 2)
        first = verify_theorem("4.1", ring, seed=7, samples=500)
        third = verify_theorem("4.1", ring, seed=8, samples=500)
        assert first.strategy == third.strategy == "sampled"
        assert first.checked == 32 and third.checked == 22
        assert first.ok and third.ok

    def test_failed_construction_becomes_a_violation(self, hirano_fails_at_two):
        report = verify_theorem("2.1", modular(9))
        assert report.violations == (
            ViolationRecord(law="2.1", inputs=("2",), detail=HIRANO_FAILURE),
        )
        assert report.checked == 9

    def test_scan_criterion_disagreement_in_uniqueness_is_a_violation(self, monkeypatch):
        inverse_scans = RingScan.inverse_scans

        def extra_candidate_at_two(scan, indexes):
            found = inverse_scans(scan, indexes)
            for index, one in zip(indexes, found):
                if index == 2:
                    one["hirano"] = one["hirano"] + [3]
            return found

        monkeypatch.setattr(RingScan, "inverse_scans", extra_candidate_at_two)
        report = verify_theorem("2.2", modular(5))
        assert [(v.inputs, v.detail) for v in report.violations] == [
            (("2",), "criterion says False, equation scan found 1")
        ]

    def test_failed_inverse_of_inverse_keeps_its_detail(self, monkeypatch):
        real = census.hirano_of_hirano

        def failing_at_two(cert):
            if cert.a == modular(9).element(2):
                raise VerificationError("inverse-of-inverse formula disagreed with construction")
            return real(cert)

        monkeypatch.setattr(census, "hirano_of_hirano", failing_at_two)
        report = verify_theorem("3.2", modular(9))
        assert [(v.inputs, v.detail) for v in report.violations] == [
            (("2",), "inverse-of-inverse formula disagreed with construction")
        ]

    def test_inverse_without_hirano_inverse_is_a_violation(self, monkeypatch):
        ring = modular(5)
        real = census.hirano

        def forged_at_four(a):
            cert = real(a)
            return dataclasses.replace(cert, b=ring.element(2)) if a == ring.element(4) else cert

        monkeypatch.setattr(census, "hirano", forged_at_four)
        report = verify_theorem("3.2", ring)
        assert [(v.inputs, v.detail) for v in report.violations] == [
            (("4",), "a Hirano inverse must itself be Hirano invertible")
        ]
        assert report.checked == 3

    def test_auto_strategy_picks_exhaustive_for_small_rings(self):
        report = verify_theorem("4.1", modular(5))
        assert report.strategy == "exhaustive"
        assert report.instances == 125

    def test_auto_strategy_samples_large_products(self):
        ring = matrix(modular(5), 2)  # 625 elements; 625^3 pairs >> cap
        report = verify_theorem("5.1", ring, samples=200, seed=1)
        assert report.strategy == "sampled"
        assert report.instances == 200
        assert report.ok

    def test_report_json_shape(self):
        payload = json.loads(verify_theorem("2.1", modular(9)).to_json())
        assert set(payload) == {
            "theorem",
            "ring",
            "strategy",
            "seed",
            "instances",
            "checked",
            "violations",
            "notes",
        }
        assert payload["theorem"] == "2.1"
        assert payload["ring"] == "Z/9"
        assert payload["violations"] == []
        assert verify_theorem("2.1", modular(9)).to_json() == json.dumps(
            payload, sort_keys=True, indent=2
        )


def cline_terms(ring) -> set:
    """The products ac and ba of every triple of the ring with aba = aca."""
    terms = set()
    for a, b, c in itertools.product(ring.elements(), repeat=3):
        if a * b * a == a * c * a:
            terms.update((a * c, b * a))
    return terms


def jacobson_terms(ring) -> set:
    """The elements 1 + ac and 1 + ba of every triple of the ring with aba = aca."""
    one = ring.one()
    terms = set()
    for a, b, c in itertools.product(ring.elements(), repeat=3):
        if a * b * a == a * c * a:
            terms.update((one + a * c, one + b * a))
    return terms


def power_terms(ring) -> set:
    """The powers (ab)^k and (ba)^k, k = 1, 2, 3, of every pair of the ring."""
    terms = set()
    for a, b in itertools.product(ring.elements(), repeat=2):
        for k in (1, 2, 3):
            terms.update(((a * b) ** k, (b * a) ** k))
    return terms


def flipping(flipped):
    """has_hirano with the verdict of one element reversed."""

    def verdict(x):
        return has_hirano(x) != (x == flipped)

    return verdict


class TestFailureRule:
    """Whatever a conclusion raises is a violation of its instance; only a
    refused request, raised before the first instance, aborts a run."""

    # In the commutative Z/5 the verdict-comparing laws (4.3, 5.1, 5.2)
    # compare the flipped verdict with itself, 5.5 admits only a = b = 0 and
    # 3.6 has no element inputs; every other law asks for 2's inverse, its
    # split or its scan once its hypothesis admits 2.
    ASKS_FOR_TWO = {
        "2.1", "2.2", "2.4", "3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.4", "4.5", "5.4",
    }

    def test_flipped_criterion_aborts_no_law(self, monkeypatch):
        ring = modular(5)
        two = ring.element(2)
        monkeypatch.setattr(census, "has_hirano", flipping(two))
        reports = {law_id: verify_theorem(law_id, ring) for law_id in LAWS}
        with_two = {
            law_id
            for law_id, report in reports.items()
            if any("2" in v.inputs for v in report.violations)
        }
        assert with_two == self.ASKS_FOR_TWO
        assert reports["2.1"].violations == (
            ViolationRecord(
                law="2.1",
                inputs=("2",),
                detail=f"{two!r} has no Hirano inverse: a - a^3 is not nilpotent",
            ),
        )
        assert [v.detail for v in reports["3.3"].violations] == [
            f"{two!r} does not decompose: a - a^3 is not nilpotent"
        ]

    def test_square_route_records_a_failed_strongly_drazin_check(self, monkeypatch):
        ring = modular(5)
        one = ring.one()
        check = census.check_strongly_drazin
        monkeypatch.setattr(
            census,
            "check_strongly_drazin",
            lambda x, b: None if x == one else check(x, b),
        )
        report = verify_theorem("2.4", ring)
        assert [v.inputs for v in report.violations] == [("1",), ("4",)]
        assert {v.detail for v in report.violations} == {
            "the Hirano inverse of a^2 fails the strongly Drazin equations"
        }

    @pytest.mark.parametrize("law_id", ["2.2", "3.1", "3.6"])
    def test_scanning_law_is_refused_before_any_scan(self, law_id, monkeypatch):
        monkeypatch.setattr(RingScan, "__init__", unreachable)
        monkeypatch.setattr(census, "has_hirano", unreachable)
        with pytest.raises(PreconditionError) as refused:
            verify_theorem(law_id, M3Z4)
        assert str(refused.value) == M3Z4_OVERSIZED

    def test_scanning_law_refusal_needs_no_prefetch(self, monkeypatch):
        monkeypatch.setattr(census, "_prefetching", lambda ctx, space: space)
        with pytest.raises(PreconditionError) as refused:
            verify_theorem("2.2", M3Z4)
        assert str(refused.value) == M3Z4_OVERSIZED

    def test_every_hypothesis_answers_a_bool(self):
        ctx = _LawContext(M3Z4)
        first = list(itertools.islice(M3Z4.elements(), 4))
        for law in LAWS.values():
            for arity, hypothesis, _ in law.passes:
                if hypothesis is None:
                    continue
                for elems in itertools.product(first, repeat=arity):
                    assert type(hypothesis(ctx, *elems)) is bool, law.law_id

    def test_every_conclusion_returns_none(self, monkeypatch):
        """A conclusion reports a violation only by raising: on Z/27, where
        every law holds, each checked instance's conclusion returns None."""
        returned: dict[str, list] = {}

        def recording(law_id, conclusion):
            def recorded(ctx, *elems):
                value = conclusion(ctx, *elems)
                returned.setdefault(law_id, []).append(value)
                return value

            return recorded

        for law_id, law in list(LAWS.items()):
            passes = tuple(
                (arity, hypothesis, recording(law_id, conclusion))
                for arity, hypothesis, conclusion in law.passes
            )
            monkeypatch.setitem(LAWS, law_id, dataclasses.replace(law, passes=passes))
        for law_id in LAWS:
            assert verify_theorem(law_id, modular(27)).ok, law_id
        assert {law_id: set(map(repr, values)) for law_id, values in returned.items()} == {
            law_id: {"None"} for law_id in LAWS
        }

    def test_sample_count_is_bounded_before_any_draw(self, monkeypatch):
        cap = census.MAX_EXHAUSTIVE_INSTANCES
        assert verify_theorem("3.6", modular(9), samples=cap).ok
        monkeypatch.setattr(RingSpec, "element_at", None)
        with pytest.raises(PreconditionError, match=f"at most {cap}, got {cap + 1}"):
            verify_theorem("4.1", matrix(modular(7), 2), samples=cap + 1)


class TestLawMemo:
    """Each verify_theorem call decides an element's criteria and
    certificates once; nothing is remembered across calls or after a raise."""

    def test_context_is_freed_without_the_cycle_collector(self):
        """No memo holds its context: a cycle would keep each run's scan and
        memos alive until the collector ran."""
        ring = modular(27)
        ctx = _LawContext(ring)
        assert ctx.hirano(ring.element(1)) is not None
        ctx.scan  # fills the cached property
        freed = weakref.ref(ctx)
        gc.disable()
        try:
            del ctx
            assert freed() is None
        finally:
            gc.enable()

    def test_law_4_1_decides_each_product_once(self, monkeypatch):
        ring = modular(27)
        terms = cline_terms(ring)
        calls = counting_nilpotency_tests(monkeypatch)
        for x in terms:
            if has_hirano(x):
                hirano(x)
        deciding_once = calls[0]
        calls[0] = 0
        report = verify_theorem("4.1", ring)
        assert report.ok and report.checked == 4131
        # beyond deciding each product once, one test per checked instance:
        # cline's check of the transferred inverse
        assert calls[0] <= deciding_once + report.checked

    def test_memo_lives_for_one_call(self, monkeypatch):
        ring = modular(27)
        decided: list = []

        def recording(x):
            decided.append(x)
            return has_hirano(x)

        monkeypatch.setattr(census, "has_hirano", recording)
        first = verify_theorem("4.1", ring)
        in_first = list(decided)
        decided.clear()
        second = verify_theorem("4.1", ring)
        assert first == second
        assert decided == in_first
        assert len(decided) == len(set(decided)) == len(cline_terms(ring))

    def test_a_full_memo_is_cleared(self, monkeypatch):
        ring = modular(27)
        expected = verify_theorem("4.1", ring)
        bounded_memo = census._bounded_memo
        sizes: list[int] = []

        def recording_memo(decide):
            decided = bounded_memo(decide)

            def recording(x):
                value = decided(x)
                sizes.append(len(decided.memo))
                return value

            return recording

        monkeypatch.setattr(census, "LAW_MEMO_CAP", 8)
        monkeypatch.setattr(census, "_bounded_memo", recording_memo)
        assert verify_theorem("4.1", ring) == expected
        assert max(sizes) == 8 and sizes.count(1) > 2

    def test_failed_construction_is_recorded_on_every_instance(self, hirano_fails_at_two):
        ring = modular(9)
        two = ring.element(2)
        expected = [
            (str(a), str(b))
            for a, b in itertools.product(ring.elements(), repeat=2)
            if a * b == b * a and has_hirano(a) and has_hirano(b) and two in (a, b)
        ]
        report = verify_theorem("4.4", ring)
        assert len(expected) == 17
        assert [v.inputs for v in report.violations] == expected
        assert {v.detail for v in report.violations} == {HIRANO_FAILURE}
        assert report.checked == 81

    def test_flipped_verdict_is_reported_at_the_first_falsified_triple(self, monkeypatch):
        ring = modular(27)
        verdict = flipping(ring.element(3))
        falsified = []
        ranks = []
        for rank, (a, b, c) in enumerate(itertools.product(ring.elements(), repeat=3)):
            if a * b * a == a * c * a and verdict(a * c) != verdict(b * a):
                falsified.append(
                    census.ViolationRecord(
                        law="4.1",
                        inputs=(str(a), str(b), str(c)),
                        detail=f"existence biconditional fails: "
                        f"ac {verdict(a * c)}, ba {verdict(b * a)}",
                    )
                )
                ranks.append(rank)
        monkeypatch.setattr(census, "has_hirano", verdict)
        report = verify_theorem("4.1", ring)
        assert len(falsified) > census.MAX_VIOLATIONS
        assert report.violations == tuple(falsified[: census.MAX_VIOLATIONS])
        # every tuple up to the stopping one counts, met or missed
        assert report.instances == ranks[census.MAX_VIOLATIONS - 1] + 1

    @pytest.mark.parametrize(
        "law_id, terms", [("5.1", jacobson_terms), ("4.3", power_terms)]
    )
    def test_existence_law_decides_each_term_once(self, law_id, terms, monkeypatch):
        ring = modular(27)
        distinct = len(terms(ring))
        calls = counting_nilpotency_tests(monkeypatch)
        report = verify_theorem(law_id, ring)
        assert report.ok and report.strategy == "exhaustive"
        assert calls[0] <= distinct

    def test_flipped_verdict_falsifies_the_power_transfer(self, monkeypatch):
        ring = matrix(modular(2), 2)
        verdict = flipping(ring.element([[0, 1], [1, 0]]))
        falsified = []
        for a, b in itertools.product(ring.elements(), repeat=2):
            for k in (1, 2, 3):
                if verdict((a * b) ** k) and not verdict((b * a) ** k):
                    falsified.append(
                        census.ViolationRecord(
                            law="4.3",
                            inputs=(str(a), str(b)),
                            detail=f"power transfer violated at a = {a!r}, b = {b!r}, k = {k}",
                        )
                    )
                    break
        monkeypatch.setattr(census, "has_hirano", verdict)
        report = verify_theorem("4.3", ring)
        assert falsified
        assert report.violations == tuple(falsified[: census.MAX_VIOLATIONS])

    def test_flipped_verdict_falsifies_the_jacobson_pair(self, monkeypatch):
        ring = modular(27)
        one = ring.one()
        verdict = flipping(ring.element(4))
        falsified = [
            (
                rank,
                census.ViolationRecord(
                    law="5.1",
                    inputs=(str(a), str(b), str(c)),
                    detail=f"Jacobson biconditional violated at a = {a!r}, b = {b!r}, c = {c!r}",
                ),
            )
            for rank, (a, b, c) in enumerate(itertools.product(ring.elements(), repeat=3))
            if a * b * a == a * c * a and verdict(one + a * c) != verdict(one + b * a)
        ]
        monkeypatch.setattr(census, "has_hirano", verdict)
        report = verify_theorem("5.1", ring)
        assert len(falsified) > census.MAX_VIOLATIONS
        first = falsified[: census.MAX_VIOLATIONS]
        assert report.violations == tuple(record for _, record in first)
        assert report.instances == first[-1][0] + 1

    @pytest.mark.parametrize(
        "law_id, with_test, per_instance", [("4.2", 14_596, 3), ("5.2", 4_470, 4)]
    )
    def test_pair_pass_tests_no_hypothesis(self, law_id, with_test, per_instance, monkeypatch):
        """The pair forms run the triple conclusion with c = b and skip the
        triple hypothesis aba = aca, which always holds there.  Testing it
        made with_test products on Z/27, per_instance of them per pair."""
        ring = modular(27)
        calls = counting_products(monkeypatch)
        report = verify_theorem(law_id, ring)
        monkeypatch.undo()
        assert report.ok and report.strategy == "exhaustive"
        assert report.checked == report.instances == 729
        assert calls[0] <= with_test - per_instance * report.instances

    @pytest.mark.parametrize("law_id, products", [("4.1", 82_285), ("5.1", 26_340)])
    def test_triple_pass_tests_only_the_sandwich_fibres(self, law_id, products, monkeypatch):
        """The triples with aba = aca come from grouping each a's sandwiches
        axa, 2 products per pair; testing the hypothesis on all 27**3
        triples made 60 750 products more on Z/27."""
        ring = modular(27)
        calls = counting_products(monkeypatch)
        report = verify_theorem(law_id, ring)
        monkeypatch.undo()
        assert report.ok and report.strategy == "exhaustive"
        assert (report.instances, report.checked) == (19_683, 4_131)
        assert calls[0] <= products

    def test_law_3_2_decides_each_inverse_once(self, monkeypatch):
        """54 Hirano inverses are built (27 of a, 27 of the inverse), and each
        tests its w = a^2 - e once, in the lift (243 when the unipotent
        series tested w again)."""
        calls = counting_nilpotency_tests(monkeypatch)
        report = verify_theorem("3.2", modular(27))
        assert report.ok and report.strategy == "exhaustive" and report.checked == 27
        assert calls[0] == 189

    @pytest.mark.parametrize(
        "ring, lifts",
        [(modular(27), 27), (matrix(modular(3), 2), 63), (matrix(modular(5), 2), 165)],
        ids=str,
    )
    def test_law_2_4_lifts_each_element_once(self, ring, lifts, monkeypatch):
        """The strongly Drazin inverse of a^2 is checked from the Hirano
        memo: one lift per distinct a and a^2 the law decides."""
        calls = counting_calls(monkeypatch, [gen_inverse], "lift_idempotent")
        report = verify_theorem("2.4", ring)
        assert report.ok and report.strategy == "exhaustive"
        assert calls[0] == lifts

    @pytest.mark.parametrize(
        "law_id, ring, tests",
        [
            ("3.3", modular(27), 243),
            ("3.4", modular(27), 243),
            ("3.3", modular(12), 180),
            ("3.4", modular(12), 108),
            ("3.3", matrix(modular(2), 2), 240),
            ("3.4", matrix(modular(2), 2), 130),
        ],
        ids=["3.3", "3.4", "3.3-Z/12", "3.4-Z/12", "3.3-M2(Z/2)", "3.4-M2(Z/2)"],
    )
    def test_tripotent_split_tests_no_criterion_again(self, law_id, ring, tests, monkeypatch):
        """tripotent_decomposition's two idempotent lifts decide existence,
        with or without 1/2 (Z/27, or the 2-parts of Z/12 and M2(Z/2));
        has_hirano is tested once, by the hypothesis."""
        calls = counting_nilpotency_tests(monkeypatch)
        criterion = counting_calls(monkeypatch, [gen_inverse], "has_hirano")
        report = verify_theorem(law_id, ring)
        assert report.ok and report.strategy == "exhaustive"
        assert (calls[0], criterion[0]) == (tests, 0)

    def test_hypothesis_runs_once_and_gates_the_conclusion(self, monkeypatch):
        ring = matrix(modular(2), 2)
        law = LAWS["4.4"]
        ((arity, hypothesis, conclusion),) = law.passes
        tested: list = []
        concluded: list = []

        def recording_hypothesis(ctx, a, b):
            tested.append((a, b))
            return hypothesis(ctx, a, b)

        def recording_conclusion(ctx, a, b):
            concluded.append((a, b))
            return conclusion(ctx, a, b)

        monkeypatch.setitem(
            census.LAWS,
            "4.4",
            dataclasses.replace(
                law, passes=((arity, recording_hypothesis, recording_conclusion),)
            ),
        )
        report = verify_theorem("4.4", ring)
        pairs = list(itertools.product(ring.elements(), repeat=2))
        assert tested == pairs
        assert concluded == [
            (a, b)
            for a, b in pairs
            if a * b == b * a and has_hirano(a) and has_hirano(b)
        ]
        assert report.ok and report.checked == len(concluded) < len(pairs)


class TestExhaustiveStreaming:
    @pytest.mark.parametrize(
        "law_id, ahead",
        [("2.1", 1), ("2.4", 1), ("4.5", 1), ("3.1", census.SCAN_CHUNK)],
    )
    def test_arity_one_pass_draws_no_further_than_its_instance(
        self, law_id, ahead, monkeypatch
    ):
        """An exhaustive arity-1 pass draws the ring one element at a time (a
        chunk at a time for the scanning laws), in enumeration order."""
        ring = matrix(modular(5), 2)
        elements = RingSpec.elements
        drawn = 0
        leads: list[int] = []
        visited: list[int] = []

        def counting_elements(self):
            nonlocal drawn
            for a in elements(self):
                drawn += 1
                yield a

        law = LAWS[law_id]
        (arity, hypothesis, conclusion), = law.passes

        def recording(ctx, a):
            visited.append(ring.index_of(a))
            leads.append(drawn - len(visited))
            return hypothesis is None or hypothesis(ctx, a)

        monkeypatch.setattr(RingSpec, "elements", counting_elements)
        monkeypatch.setitem(
            census.LAWS,
            law_id,
            dataclasses.replace(law, passes=((arity, recording, conclusion),)),
        )
        report = verify_theorem(law_id, ring)
        assert report.ok and report.strategy == "exhaustive"
        assert report.instances == ring.size() == drawn
        assert visited == list(range(ring.size()))
        assert max(leads) <= ahead


class TestSandwichFibres:
    """Exhaustive laws 4.1 and 5.1 walk only the triples in the fibres of
    aba = aca; the filter loop over every triple is their oracle."""

    @pytest.mark.parametrize("law_id", ["4.1", "5.1"])
    @pytest.mark.parametrize("ring", SMALL_MODULAR + [matrix(modular(2), 2)], ids=str)
    def test_checks_exactly_the_filtered_triples(self, law_id, ring, monkeypatch):
        law = LAWS[law_id]
        ((arity, hypothesis, _),) = law.passes
        concluded: list = []

        def recording(ctx, a, b, c):
            concluded.append((a, b, c))
            return True

        monkeypatch.setitem(
            census.LAWS,
            law_id,
            dataclasses.replace(law, passes=((arity, hypothesis, recording),)),
        )
        report = verify_theorem(law_id, ring)
        admitted = [
            triple
            for triple in itertools.product(ring.elements(), repeat=3)
            if census._aba_is_aca(None, *triple)
        ]
        assert concluded == admitted
        assert (report.instances, report.checked) == (ring.size() ** 3, len(admitted))

    def test_a_dropped_fibre_member_changes_the_checked_count(self, monkeypatch):
        """(3, 0, 3) meets aba = aca in Z/9 (3*3*3 = 0); without it the
        battery's 297 checked triples of law 4.1 fall to 296."""
        ring = modular(9)
        fibres = census._aba_is_aca.candidates
        dropped = (3 * 9 + 0) * 9 + 3

        def dropping(elements):
            return ((rank, t) for rank, t in fibres(elements) if rank != dropped)

        monkeypatch.setattr(census._aba_is_aca, "candidates", dropping)
        report = verify_theorem("4.1", ring)
        assert (report.instances, report.checked) == (729, 296)
