from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from ringinv import (
    LAWS,
    CensusMismatchError,
    Element,
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
    run_census,
    verify_theorem,
)
from ringinv import _scan, census, gen_inverse
from ringinv._scan import RingScan, check_scan_fits
from ringinv.census import _LawContext

from conftest import HIRANO_FAILURE, SMALL_RINGS, counting_calls, counting_nilpotency_tests

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
Z12_UNSPLIT = (
    "every-element-Hirano is True but every-element-splits is False; "
    "first element without a split: 2"
)


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


def walk_split(ring):
    """Whether each element is p + w, p tripotent, w nilpotent, ap = pa.

    This is the per-element search law 3.6 ran before its pair scan, kept as
    an independent oracle for RingScan.tripotent_split_mask.  The old law
    tried every tripotent p against a; here the inner loop runs over the
    nilpotents w and looks p = a - w up among the tripotents, which asks the
    same question (aw = wa iff ap = pa) in a fraction of the pairs.
    """
    tripotents = {p for p in ring.elements() if is_tripotent(p)}
    nilpotents = [w for w in ring.elements() if is_nilpotent(w) is not None]
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
        mask = RingScan(ring).census_masks()["unit"]
        assert mask.tolist() == [is_unit(a) for a in ring.elements()]

    def test_unit_mask_matches_is_unit_in_dimension_four(self):
        ring = matrix(modular(2), 4)
        mask = RingScan(ring).census_masks()["unit"]
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
        census_masks = RingScan.census_masks

        def corrupted(scan):
            masks = census_masks(scan)
            masks[category] = masks[category].copy()
            masks[category][index] ^= True
            return masks

        monkeypatch.setattr(RingScan, "census_masks", corrupted)
        with pytest.raises(CensusMismatchError, match=category) as caught:
            run_census(ring)
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

    def test_scan_guard_runs_before_census_and_law_oracle(self, monkeypatch):
        monkeypatch.setattr(_scan, "SCAN_MEMORY_BUDGET", 64)
        with pytest.raises(PreconditionError, match="MiB"):
            run_census(modular(9))
        with pytest.raises(PreconditionError, match="MiB"):
            _LawContext(modular(9)).scan


class TestTripotentSplits:
    @pytest.mark.parametrize("ring", SPLIT_RINGS, ids=str)
    def test_tripotent_indexes_match_the_walk(self, ring):
        # the is_tripotent walk over the whole ring is the oracle for the mask
        walk = [i for i, p in enumerate(ring.elements()) if is_tripotent(p)]
        assert _LawContext(ring).tripotents == walk

    @pytest.mark.parametrize("ring", SPLIT_RINGS, ids=str)
    def test_split_mask_matches_the_walk_and_the_criterion(self, ring):
        ctx = _LawContext(ring)
        split = ctx.scan.tripotent_split_mask(ctx.tripotents).tolist()
        assert split == walk_split(ring)
        assert split == [has_hirano(a) for a in ring.elements()]

    def test_idempotents_alone_leave_elements_unsplit(self, monkeypatch):
        idempotents = property(
            lambda ctx: [i for i, p in enumerate(ctx.ring.elements()) if is_idempotent(p)]
        )
        monkeypatch.setattr(_LawContext, "tripotents", idempotents)
        report = verify_theorem("3.6", modular(12))
        assert [(v.inputs, v.detail) for v in report.violations] == [((), Z12_UNSPLIT)]

    def test_missing_nilpotent_is_caught(self, monkeypatch):
        nilpotent_mask = RingScan.nilpotent_mask

        def without_six(scan):
            mask = nilpotent_mask(scan).copy()
            mask[6] = False
            return mask

        monkeypatch.setattr(RingScan, "nilpotent_mask", without_six)
        report = verify_theorem("3.6", modular(12))
        assert [(v.inputs, v.detail) for v in report.violations] == [((), Z12_UNSPLIT)]

    def test_multiplications_are_bounded(self, monkeypatch):
        ring = matrix(modular(7), 2)
        calls = 0
        mul = Element.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(Element, "__mul__", counting_mul)
        report = verify_theorem("3.6", ring)
        monkeypatch.undo()
        assert report.ok
        assert calls <= 8 * ring.size()


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

    def test_oversized_ring_rejected(self):
        with pytest.raises(PreconditionError):
            run_census(matrix(modular(7), 3), max_ring_size=10_000)

    def test_sampled_cross_check_above_cap(self):
        ring = matrix(modular(11), 2)  # 14641 elements > exhaustive cap
        report = run_census(ring, seed=3, samples=20)
        assert report.cross_check.strategy == "sampled"
        assert report.cross_check.seed == 3
        assert report.cross_check.checked == 20
        again = run_census(ring, seed=3, samples=20)
        assert report.to_json() == again.to_json()


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
    def test_half_requiring_laws_reject_even_characteristic(self, law_id):
        with pytest.raises(PreconditionError):
            verify_theorem(law_id, modular(4))
        with pytest.raises(PreconditionError):
            verify_theorem(law_id, matrix(modular(2), 2))

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
        ring = matrix(modular(3), 2)
        first = verify_theorem("4.1", ring, strategy="sampled", seed=7, samples=500)
        second = verify_theorem("4.1", ring, strategy="sampled", seed=7, samples=500)
        assert first.strategy == "sampled"
        assert first.seed == 7
        assert first.instances == 500
        assert first.ok
        assert (first.checked, first.violations) == (second.checked, second.violations)

    def test_seed_changes_the_sample(self):
        ring = matrix(modular(3), 2)
        first = verify_theorem("4.1", ring, strategy="sampled", seed=7, samples=500)
        third = verify_theorem("4.1", ring, strategy="sampled", seed=8, samples=500)
        assert first.checked == 87 and third.checked == 85
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


class TestLawMemo:
    """Each verify_theorem call decides an element's criteria and
    certificates once; nothing is remembered across calls or after a raise."""

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
        for a, b, c in itertools.product(ring.elements(), repeat=3):
            if a * b * a == a * c * a and verdict(a * c) != verdict(b * a):
                falsified.append(
                    census.ViolationRecord(
                        law="4.1",
                        inputs=(str(a), str(b), str(c)),
                        detail=f"existence biconditional fails: "
                        f"ac {verdict(a * c)}, ba {verdict(b * a)}",
                    )
                )
        monkeypatch.setattr(census, "has_hirano", verdict)
        report = verify_theorem("4.1", ring)
        assert len(falsified) > census.MAX_VIOLATIONS
        assert report.violations == tuple(falsified[: census.MAX_VIOLATIONS])

    @pytest.mark.parametrize(
        "law_id, terms", [("5.1", jacobson_terms), ("4.3", power_terms)]
    )
    def test_existence_law_decides_each_term_once(self, law_id, terms, monkeypatch):
        ring = modular(27)
        distinct = len(terms(ring))
        calls = counting_nilpotency_tests(monkeypatch)
        report = verify_theorem(law_id, ring, strategy="exhaustive")
        assert report.ok
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
            census.ViolationRecord(
                law="5.1",
                inputs=(str(a), str(b), str(c)),
                detail=f"Jacobson biconditional violated at a = {a!r}, b = {b!r}, c = {c!r}",
            )
            for a, b, c in itertools.product(ring.elements(), repeat=3)
            if a * b * a == a * c * a and verdict(one + a * c) != verdict(one + b * a)
        ]
        monkeypatch.setattr(census, "has_hirano", verdict)
        report = verify_theorem("5.1", ring)
        assert len(falsified) > census.MAX_VIOLATIONS
        assert report.violations == tuple(falsified[: census.MAX_VIOLATIONS])

    @pytest.mark.parametrize(
        "law_id, with_test, per_instance", [("4.2", 14_596, 3), ("5.2", 4_470, 4)]
    )
    def test_pair_pass_tests_no_hypothesis(self, law_id, with_test, per_instance, monkeypatch):
        """The pair forms run the triple conclusion with c = b and skip the
        triple hypothesis aba = aca, which always holds there.  Testing it
        made with_test products on Z/27, per_instance of them per pair."""
        ring = modular(27)
        calls = 0
        mul = Element.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(Element, "__mul__", counting_mul)
        report = verify_theorem(law_id, ring, strategy="exhaustive")
        monkeypatch.undo()
        assert report.ok and report.checked == report.instances == 729
        assert calls <= with_test - per_instance * report.instances

    def test_law_3_2_decides_each_inverse_once(self, monkeypatch):
        calls = counting_nilpotency_tests(monkeypatch)
        report = verify_theorem("3.2", modular(27), strategy="exhaustive")
        assert report.ok and report.checked == 27
        assert calls[0] == 243

    @pytest.mark.parametrize(
        "ring, lifts",
        [(modular(27), 27), (matrix(modular(3), 2), 63), (matrix(modular(5), 2), 165)],
        ids=str,
    )
    def test_law_2_4_lifts_each_element_once(self, ring, lifts, monkeypatch):
        """The strongly Drazin inverse of a^2 is checked from the Hirano
        memo: one lift per distinct a and a^2 the law decides."""
        calls = counting_calls(monkeypatch, [gen_inverse], "lift_idempotent")
        report = verify_theorem("2.4", ring, strategy="exhaustive")
        assert report.ok
        assert calls[0] == lifts

    @pytest.mark.parametrize("law_id", ["3.3", "3.4"])
    def test_tripotent_split_tests_no_criterion_again(self, law_id, monkeypatch):
        """2 is a unit in Z/27, so tripotent_decomposition's two idempotent
        lifts decide existence; has_hirano is tested once, by the hypothesis."""
        calls = counting_nilpotency_tests(monkeypatch)
        report = verify_theorem(law_id, modular(27), strategy="exhaustive")
        assert report.ok
        assert calls[0] == 243

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
        report = verify_theorem(law_id, ring, strategy="exhaustive")
        assert report.ok and report.instances == ring.size() == drawn
        assert visited == list(range(ring.size()))
        assert max(leads) <= ahead
