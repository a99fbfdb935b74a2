"""The seeded inputs: deterministic, valid, covered by the reference, and
declared consistently in BENCHMARK.json."""

import json
import re
from collections import Counter

import pytest

import run
import tracing
import workloads
from ringinv import has_hirano, parse_element, parse_ring
from ringinv.census import LAWS


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_requests_are_deterministic_per_seed(reference):
    first = workloads.classify_requests(7, reference["costs"])
    assert first == workloads.classify_requests(7, reference["costs"])
    assert first != workloads.classify_requests(8, reference["costs"])
    mix = Counter((op.kind, op.args[0]) for op in first)
    assert mix == {(kind, ring): count for kind, ring, count in workloads.CLASSIFY_MIX}
    assert len(set(first)) == len(first) >= 1000


def test_pool_requests_are_valid():
    for (kind, ring_text), ops in workloads.request_pool().items():
        ring = parse_ring(ring_text)
        for op in ops:
            a = parse_element(ring, op.args[1])
            assert str(a) == op.args[1], op.key
            if kind == "decompose":
                assert has_hirano(a), op.key


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_operation_has_a_reference(reference, workload):
    for seed in range(12):
        steps = workloads.build(workload, seed, reference)
        assert steps == workloads.build(workload, seed, reference)
        assert all(op.key in reference["outputs"] for step in steps for op in step)


def test_law_ids_are_the_registry():
    assert sorted(workloads.LAW_IDS) == sorted(LAWS)


def test_benchmark_json_declares_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(workloads.WORKLOADS.items())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        tracing.per_layer_spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in doc[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
