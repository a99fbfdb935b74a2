from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_showcase_runs():
    result = _run_script("showcase.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_verify_all_help():
    result = _run_script("verify_all.py", "--help")
    assert result.returncode == 0, result.stderr
    assert "--seed" in result.stdout


def test_verify_all_refuses_zero_samples():
    result = _run_script("verify_all.py", "--samples", "0")
    assert result.returncode != 0
    assert "samples must be at least 1" in result.stderr


def test_bench_pairs_help():
    result = _run_script("bench_pairs.py", "--help")
    assert result.returncode == 0, result.stderr
    for option in ("--workload", "--seed", "--pairs", "--seconds", "--out"):
        assert option in result.stdout


def test_census_phases_help():
    result = _run_script("census_phases.py", "--help")
    assert result.returncode == 0, result.stderr
    for text in ("CHECKOUT", "--repeats"):
        assert text in result.stdout


def test_census_phases_runs_the_census_steps():
    """phases() calls run_census's internals in its order, so it breaks when
    they change; time each phase of a scalar and a matrix ring."""
    script = _load_script("census_phases")
    for literal in ("Z/12", "M2(Z/2)"):
        took = script.phases(literal)
        assert list(took) == [
            "scan", "masks", "drazin_codes", "inverse_scans", "verdicts", "checks"
        ]
        assert all(seconds > 0 for seconds in took.values()), literal


def test_cold_cli_runs_every_call_once():
    result = _run_script("cold_cli.py", str(ROOT), "--rounds", "1")
    assert result.returncode == 0, result.stderr
    (checkout,) = json.loads(result.stdout)["checkouts"]
    script = _load_script("cold_cli")
    assert list(checkout["calls"]) == [" ".join(argv) for argv in script.CALLS]
    for call in checkout["calls"].values():
        assert 0 < call["min_s"] == call["median_s"] and call["peak_rss_mb"] > 0


def test_cli_battery_help():
    result = _run_script("cli_battery.py", "--help")
    assert result.returncode == 0, result.stderr
    for text in ("CHECKOUT", "sha256"):
        assert text in result.stdout


def _tuple_constants(path: Path, *names: str) -> dict[str, tuple]:
    """The literal tuples bound to ``names`` at the top of a Python file,
    read from its syntax tree, so the file is neither run nor changed."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(names)
    return found


def test_traced_methods_exist_on_their_classes():
    """perfbench's trace mode wraps each method through cls.__dict__[attr]:
    a renamed or deleted method would crash every traced run."""
    constants = _tuple_constants(
        ROOT / "perfbench" / "tracing.py", "SPANNED_METHODS", "COUNTED_METHODS"
    )
    entries = constants["SPANNED_METHODS"] + constants["COUNTED_METHODS"]
    assert entries
    for module_name, cls_name, attr, _ in entries:
        cls = getattr(importlib.import_module("ringinv." + module_name), cls_name)
        assert attr in vars(cls), (module_name, cls_name, attr)


def test_bench_pairs_summary_ratios_and_gate():
    """Ten synthetic pairs: a clear gain passes the gate; a loss, a gain
    within the parent's interquartile range, and 8 wins in 10 do not."""
    series = {
        # name: (parent values, change values)
        "work": ([100 + i for i in range(10)], [120 + i for i in range(10)]),
        "latency": ([10.0] * 10, [11.0] * 10),
        "narrow": ([100 + 4 * i for i in range(10)], [101 + 4 * i for i in range(10)]),
        "eight_wins": ([100] * 10, [150] * 8 + [90] * 2),
        "zero": ([0] * 10, [0] * 10),
        "undirected": ([1] * 10, [2] * 10),
    }
    pairs = [
        {side: {"metrics": {name: {"value": values[j][i]} for name, values in series.items()}}
         for j, side in enumerate(("parent", "change"))}
        for i in range(10)
    ]
    better = {name: "higher" for name in series if name != "undirected"}
    better["latency"] = "lower"
    summary = _load_script("bench_pairs").summarize(pairs, better)
    work = summary["work"]
    assert work["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert work["change_wins"] == "10 of 10 pairs" and work["gate"] is True
    assert work["ratio"]["q1"] < work["ratio"]["median"] < work["ratio"]["q3"]
    assert work["ratio"]["median"] == round(statistics.median(
        (120 + i) / (100 + i) for i in range(10)), 3)
    assert summary["latency"]["ratio"]["median"] == 1.1
    assert summary["latency"]["change_wins"] == "0 of 10 pairs"
    assert summary["latency"]["gate"] is False
    assert summary["narrow"]["change_wins"] == "10 of 10 pairs"
    assert summary["narrow"]["gate"] is False
    assert summary["eight_wins"]["gate"] is False
    assert summary["zero"]["ratio"] is None and summary["zero"]["gate"] is False
    assert summary["undirected"]["ratio"]["median"] == 2.0
    assert "gate" not in summary["undirected"] and "change_wins" not in summary["undirected"]
