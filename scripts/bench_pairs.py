#!/usr/bin/env python3
"""Run perfbench/run.py in two checkouts, in alternating pairs, and summarize.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S \
        --pairs N --seconds T [--trace 0|1] --out FILE

Each pair runs ``python3 perfbench/run.py`` once from the root of each
checkout, with the same workload, seed, run length and trace setting; even
pairs run the parent first and odd pairs the change, so a drift in host
speed does not favour one side.  Every run's JSON result is kept.  The
summary gives, per metric, each side's median and quartiles, the median and
quartiles of the per-pair change/parent ratio, and in how many pairs the
change read better, in the direction BENCHMARK.json declares (ties count for
neither side).  Its ``gate`` holds when a gain may be claimed: the change
wins at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range.

The block is stored in FILE under the key ``W/seed_S`` (``W/seed_S/trace``
with ``--trace 1``); other keys already in FILE are kept, so one FILE can
collect every workload and seed of a comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args) -> dict:
    """The JSON result line of one perfbench run in ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"perfbench failed in {checkout} (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' median and quartiles, the median and quartiles
    of the per-pair change/parent ratio (over the pairs whose parent reads
    nonzero), and, for a metric with a direction, the change's wins and
    ``gate``: whether a gain may be claimed, that is, the change wins at
    least nine tenths of the pairs and its median is better than the
    parent's by more than the parent's interquartile range."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        row = {side: spread(v) for side, v in values.items()}
        ratios = [c / p for p, c in zip(values["parent"], values["change"]) if p]
        row["ratio"] = spread(ratios) if ratios else None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            row["change_wins"] = f"{wins} of {len(pairs)} pairs"
            q1, parent, q3 = quartiles(values["parent"])
            gain = sign * (statistics.median(values["change"]) - parent)
            row["gate"] = 10 * wins >= 9 * len(pairs) and gain > q3 - q1
        summary[name] = row
    return summary


def commit(checkout: Path) -> str | None:
    """The checkout's commit, marked -dirty when its tree has local changes."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir", type=Path, help="checkout of the parent commit")
    parser.add_argument("change_dir", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the block to")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}

    pairs, runs = [], []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], args)
            runs.append({"side": side, "result": pair[side]})
            metric = pair[side]["metrics"].get("work_per_ref_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} {side}: work_per_ref_s {metric}", file=sys.stderr)
        pairs.append(pair)

    key = f"{args.workload}/seed_{args.seed}" + ("/trace" if args.trace else "")
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["host"] = (f"{os.cpu_count()} CPUs, {platform.machine()}; each pair alternates "
                   "which side runs first; times are host-scaled by perfbench/hostspeed.py")
    out[key] = {
        "command": (f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                    f"--seconds {args.seconds:g} --trace {args.trace}"),
        "commits": {side: commit(path) for side, path in sides.items()},
        "summary": summarize(pairs, directions(sides["parent"])),
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
