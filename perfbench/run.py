"""ringinv benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ringinv is imported from its ``src``.
With ``--trace 0`` complete rounds run untraced until S seconds have
passed and the end-to-end metrics are reported, every time scaled to a
nominal host speed (hostspeed.py; wall-clock figures are printed too).
With ``--trace 1`` one
round runs untraced and then the same round runs traced, and the per-layer
metrics are reported, including the tracing overhead between the two; the
spans go to .perfbench_out/.  Every operation's output is checked against
reference.json (recorded by make_reference.py).  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import tracing
import workloads
from hostspeed import HostSpeed, scaled_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# (name, unit) of the end-to-end metrics; BENCHMARK.json declares the same.
# Every time is scaled to the nominal host speed (see hostspeed.py): setup_s
# in seconds, ref_s and ref_ms for the step times.
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_ref_s", "1/ref_s"),
    ("latency_p50_ref_ms", "ref_ms"),
    ("latency_p99_ref_ms", "ref_ms"),
    ("peak_rss_mb", "MB"),
)


def import_ringinv():
    """Import ringinv from this checkout's src, or exit 2 when it is missing."""
    if not (SRC / "ringinv" / "__init__.py").is_file():
        print(f"error: no ringinv package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ringinv
    import ringinv.cli  # noqa: F401  (the CLI is called in-process)

    if Path(ringinv.__file__).resolve().parent != SRC / "ringinv":
        print(f"error: ringinv imported from {ringinv.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return ringinv


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median of SETUP_REPEATS cold set-ups, each in a fresh interpreter:
    (host-scaled seconds, wall seconds)."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        took, kernel_s = map(float, done.stdout.split())
        scaled.append(scaled_seconds(took, kernel_s))
        wall.append(took)
    return statistics.median(scaled), statistics.median(wall)


def machine(ringinv) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ringinv": ringinv.__version__,
    }


class Round:
    """Outcome of one pass over a workload's steps, per step."""

    def __init__(self):
        self.times: list[float | None] = []  # seconds inside ringinv; None when failed
        self.scales: list[float] = []  # nominal over current kernel time during the step
        self.works: list[int] = []
        self.failures: list[str] = []

    def busy(self, scaled: bool) -> float:
        return sum(t * (s if scaled else 1) for t, s in zip(self.times, self.scales)
                   if t is not None)


def run_round(ringinv, steps, outputs: dict, host: HostSpeed, tracer=None) -> Round:
    rnd = Round()
    for index, step in enumerate(steps):
        if tracer is not None:
            tracer.request = index
        first, spent = len(host.samples), host.spent
        seconds, work, problems = 0.0, 0, []
        for op in step:
            out = workloads.execute(ringinv, op)
            seconds += out.seconds
            work += out.work
            expected = outputs.get(op.key)
            if out.text is None:
                problems.append(f"{op.key}: {out.error}")
            elif expected is None:
                problems.append(f"{op.key}: no reference output")
            elif workloads.digest(out.text) != expected:
                problems.append(f"{op.key}: output differs from the reference")
        rnd.failures += problems
        rnd.times.append(None if problems else max(seconds - (host.spent - spent), 0.0))
        rnd.scales.append(host.scale(first))
        rnd.works.append(work)
    return rnd


def summarize(rounds: list[Round], scaled: bool) -> dict:
    """Throughput and latency quantiles, each step timed as its median over rounds.

    The median drops a burst of contention that hits one round.  Steps that
    failed in any round are left out (the result counts them as failed).
    """
    ok = [i for i in range(len(rounds[0].times)) if all(r.times[i] is not None for r in rounds)]
    latencies = [statistics.median(r.times[i] * (r.scales[i] if scaled else 1) for r in rounds)
                 for i in ok]
    work = sum(rounds[0].works[i] for i in ok)
    if len(latencies) < 2:
        latencies = latencies * 2 or [0.0, 0.0]  # nearly every step failed; failures say so
    return {
        "work_per_s": work / sum(latencies) if sum(latencies) else 0.0,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3,
    }


def end_to_end(ringinv, steps, outputs, seconds, setup_s) -> tuple[dict, list[Round], dict]:
    """Complete rounds until ``seconds`` have passed; also returns the wall-clock figures."""
    rounds = []
    started = time.perf_counter()
    with HostSpeed() as host:
        while not rounds or time.perf_counter() - started < seconds:
            rounds.append(run_round(ringinv, steps, outputs, host))
    scaled, wall = summarize(rounds, scaled=True), summarize(rounds, scaled=False)
    values = {
        "setup_s": setup_s,
        "work_per_ref_s": scaled["work_per_s"],
        "latency_p50_ref_ms": scaled["p50_ms"],
        "latency_p99_ref_ms": scaled["p99_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall["kernel_ms"] = [round(f(host.samples) * 1e3, 4) for f in (min, statistics.median, max)]
    return values, rounds, wall


def micro_rows(ringinv, seed: int) -> dict:
    """Per-call time of Element mul and add, 2x2 over Z/7, untraced."""
    rng = random.Random(seed)
    ring = ringinv.parse_ring("M2(Z/7)")
    a, b = (ring.element([[rng.randrange(7) for _ in range(2)] for _ in range(2)])
            for _ in range(2))
    number = 5000

    def per_call_us(fn) -> float:
        return statistics.median(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6

    return {"rings.mul_us": per_call_us(lambda: a * b), "rings.add_us": per_call_us(lambda: a + b)}


def per_layer(ringinv, steps, outputs, seed, header) -> tuple[dict, list[Round]]:
    with HostSpeed() as host:
        base = run_round(ringinv, steps, outputs, host)
    extra = micro_rows(ringinv, seed)
    tracer = tracing.Tracer()
    with tracing.installed(tracer), HostSpeed() as host:
        traced = run_round(ringinv, steps, outputs, host, tracer)
    # scaled busy time, so a swing in host speed between the rounds is not overhead
    untraced_s = base.busy(scaled=True)
    extra["trace.overhead_ratio"] = traced.busy(scaled=True) / untraced_s - 1 if untraced_s else 0.0
    values = tracing.layer_values(tracer, extra)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{header['workload']}-seed{seed}.jsonl"
    tracer.write_spans(spans_path, header)
    print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} kept, "
          f"{tracer.dropped} beyond the cap of {tracer.span_cap})")
    return values, [base, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ringinv = import_ringinv()
    reference = workloads.load_reference()
    setup_s, setup_wall_s = (None, None) if args.trace else setup_seconds(args.workload, args.seed)
    steps = workloads.build(args.workload, args.seed, reference)
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(ringinv), "steps_per_round": len(steps),
              "operations_per_round": sum(len(step) for step in steps)}
    print("run: " + json.dumps(header, sort_keys=True))

    outputs = reference["outputs"]
    wall = None
    if args.trace:
        values, rounds = per_layer(ringinv, steps, outputs, args.seed, header)
        declared = [(name, unit) for name, unit, _ in tracing.per_layer_spec()]
    else:
        values, rounds, wall = end_to_end(ringinv, steps, outputs, args.seconds, setup_s)
        declared = END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared}

    attempted = sum(len(step) for step in steps) * len(rounds)
    failures = [f for r in rounds for f in r.failures]
    print(f"rounds: {len(rounds)}, operations: {attempted}, "
          f"busy seconds per round: {[round(r.busy(scaled=False), 3) for r in rounds]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if wall is not None:
        unit = {"census-exhaustive": "census_elements", "census-sampled": "census_elements",
                "classify-stream": "classify", "verify-laws": "law_instances"}[args.workload]
        print(f"wall clock: {unit}_per_s = {wall['work_per_s']!r}, "
              f"p50_ms = {wall['p50_ms']!r}, p99_ms = {wall['p99_ms']!r} over {len(steps)} steps, "
              f"each the median of {len(rounds)} rounds; setup_s = {setup_wall_s!r}; "
              f"reference kernel ms (min, median, max) = {wall['kernel_ms']}")
    print(f"failed_ratio = {len(failures) / attempted!r} ({len(failures)} of {attempted})")
    for failure in failures[:5]:
        print(f"failure: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
