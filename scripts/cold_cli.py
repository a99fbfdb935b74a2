#!/usr/bin/env python3
"""Time fresh ``python -m ringinv`` calls in one or more checkouts.

    python3 scripts/cold_cli.py CHECKOUT [CHECKOUT ...] [--rounds N] > FILE

Each call is a new interpreter, as a user's shell runs it: interpreter
start, ``import ringinv``, the answer.  The calls are one ``classify`` per
ring of perfbench's classify-stream workload, ``decompose`` on Z/2187 and
M2(Z/9), ``census Z/9`` and ``verify 2.1 Z/27``.  Per round every call runs
once in every checkout, with ``CHECKOUT/src`` on the path and the checkout as
working directory; the checkouts alternate which goes first from one round
to the next, so a drift in host speed favours neither.  The children run
with PYTHONDONTWRITEBYTECODE unset, so after the first call they read
compiled bytecode, as an installed package does.

Per checkout and call, the JSON result gives the minimum and the median wall
seconds over the N rounds and the largest peak RSS of the children (MB, from
their ``os.wait4`` resource usage), and with two or more checkouts each
later checkout's median over the first's.  A call that exits non-zero, or
answers differently in two checkouts, stops the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CALLS = (
    ("classify", "Z/10007", "5"),
    ("classify", "M2(Z/101)", "[[1,2],[3,4]]"),
    ("classify", "M3(Z/5)", "[[1,2,0],[0,1,3],[4,0,1]]"),
    ("classify", "M4(Z/3)", "[[1,2,0,1],[0,1,2,0],[2,0,1,1],[1,1,0,2]]"),
    ("classify", "M6(Z/2)", "[[1,1,0,0,0,0],[0,1,1,0,0,0],[0,0,1,1,0,0],"
                            "[0,0,0,1,1,0],[0,0,0,0,1,1],[1,0,0,0,0,1]]"),
    ("classify", "M2(Z)", "[[1,1],[0,-1]]"),
    ("classify", "M3(Z)", "[[-2,3,2],[-2,3,2],[1,-1,-1]]"),
    ("decompose", "Z/2187", "5"),
    ("decompose", "M2(Z/9)", "[[1,2],[3,4]]"),
    ("census", "Z/9"),
    ("verify", "2.1", "Z/27"),
)


def child_env(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_call(checkout: Path, argv: tuple) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and the sha256 of stdout of one fresh call."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "ringinv", *argv], cwd=checkout,
                                 env=child_env(checkout), stdout=out,
                                 stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        took = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            sys.exit(f"{' '.join(argv)} exited {child.returncode} in {checkout}")
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return took, usage.ru_maxrss / 1024, digest


def commit_of(checkout: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT")
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    checkouts = [path.resolve() for path in args.checkouts]
    names = [" ".join(argv) for argv in CALLS]
    times = {c: {name: [] for name in names} for c in checkouts}
    rss = {c: {name: 0.0 for name in names} for c in checkouts}
    for turn in range(args.rounds):
        order = checkouts if turn % 2 == 0 else checkouts[::-1]
        for name, argv in zip(names, CALLS):
            answers = set()
            for checkout in order:
                took, peak, digest = run_call(checkout, argv)
                times[checkout][name].append(took)
                rss[checkout][name] = max(rss[checkout][name], peak)
                answers.add(digest)
            if len(answers) > 1:
                sys.exit(f"{name} answers differently in the checkouts")
    first = checkouts[0]
    result = {
        "rounds": args.rounds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "checkouts": [
            {
                "checkout": str(checkout),
                "commit": commit_of(checkout),
                "calls": {
                    name: {
                        "min_s": round(min(times[checkout][name]), 4),
                        "median_s": round(statistics.median(times[checkout][name]), 4),
                        "peak_rss_mb": round(rss[checkout][name], 1),
                        **({} if checkout == first else {"median_ratio": round(
                            statistics.median(times[checkout][name])
                            / statistics.median(times[first][name]), 3)}),
                    }
                    for name in names
                },
            }
            for checkout in checkouts
        ],
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
