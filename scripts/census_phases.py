#!/usr/bin/env python3
"""Time the phases of run_census in one or more checkouts.

    python3 scripts/census_phases.py CHECKOUT [CHECKOUT ...] [--repeats N]

For each checkout, one interpreter with ``CHECKOUT/src`` first on the path
runs run_census's steps on M2(Z/7), M3(Z/2) and Z/997 (the census-exhaustive
rings of perfbench), M2(Z/12) and Z/32768 (its census-sampled rings) and on
M2(Z/30), Z/720720 and Z/1000000, the same way run_census does: ``RingScan(ring)``,
its ``masks`` table, then per chunk of the cross-checked indexes (every index
up to EXHAUSTIVE_SCAN_CAP, else the seed-0 sample) ``drazin_codes``,
``inverse_scans``, the verdicts (the chunk's census masks as one tuple per
element and the scan's verdicts, ``_scan_verdicts``) and the per-element
checks, each element decoded as run_census decodes it (untimed).  Each
phase's median over N repeats, in seconds, is printed as one JSON object per
checkout.  The phases are timed by the checkout's own copy of this script,
so they follow that checkout's internals; it must have one.  Then
``census RING --json`` runs on Z/9 (the floor of a fresh census), M2(Z/30),
Z/720720 and Z/1000000 in a fresh interpreter each, and its wall time and
peak RSS are reported as well.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

PHASE_RINGS = (
    "M2(Z/7)", "M3(Z/2)", "Z/997", "M2(Z/12)", "Z/32768", "M2(Z/30)", "Z/720720", "Z/1000000"
)
FRESH_RINGS = ("Z/9", "M2(Z/30)", "Z/720720", "Z/1000000")


def phases(literal: str) -> dict[str, float]:
    """Seconds per run_census phase on one ring, in this interpreter."""
    from ringinv import census
    from ringinv._scan import RingScan
    from ringinv.literals import parse_ring

    ring = parse_ring(literal)
    took = dict.fromkeys(
        ("scan", "masks", "drazin_codes", "inverse_scans", "verdicts", "checks"), 0.0)
    clock = time.perf_counter

    def timed(phase, fn, *args):
        start = clock()
        out = fn(*args)
        took[phase] += clock() - start
        return out

    scan = timed("scan", RingScan, ring)
    masks = timed("masks", lambda: scan.masks)
    classes = tuple(masks)
    size = ring.size()
    if size <= census.EXHAUSTIVE_SCAN_CAP:
        indexes = range(size)
        elements = ring.elements()
    else:
        indexes = sorted(random.Random(0).sample(range(size), census.CROSS_CHECK_SAMPLES))
        elements = map(ring.element_at, indexes)
    for start in range(0, len(indexes), census.SCAN_CHUNK):
        chunk = indexes[start : start + census.SCAN_CHUNK]
        drazin = timed("drazin_codes", scan.drazin_codes, chunk).tolist()
        scanned = timed("inverse_scans", scan.inverse_scans, chunk)
        rows, verdicts = timed("verdicts", lambda: (
            list(zip(*(m[chunk].tolist() for m in masks.values()))),
            census._scan_verdicts(scan, chunk, scanned)))
        chunk_elements = itertools.islice(elements, len(chunk))
        for a, found, code, mask, verdict in zip(chunk_elements, scanned, drazin, rows, verdicts):
            timed("checks", census._cross_check_element, ring, a, found, code, classes, mask,
                  verdict)
    return took


def inside(repeats: int) -> dict:
    out = {}
    for literal in PHASE_RINGS:
        runs = [phases(literal) for _ in range(repeats)]
        out[literal] = {phase: round(statistics.median(r[phase] for r in runs), 4)
                        for phase in runs[0]}
    return out


def fresh_census(checkout: Path, literal: str) -> dict:
    """Wall time and peak RSS of one ``census RING --json`` in a new interpreter."""
    code = ("import resource, sys, time\n"
            "from ringinv.cli import main\n"
            "start = time.perf_counter()\n"
            f"main(['census', {literal!r}, '--json'])\n"
            "took = time.perf_counter() - start\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
            "print(f'{took:.4f} {rss:.1f}', file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    took, rss = done.stderr.split()
    return {"census_s": float(took), "peak_rss_mb": float(rss)}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", type=Path, nargs="*", metavar="CHECKOUT")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--inside", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.inside:
        json.dump(inside(args.repeats), sys.stdout)
        return 0
    if not args.checkouts or args.repeats < 1:
        parser.error("give at least one checkout and a positive --repeats")
    for checkout in map(Path.resolve, args.checkouts):
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        done = subprocess.run(
            [sys.executable, str(checkout / "scripts" / "census_phases.py"), "--inside",
             "--repeats", str(args.repeats)],
            cwd=checkout, env=env, capture_output=True, text=True, check=True)
        described = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                                   capture_output=True, text=True)
        record = {"commit": described.stdout.strip() or None,
                  "phases_s": json.loads(done.stdout),
                  "fresh_census": {r: fresh_census(checkout, r) for r in FRESH_RINGS}}
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
