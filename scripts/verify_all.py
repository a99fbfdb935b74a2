#!/usr/bin/env python3
"""Run the whole law registry against a battery of small rings.

Every law is checked exhaustively where ring size permits and by seeded
sampling otherwise.  Exits nonzero if any instance violates a law, which
would mean a defect in the constructions (or a genuinely false law).
"""

from __future__ import annotations

import argparse
import sys
import time

from ringinv import LAWS, PreconditionError, matrix, modular, verify_theorem
from ringinv.census import LAW_SAMPLES

DEFAULT_RINGS = [
    modular(3),
    modular(4),
    modular(5),
    modular(9),
    modular(12),
    modular(27),
    matrix(modular(2), 2),
    matrix(modular(3), 2),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled strategies")
    parser.add_argument(
        "--samples", type=int, default=LAW_SAMPLES, help="sample count for large searches"
    )
    args = parser.parse_args()

    failures = 0
    skipped = 0
    for ring in DEFAULT_RINGS:
        for law_id in sorted(LAWS):
            started = time.perf_counter()
            try:
                report = verify_theorem(law_id, ring, seed=args.seed, samples=args.samples)
            except PreconditionError as exc:
                skipped += 1
                print(f"SKIP  {law_id} on {ring}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            status = "ok" if report.ok else "FAIL"
            print(
                f"{status:5} {law_id} on {ring}: {report.strategy}, "
                f"{report.instances} instances, {report.checked} checked, "
                f"{len(report.violations)} violations ({elapsed:.2f}s)"
            )
            for violation in report.violations:
                print(f"      violation at {violation.inputs}: {violation.detail}")
            for note in report.notes:
                print(f"      note: {note}")
            if not report.ok:
                failures += 1

    print()
    print(f"{failures} failing law/ring pairs, {skipped} skipped (precondition not met)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
