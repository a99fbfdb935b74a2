"""Record reference.json: the output digest of every operation any seed can
issue, and the Element multiplication count of every classify-stream pool
request (used to stratify the seeded draw by cost).

Run from the root of a checkout whose outputs are the reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads


def _recorded(ringinv, op) -> str:
    out = workloads.execute(ringinv, op)
    if out.text is None:
        sys.exit(f"error: {op.key} raised {out.error}")
    if op.kind == "cli" and not out.text.startswith("exit 0\n"):
        sys.exit(f"error: {op.key} did not exit 0")
    return workloads.digest(out.text)


def main() -> None:
    ringinv = run.import_ringinv()
    cli = {}
    for op in workloads.all_cli_ops():
        cli[op.key] = _recorded(ringinv, op)
        print(op.key, flush=True)
    pool = {}
    tracer = tracing.Tracer(span_cap=0)
    with tracing.installed(tracer):
        for (kind, ring), ops in workloads.request_pool().items():
            entries = []
            for op in ops:
                before = tracer.counts["rings.mul.calls"]
                entries.append([_recorded(ringinv, op), tracer.counts["rings.mul.calls"] - before])
            pool[f"{kind} {ring}"] = entries
            print(kind, ring, len(entries), flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"cli": cli, "pool": pool}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
