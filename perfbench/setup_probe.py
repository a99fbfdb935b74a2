"""Time one cold set-up in a fresh interpreter.

Set-up is importing ringinv (numpy included) and generating the inputs of
one round of a workload.  Prints the set-up's wall seconds and the
reference kernel's time around it.
Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import statistics
import sys
import time
from pathlib import Path

import hostspeed
import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    reference = workloads.load_reference()  # benchmark data, not program set-up
    before = hostspeed.kernel_seconds()
    start = time.perf_counter()
    import ringinv  # noqa: F401

    workloads.build(workload, seed, reference)
    took = time.perf_counter() - start
    kernel_s = statistics.fmean((before, hostspeed.kernel_seconds()))
    print(repr(took), repr(kernel_s))


if __name__ == "__main__":
    main()
