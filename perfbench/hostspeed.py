"""Host-speed scaling of measured times.

The host these figures come from (a 2-vCPU VM) runs the same pure-Python
code up to 2x faster or slower from one few-second stretch to the next,
which wall-clock medians over a run cannot absorb.  A fixed reference
kernel, timed every SAMPLE_INTERVAL_S of wall time from a SIGALRM handler
(so inside long steps too), tracks that swing.  A scaled time reads as if
one kernel run took REFERENCE_KERNEL_MS; a change to ringinv moves it
exactly as it moves wall time, because the kernel does not use ringinv.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_KERNEL_MS = 1.0
SAMPLE_INTERVAL_S = 0.1


def reference_kernel():
    """Fixed pure-Python work shaped like Element arithmetic: 2x2 tuple products mod 7."""
    a, b = ((1, 2), (3, 4)), ((5, 6), (0, 1))
    for _ in range(300):
        a = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(2)) % 7 for j in range(2))
                  for i in range(2))
    return a


class HostSpeed:
    """Samples the reference kernel's time on a wall-clock timer while active.

    ``spent`` is the time the samples took, which the steps they interrupted
    subtract from their own.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._tick(None, None)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int) -> float:
        """Nominal over mean kernel time of the samples since index ``first``
        (the last three when the step was too short to be sampled)."""
        window = self.samples[first:] or self.samples[-3:]
        return scaled_seconds(1.0, statistics.fmean(window))


def kernel_seconds() -> float:
    """Median of three timed kernel runs."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def scaled_seconds(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_MS / 1e3 / kernel_s
