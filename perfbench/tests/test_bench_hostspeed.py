"""The host-speed sampler: samples inside a long step, then leaves SIGALRM as it was."""

import math
import signal
import statistics
import time

import hostspeed


def test_samples_during_a_step_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        first = len(host.samples)
        end = time.perf_counter() + 5 * hostspeed.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
        assert len(host.samples) - first >= 3
        mean = statistics.fmean(host.samples[first:])
        assert math.isclose(host.scale(first) * mean, hostspeed.REFERENCE_KERNEL_MS / 1e3)
    assert signal.getsignal(signal.SIGALRM) is previous
    count = len(host.samples)
    time.sleep(3 * hostspeed.SAMPLE_INTERVAL_S)
    assert len(host.samples) == count
