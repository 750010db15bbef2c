"""Machine-speed probe: report times in reference seconds on a shared box.

On a shared 2-core box the same experiment ran anywhere from 12.8 s to
20.6 s back to back, while its work (ARQ attempts drawn) stayed within
1%: co-tenants slow the whole CPU down in phases of 10-30 s, and no run
length the benchmark can afford averages them out.  CPU time slows down
with wall time, so it does not help either.

While a ``SpeedProbe`` is active, SIGALRM runs a fixed pure-Python
kernel every ``PERIOD_S`` of wall time and records how long it took, so
the probe sees the speed of the box during the very span it measures.
``normalize`` removes the probe's own time from a measured span and
rescales it to a box that runs the kernel in ``REFERENCE_S``:

    reference seconds = (measured - probe time) * REFERENCE_S / median(kernel)

A program change scales the result like it scales wall time; a slow
phase of the box scales the kernel too and cancels out.  Over 15-s
windows of repeated mac-k8 experiments this cut the spread of the
median (interquartile range over median) from 0.125 in wall seconds to
0.039.  The kernel costs about 0.6% of the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_S = 3e-4  # near the kernel's duration on the 2-core Xeon box it was tuned on


def _timed_kernel() -> float:
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(2000):
        table[i & 63] = total
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.samples = []   # kernel durations
        self.busy_s = 0.0   # kernel time spent inside the measured span

    def _tick(self, signum, frame):
        self.samples.append(_timed_kernel())
        self.busy_s += self.samples[-1]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a span shorter than one period
            self.samples.append(_timed_kernel())
        return False

    def scale(self) -> float:
        """REFERENCE_S over the median kernel time: below 1 on a slow box."""
        return REFERENCE_S / statistics.median(self.samples)

    def normalize(self, seconds: float) -> float:
        """Reference seconds of a span measured while the probe was active."""
        return (seconds - self.busy_s) * self.scale()
