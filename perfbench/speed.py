"""Times in reference seconds: the worker's CPU time at a fixed reference speed.

This benchmark is meant to run on shared machines.  There the host takes the
CPU away for milliseconds at a time, and the same pure-Python work runs up
to twice as slowly from one minute to the next.  So every time the benchmark
reports is built from the worker's CPU time (``time.thread_time``; the
worker has one thread), which leaves out the time the host takes, and is then
scaled to a fixed speed.  A probe interrupts the worker after every
``PERIOD_S`` of CPU time (SIGPROF) and times a fixed arithmetic kernel.  An
interval's reference time is its CPU time, less the probe's own, times the
mean speed the probe saw during it: the time the work would take at the
speed where the kernel runs in ``KERNEL_REF_S``.  Each run's record keeps
the raw wall time of its timed phase as well.

``process_time`` would do for a single thread too, but while a process-wide
CPU timer is armed Linux only refreshes it at ticks.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
KERNEL_REF_S = 0.0005  # about the kernel's time on an idle 2-vCPU Xeon sandbox, Python 3.11
NEAREST = 4  # samples to use around an interval too short to hold that many

clock = time.thread_time


def kernel() -> Fraction:
    """Fixed work of the same kind as the package's: Fraction sums with growing denominators."""
    s = Fraction(0)
    for i in range(1, 130):
        s += Fraction(i % 7 + 1, i)
    return s


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list = []  # clock() at each sample
        self.costs: list = []

    def sample(self, *_) -> None:
        t0 = clock()
        kernel()
        self.starts.append(t0)
        self.costs.append(clock() - t0)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done between clock() readings t0 and t1."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        own = sum(self.costs[i:j])
        if j - i >= NEAREST:
            near = self.costs[i:j]
        else:
            lo = max(0, min(i - NEAREST // 2, len(self.costs) - NEAREST))
            near = self.costs[lo:lo + NEAREST]
        speed = sum(KERNEL_REF_S / c for c in near) / len(near)
        return (t1 - t0 - own) * speed
