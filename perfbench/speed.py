"""The machine's speed, sampled during a pass, and times rescaled to a
fixed reference speed.

On a shared virtual machine the speed of one core drifts by a factor of
up to two in phases of ten seconds to a minute, and CPU time drifts with
it.  A run of half a minute can fall wholly inside a slow or a fast phase,
so no statistic over one run's passes removes the drift.  Instead the
child runs a fixed calibration slice between operations, every
``INTERVAL_S`` of pass time, and rescales each operation's latency by the
speed the slices measured around it:

    scaled = latency * REFERENCE_S / (mean slice time near the operation)

``REFERENCE_S`` is a constant, so a scaled time is the time the operation
would have taken on a machine that runs the slice in ``REFERENCE_S``.  The
slice is plain Python on builtins (tuples, dicts, comparisons, a sort, the
mix the monomial kernels run) and calls nothing of the program, so a change
to the program moves the scaled times exactly as it moves the raw ones.
The garbage collector is off during a slice, so that the slice's time does
not depend on the size of the program's heap.
"""
from __future__ import annotations

import bisect
import gc
import time

perf = time.perf_counter

# Slice time at the reference speed.  A slice took 1.5-2.8 ms on a 2-vCPU
# Xeon (2.1 GHz) virtual machine on CPython 3.11, so scaled times there
# stay close to measured ones.
REFERENCE_S = 0.002
SLICE_ROUNDS = 800
INTERVAL_S = 0.025
# Slices within this much of an operation's start and end set its speed;
# at least NEAREST slices are used.
WINDOW_S = 0.1
NEAREST = 4


def _slice():
    acc = {}
    rows = []
    for i in range(SLICE_ROUNDS):
        a = (i % 7, i % 11, i % 13)
        b = (i % 5, i % 3, i % 17)
        m = tuple(x if x > y else y for x, y in zip(a, b))
        if all(x <= y for x, y in zip(a, m)):
            rows.append(m)
        acc[m] = acc.get(m, 0) + 1
    rows.sort()
    return len(rows) + len(acc)


def calibrate():
    """Run one slice; returns (time it ended, seconds it took)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf()
        _slice()
        end = perf()
    finally:
        if enabled:
            gc.enable()
    return end, end - start


class SpeedLog:
    """Calibration slices taken during a pass, and the scaling they imply."""

    def __init__(self):
        self.ends = []
        self.times = []
        self._last = None

    def sample(self):
        end, took = calibrate()
        self.ends.append(end)
        self.times.append(took)
        self._last = end

    def maybe_sample(self):
        """Take a slice if ``INTERVAL_S`` has passed since the last one."""
        if self._last is None or perf() - self._last >= INTERVAL_S:
            self.sample()

    def block(self, count):
        for _ in range(count):
            self.sample()

    def factor(self, start=None, end=None):
        """REFERENCE_S over the mean slice time around [start, end]; over
        every slice when no interval is given."""
        if start is None:
            chosen = self.times
        else:
            lo = bisect.bisect_left(self.ends, start - WINDOW_S)
            hi = bisect.bisect_right(self.ends, end + WINDOW_S)
            if hi - lo < NEAREST:
                mid = bisect.bisect_left(self.ends, (start + end) / 2)
                lo = max(0, min(mid - NEAREST // 2, len(self.ends) - NEAREST))
                hi = min(len(self.ends), lo + NEAREST)
            chosen = self.times[lo:hi]
        return REFERENCE_S * len(chosen) / sum(chosen)
