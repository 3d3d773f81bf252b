"""Host-speed calibration for the benchmark's timings.

On a shared VM the speed of the same code drifts by up to half again in
phases of seconds to a minute, and CPU time drifts with wall time, so a
run's timings say as much about the phase it fell in as about the
program.  A fixed piece of pure-Python work, the reference, is timed
between compiles throughout the run.  Each compile's time is then scaled
by REF_NOMINAL_S over the median reference time around it: the reference
sees the same host speed as the compile it brackets, and none of the
program, so a change to the program still moves the scaled time in full.
"""
from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from statistics import median

# Plain integer arithmetic in the interpreter loop: of the references
# tried it tracked the compile path's drift best (a mixed set and dict
# loop drifted with memory contention the compile path does not see).
# About 2 ms on a 2-vCPU Xeon VM at 2.1 GHz with Python 3.11.
REF_ROUNDS = 25000
# Roughly the reference's time in a quiet phase on that VM.  Scaled
# timings are in seconds at that speed; the constant only sets the scale.
REF_NOMINAL_S = 0.0020
# A reference sample at most this often, so it costs a few percent.
REF_EVERY_S = 0.1
# Samples within this distance of a compile set its scale.
REF_WINDOW_S = 1.0


def reference_work() -> int:
    acc = 0
    for i in range(REF_ROUNDS):
        acc += i * i % 7
    return acc


class HostSpeed:
    """Reference samples taken through a run, by time."""

    def __init__(self) -> None:
        self.at: list[float] = []       # sample midpoints, increasing
        self.secs: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.secs.append(t1 - t0)
        return t1 - t0

    def maybe_sample(self) -> None:
        """A sample unless one was taken in the last REF_EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median reference time within
        REF_WINDOW_S of [start, end], or of the nearest sample if none."""
        lo = bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect_right(self.at, end + REF_WINDOW_S)
        if lo == hi:
            near = min(range(len(self.at)),
                       key=lambda k: abs(self.at[k] - (start + end) / 2))
            return REF_NOMINAL_S / self.secs[near]
        return REF_NOMINAL_S / median(self.secs[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
