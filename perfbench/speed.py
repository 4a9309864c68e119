"""The machine's speed, from a fixed reference loop, and times scaled to it.

On a shared machine the speed of one core drifts by a third within minutes,
and every CPU time drifts with it.  The benchmark times a fixed pure-Python
loop next to its work and scales each time to the speed at which that loop
takes REFERENCE_NS: a time t measured when the loop takes r becomes
t * REFERENCE_NS / r.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_NS = 500_000


def reference_ns() -> float:
    """Thread CPU time of the reference loop, the median of three.

    The loop uses nothing from ngtrace and allocates no container the
    garbage collector tracks, so the program under test cannot move it; only
    the machine's speed does.
    """
    times = []
    for _ in range(3):
        c0 = time.thread_time_ns()
        seen, sums = set(), {}
        for i in range(3000):
            seen.add(i * 7919 % 4099)
            sums[i & 255] = sums.get(i & 255, 0) + i
        times.append(time.thread_time_ns() - c0)
    return statistics.median(times)


class ScaledClock:
    """The process's CPU time since it started, in stretches, each scaled by
    the reference loop timed at its end.  The loop's own time is left out."""

    def __init__(self):
        self.cpu_ns = 0
        self.scaled_ns = 0.0
        self._mark = 0

    def tick(self):
        stretch = time.process_time_ns() - self._mark
        self.cpu_ns += stretch
        self.scaled_ns += stretch * REFERENCE_NS / reference_ns()
        self._mark = time.process_time_ns()
