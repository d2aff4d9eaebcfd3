"""How fast the machine runs Python while the benchmark measures.

The benchmark was defined on a 2-vCPU virtual machine shared with other
tenants. There, a neighbour on the same physical core slows pure-Python work
1.5 to 2.5-fold. The slow spells come and go within a second, but their share
drifts over minutes, so raw medians of identical runs spread by 20-28%
between runs.

SpeedSampler runs a small fixed kernel on a wall-clock timer while the timed
steps run, so the kernel sees the same spells as the step it interrupts.
Scaling a step's time by CAL_REF_S over the mean kernel time during the step
gives seconds on an idle core. The time spent in the kernel is left out of
the steps' time. The kernel calls no barrelmesh code, so no change to
barrelmesh can move it.
"""
from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time
from collections import deque

CAL_ITERATIONS = 100
# calibrate() on an idle core of the machine the benchmark was defined on
# (x86-64, CPython 3.11.7), approximately.
CAL_REF_S = 0.0003
INTERVAL_S = 0.02


def calibrate() -> float:
    """Seconds for a fixed stdlib kernel shaped like the engine's inner loop.

    It pushes and pops heap tuples, draws randrange, ORs the masks of the
    frames recently on air and walks the set bits that remain.
    """
    rng = random.Random(7)
    masks = [sum(1 << rng.randrange(300) for _ in range(20)) for _ in range(64)]
    heap: list = []
    recent: deque = deque()
    heard = set()
    started = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        mask = masks[i & 63]
        heapq.heappush(heap, (rng.randrange(1 << 20), i, mask))
        jam = 0
        for other in recent:
            jam |= other
        clear = mask & ~jam
        while clear:
            low = clear & -clear
            heard.add((low.bit_length(), i & 15))
            clear ^= low
        recent.append(mask)
        if len(recent) > 16:
            recent.popleft()
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


def speed_scale(kernel_s: list[float]) -> float:
    """Factor from host seconds to seconds on an idle core."""
    return CAL_REF_S / statistics.fmean(kernel_s)


class SpeedSampler:
    """Runs calibrate() every INTERVAL_S of wall time while active.

    It runs once on entry and then from a SIGALRM handler, so it samples the
    main thread's interpreter at evenly spaced moments. clock() is
    perf_counter() less the time spent in the kernel; time steps with it.
    """

    def __init__(self):
        self.at: list[float] = []  # clock() when each sample started
        self.kernel_s: list[float] = []
        self._handler_s = 0.0
        self._saved = None

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.at.append(self.clock())
        self.kernel_s.append(calibrate())
        self._handler_s += time.perf_counter() - started

    def clock(self) -> float:
        return time.perf_counter() - self._handler_s

    def scale(self, start: float, end: float) -> float:
        """Speed factor for a step timed with clock() from start to end.

        It uses the samples taken during the step, widened by one interval
        on each side so that a short step still has one.
        """
        lo = bisect.bisect_left(self.at, start - INTERVAL_S)
        hi = bisect.bisect_right(self.at, end + INTERVAL_S)
        return speed_scale(self.kernel_s[lo:hi] or self.kernel_s)

    def __enter__(self):
        self._tick(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False
