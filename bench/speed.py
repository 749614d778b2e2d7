"""Machine-speed normalization for the benchmark's timings.

The shared machines the benchmark runs on change speed by up to 2x over
seconds to minutes, for reasons outside the process, and that drift is far
larger than the changes the benchmark must resolve.  A SpeedSampler thread
therefore times a fixed pure-Python kernel, which uses no contractlab code,
every PERIOD_S seconds while the benchmark runs.  A timed interval is then
reported in reference seconds: its measured length times REFERENCE_S over the
median kernel time sampled in and around the interval.  That reads as the
time the interval would take on a machine where the kernel takes REFERENCE_S.

The kernel's thread CPU time is used, so waiting for the interpreter lock does
not count: a change that keeps the program busy in other threads slows the
timed intervals but not the kernel.  The sampler costs the workload about one
lock hand-off per period.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from collections import deque
from fractions import Fraction

REFERENCE_S = 3.0e-4  # the kernel's typical CPU time on the 2-core machine it was tuned on
PERIOD_S = 0.1
PAD_S = 0.3  # samples this far outside an interval still describe it

_ADJ = tuple(tuple((i * 7 + k * 13) % 97 for k in range(1, 5)) for i in range(97))


def kernel() -> None:
    """Breadth-first searches and a Fraction sum: the kind of work contractlab does."""
    for src in range(0, 97, 16):
        dist = [-1] * 97
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in _ADJ[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(1, i)


class SpeedSampler:
    """Context manager that samples the kernel's CPU time in a daemon thread."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def _sample(self) -> None:
        while True:
            t0 = time.thread_time()
            kernel()
            cost = time.thread_time() - t0
            self.costs.append(cost)
            self.times.append(time.perf_counter())
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        time.sleep(PAD_S)  # let the last interval get samples after its end
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Multiplier from measured to reference seconds for [start, end]."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        window = self.costs[lo:hi]
        if not window:
            raise RuntimeError("no speed samples around a timed interval")
        return REFERENCE_S / statistics.median(window)
