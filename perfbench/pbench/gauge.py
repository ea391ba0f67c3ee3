"""Host-speed gauge: CPU timings scaled to one reference speed.

The benchmark runs on shared hosts whose CPU speed changes in phases
while a run is in progress.  On the 2-vCPU VM the bounds were set on, a
fixed loop took 0.65-0.8 ms in quiet phases and 1.2-1.4 ms in busy ones,
and a phase lasted from about a second to several minutes.  The same
simulation slices ran at 312 messages per CPU second in quiet phases and
189 in busy ones.  A timing summed over a run then mostly tells how much
of the run fell into busy phases.

The gauge times a fixed reference workload next to each slice of
measured work: plain-Python dict and heap work plus small numpy array
operations, none of it the program's code.  A slice's time is scaled by
``REFERENCE_S / reading``, where the reading is the mean of the gauge
readings taken just before and just after the slice.  The scaled value
is the time the slice would take on a host that runs the reference
workload in ``REFERENCE_S``.  On the VM above, scaling brought the busy
and quiet phases' rates to within 10% of each other.  A change to the
program moves the scaled timings just as it moves raw ones, because the
reference workload does not use the program.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from typing import List

import numpy as np

#: reference-workload seconds that scaled timings are expressed at
REFERENCE_S = 1e-3
#: timings per reading; their median drops one interrupted timing
READS = 3


def reference_work() -> int:
    """A fixed mix of interpreter-bound and numpy work (about 0.8 ms)."""
    rng = random.Random(7)
    table = {}
    heap = []
    for i in range(600):
        key = (rng.randrange(200), i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (table[key], key))
    while heap:
        heapq.heappop(heap)
    matrix = np.arange(64 * 64, dtype=float).reshape(64, 64)
    for _ in range(20):
        matrix = np.minimum(matrix, np.add.outer(matrix[0], matrix[:, 1]))
    return len(table)


def timed_reference() -> float:
    """Thread CPU seconds of one reference workload.

    The collector is off meanwhile, so the reading does not depend on how
    many objects the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        reference_work()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def read() -> float:
    """Thread CPU seconds of one reference workload (median of ``READS``)."""
    return statistics.median(timed_reference() for _ in range(READS))


class Gauge:
    """Scale factors for consecutive slices of work.

    Create it before the first slice; after each slice, :meth:`factor`
    takes a reading and returns the factor for the work done since the
    previous reading.
    """

    def __init__(self) -> None:
        reference_work()  # the first call pays for imports and allocation
        self._last = read()
        self.readings: List[float] = [self._last]

    def factor(self) -> float:
        current = read()
        previous, self._last = self._last, current
        self.readings.append(current)
        return REFERENCE_S / ((previous + current) / 2.0)

    def timed(self, fn, *args):
        """``fn(*args)``'s thread CPU seconds, scaled; the result is dropped."""
        self.factor()
        start = time.thread_time()
        fn(*args)
        took = time.thread_time() - start
        return took * self.factor()

    def median_reading(self) -> float:
        return statistics.median(self.readings)
