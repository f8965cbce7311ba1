"""Host-speed calibration: a fixed pure-Python loop timed in the benchmark process.

On a shared host the speed the program sees drifts by tens of percent
within seconds and between minutes, as neighbours come and go; on the
reference host it flips between two levels almost 2x apart every few
seconds.  The benchmark therefore times a fixed loop — the kind of
operations the simulator spends its time on — between the timed calls
(before and after every ``sim_*`` cell and every set-up), and divides
each stretch of host seconds by the mean *slowness* the samples at its
two ends show.  The loop has two halves with their own reference
times: one allocates objects and drives a heap and a dict, the other
chases pointers through a 4 MB table, because the two states of the
reference host slow compute and memory access by different amounts.
A sample's slowness is the mean of the halves' times over their
references, so the result is in *reference seconds*: host seconds on
the reference host in its faster state.  The loop is part of the
benchmark, so no change to the program can move it.

``paper_batch`` samples from ``run_paper``'s progress callback, between
cells.  Samples are only meaningful while nothing else of the benchmark
computes, which is why every workload runs serially in one process.
"""

from __future__ import annotations

import heapq
import random
from array import array
from time import perf_counter
from typing import List, Tuple

#: Times of the two halves of the loop on the reference host (2-CPU
#: Intel Xeon VM, Python 3.11) in its faster state.
REFERENCE_COMPUTE_S = 3.8e-3
REFERENCE_MEMORY_S = 2.1e-3

_TABLE_SIZE = 1 << 20


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, amount: int) -> int:
        return self.value + amount


def _compute() -> int:
    rng = random.Random(7)
    heap: list = []
    counts: dict = {}
    total = 0
    for i in range(4000):
        item = _Item(rng.random(), i)
        heapq.heappush(heap, (item.key, i, item))
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].bump(1)
        counts[i % 31] = counts.get(i % 31, 0) + 1
    return total


class Calibrator:
    """Times the calibration loop; owns the loop's pointer-chasing table."""

    def __init__(self) -> None:
        # Entry i holds the next index of a full-period linear congruential
        # walk over the table, so the walk visits memory in a scattered order.
        self._table = array("i", ((i * 1_664_525 + 1_013_904_223) % _TABLE_SIZE for i in range(_TABLE_SIZE)))

    def _memory(self) -> int:
        table = self._table
        index = total = 0
        for _ in range(20_000):
            index = table[index]
            total += index & 7
        return total

    def mark(self) -> Tuple[float, float]:
        """Sample now; return (host time the sample ended, slowness)."""
        slowness = self.sample()
        return perf_counter(), slowness

    def sample(self) -> float:
        """How many times slower than the reference host the loop runs now."""
        started = perf_counter()
        _compute()
        middle = perf_counter()
        self._memory()
        ended = perf_counter()
        return 0.5 * ((middle - started) / REFERENCE_COMPUTE_S + (ended - middle) / REFERENCE_MEMORY_S)


def reference_seconds(marks: List[Tuple[float, float]], start: float, end: float) -> float:
    """Reference seconds of the host interval ``[start, end]``.

    ``marks`` are ``(host time, slowness)`` pairs from
    :meth:`Calibrator.mark`, in time order, bracketing the interval; each
    stretch between two marks is divided by the mean slowness of its ends.
    """
    total = 0.0
    for (t0, s0), (t1, s1) in zip(marks, marks[1:]):
        overlap = min(end, t1) - max(start, t0)
        if overlap > 0:
            total += overlap * 2.0 / (s0 + s1)
    return total
