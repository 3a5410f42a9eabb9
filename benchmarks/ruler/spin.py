"""spin_v1: the frozen reference loop every gated timing is divided by.

Raw seconds on a shared 2-core box wander with the neighbours (the same
spin read 16 ms and 29 ms within one minute while this file was written),
so the ruler reports *spins*: the time an operation took divided by the time
this loop took immediately before and after it, on the same clock. The loop
is interpreter-bound like the simulator (a ``heapq`` of floats plus a
``sqrt`` per iteration) and allocates no GC-tracked container, so a cyclic
collection can never land inside it — an earlier variant that pushed tuples
inherited the collector's schedule and moved 25 % between repetitions.

Frozen means frozen: a change to this loop renames it ``spin_v2`` and
re-records ``BASELINE.json``, because every number in spins depends on it.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, List, Tuple

SPIN_VERSION = "spin_v1"
SPIN_ITERATIONS = 60_000


def spin(n: int = SPIN_ITERATIONS) -> float:
    heap: List[float] = []
    push = heapq.heappush
    pop = heapq.heappop
    sqrt = math.sqrt
    acc = 0.0
    for i in range(n):
        push(heap, sqrt(i * 0.37) % 1.0)
        if i & 1:
            acc += pop(heap)
    return acc


def timed_spin() -> Tuple[float, float]:
    """One spin, timed on both clocks: (wall seconds, CPU seconds)."""
    w0 = time.perf_counter()
    c0 = time.process_time()
    spin()
    c1 = time.process_time()
    w1 = time.perf_counter()
    return w1 - w0, c1 - c0


def warm_up(count: int = 20) -> None:
    """The first spins after a process wakes read ~2x slow (cold caches,
    idle vCPU); burn them before anything is timed."""
    for _ in range(count):
        spin()


class Interleaved:
    """Times a sequence of operations with a spin between each pair.

    ``S op S op ... op S``: every operation is divided by the mean of the
    spins on either side of it, so drift slower than one operation cancels.
    Each sample is (wall spins, CPU spins, raw wall seconds).
    """

    def __init__(self) -> None:
        self._before = timed_spin()

    def time(self, op: Callable[[], object]) -> Tuple[object, float, float, float]:
        w0 = time.perf_counter()
        c0 = time.process_time()
        out = op()
        c1 = time.process_time()
        w1 = time.perf_counter()
        after = timed_spin()
        wall_spin = (self._before[0] + after[0]) / 2.0
        cpu_spin = (self._before[1] + after[1]) / 2.0
        self._before = after
        wall = w1 - w0
        return out, wall / wall_spin, (c1 - c0) / cpu_spin, wall
