"""A fixed reference workload that measures how fast the host is right now.

The host these figures come from shares its cores and memory with other
tenants, and its speed for the same code swings by up to 2x over periods
of tens of seconds. Timing the program alone cannot tell a slower program
from a slower host. So the benchmark runs the reference before every unit
and every set-up, and scales each measured time by how much slower than
nominal the reference ran in the same invocation.

The reference uses no code of the program and keeps its own small working
set, so no change to the program can change its time. It is shaped like
the simulator's inner loops (a heap event queue over slotted objects, a
dict index, a sort), so it slows down with the host much as the simulator
does; a dict-only loop does not.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Host seconds one :meth:`Calibrator.tick` takes on a quiet host (Python
#: 3.11, 2-core x86 VM). Calibrated times are host seconds on such a host.
REFERENCE_S = 0.04


class _Event:
    __slots__ = ("due", "key", "value")

    def __init__(self, due: float, key: int, value: int) -> None:
        self.due = due
        self.key = key
        self.value = value


def reference_work(events: int = 20_000) -> int:
    """Fixed event-queue work; returns a checksum so it cannot be skipped."""
    rng = random.Random(1)
    queue: list = []
    index: dict[int, _Event] = {}
    total = 0
    for i in range(events):
        event = _Event(rng.random(), rng.randrange(200_000), i)
        heapq.heappush(queue, (event.due, i, event))
        index[event.key] = event
        if len(queue) > 2_000:
            _, _, done = heapq.heappop(queue)
            total += index.get(done.key, done).value
    return total + len(sorted(index))


class Calibrator:
    """Times reference runs; ``factor`` turns host seconds measured in the
    same invocation into seconds on a host running at nominal speed."""

    def __init__(self) -> None:
        self.walls: list[float] = []

    def tick(self) -> None:
        # The reference makes no reference cycles. With the collector on,
        # its allocations would trigger collections whose cost grows with
        # the program's live heap, and it would no longer time the host alone.
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.walls.append(time.perf_counter() - start)
        finally:
            gc.enable()

    @property
    def factor(self) -> float:
        return REFERENCE_S * len(self.walls) / sum(self.walls)


__all__ = ["Calibrator", "REFERENCE_S", "reference_work"]
