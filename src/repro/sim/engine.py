"""The event engine: incremental merging of per-core execution streams.

Multi-core SoC simulations run each core's workload as a *step callable*
that performs one unit of work and returns the local time it has reached:
a runtime's ``run_generator().__next__`` (the Figure 9 driver) or a serving
tile's ``_TileActor.step``.  :class:`EventLoop` keeps every participant's
next-event time in a single min-heap and always steps the one whose
reported clock is furthest behind, ties to the one added first.

The contract is that order and no more.  A runtime reports its
controller's *dispatch* clock, while the ops it issues book the shared
bus, L2 port and DRAM at their *execution* times, which run far ahead of
dispatch under decoupled queues; the shared timelines take bookings
first-come-first-served in call order.  So one tile can book shared state
far into another tile's future, and shared state is not applied in global
time order.  ROADMAP item M measures the gap and owns the fix (a merge
key at the time a tile next books shared state).
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["EventLoop"]


class EventLoop:
    """A min-heap of per-participant next-event times, stepped laggard-first.

    Each heap entry is ``(clock, index, step)``; the loop pops the
    smallest, calls that step once, and re-enters it at its new clock.
    Equal clocks resolve by index, so a fixed set of participants always
    interleaves the same way.

    A step that returns a decreasing time raises ``ValueError``: that
    always indicates a bookkeeping bug in a model, and silently accepting
    it would corrupt shared-resource ordering.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], float | None]]] = []
        self._next_index = 0
        #: final clock of every participant that left the heap, by index
        self.finished: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, step: Callable[[], float | None]) -> int:
        """Enter one participant into the loop; returns its index.

        ``step()`` performs the work up to the participant's next event
        and returns its new local clock (non-decreasing), or None (or
        raises ``StopIteration``, the generator convention) once finished.
        Indices count up in the order participants are added.  The step
        is called once here (*priming*) so it has a current clock; one
        that finishes during priming records a final clock of 0.0.
        """
        index = self._next_index
        self._next_index += 1
        try:
            clock = step()
        except StopIteration:
            clock = None
        if clock is None:
            self.finished[index] = 0.0
            return index
        heapq.heappush(self._heap, (clock, index, step))
        return index

    def run(self) -> None:
        """Step laggard-first until drained.

        Every participant finishes (its step returns None or raises
        StopIteration) and has its final clock recorded in :attr:`finished`.
        """
        heap = self._heap
        while heap:
            previous, index, step = heap[0]
            try:
                now = step()
            except StopIteration:
                now = None
            if now is None:
                self.finished[index] = previous
                heapq.heappop(heap)
                continue
            if now < previous:
                raise ValueError(
                    f"stream {index} yielded decreasing time {now} < {previous}"
                )
            heapq.heapreplace(heap, (now, index, step))
