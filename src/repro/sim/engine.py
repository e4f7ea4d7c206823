"""The event engine: incremental merging of per-core execution streams.

Multi-core SoC simulations run each core's workload as an *actor* that,
when stepped, performs one unit of work and reports the local time it has
reached.  :class:`EventLoop` keeps every actor's next-event time in a
single min-heap and always steps the actor whose reported clock is
furthest behind.

The contract is that order and no more.  A runtime actor reports its
controller's *dispatch* clock, while the ops it issues book the shared
bus, L2 port and DRAM at their *execution* times, which run far ahead of
dispatch under decoupled queues; the shared timelines take bookings
first-come-first-served in call order.  So one tile can book shared state
far into another tile's future, and shared state is not applied in global
time order.  ROADMAP item M measures the gap and owns the fix (a merge
key at the time a tile next books shared state).

Actors are plain objects with a ``step()`` method, so the serving cluster
engine drives its per-tile state machines through the same loop;
:func:`lockstep_merge` remains as a thin compatibility wrapper with the
historical generator-based API and bitwise-identical stepping order (ties
on equal clocks go to the lowest actor index).
"""

from __future__ import annotations

import heapq
from typing import Generator, Iterable, Protocol

__all__ = ["Actor", "EventLoop", "lockstep_merge"]


class Actor(Protocol):
    """One event-driven participant of an :class:`EventLoop`.

    ``step()`` performs the work between the actor's previous event and
    its next one, returning the new local clock (non-decreasing), or
    ``None`` when the actor has finished.  Raising ``StopIteration`` is
    equivalent to returning ``None`` (the generator convention).
    """

    def step(self) -> float | None: ...


class _GeneratorActor:
    """Adapter: a ``yield``-driven clock stream as an :class:`Actor`."""

    __slots__ = ("step",)

    def __init__(self, stream: Generator[float, None, None]) -> None:
        self.step = stream.__next__


class EventLoop:
    """A min-heap of per-actor next-event times, stepped laggard-first.

    Each heap entry is ``(clock, index, actor)``; the loop pops the
    smallest, steps that actor once, and re-enters it at its new clock.
    Equal clocks resolve by actor index, so a fixed actor set replays the
    exact historical ``lockstep_merge`` interleaving.

    An actor that yields a decreasing time raises ``ValueError`` — that
    always indicates a bookkeeping bug in a model, and silently accepting
    it would corrupt shared-resource ordering.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Actor]] = []
        self._next_index = 0
        #: final clock of every actor that left the heap, by index
        self.finished: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, actor: Actor) -> int:
        """Enter one actor into the loop; returns its index.

        Indices count up in the order actors are added.  The actor is
        *primed* — stepped once so it has a current clock (the historical
        merge semantics; an actor that finishes during priming records a
        final clock of 0.0).
        """
        index = self._next_index
        self._next_index += 1
        try:
            clock = actor.step()
        except StopIteration:
            clock = None
        if clock is None:
            self.finished[index] = 0.0
            return index
        heapq.heappush(self._heap, (clock, index, actor))
        return index

    def run(self) -> None:
        """Step laggard-first until drained.

        Every actor finishes (``step`` returns None / raises StopIteration)
        and has its final clock recorded in :attr:`finished`.
        """
        heap = self._heap
        while heap:
            previous, index, actor = heap[0]
            try:
                now = actor.step()
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
            heapq.heapreplace(heap, (now, index, actor))


def lockstep_merge(streams: Iterable[Generator[float, None, None]]) -> list[float]:
    """Run generators to completion, always stepping the laggard.

    Each generator yields its current local time (non-decreasing) after
    each unit of work.  Returns the final local time of each stream, in
    the order given.  Compatibility wrapper over :class:`EventLoop`: every
    stream is primed in order, then the loop steps the smallest
    ``(clock, index)`` until all streams are exhausted — the exact
    selection order (ties to the lowest stream index) that keeps dual-core
    runs deterministic.
    """
    loop = EventLoop()
    count = 0
    for stream in streams:
        loop.add(_GeneratorActor(stream))
        count += 1
    loop.run()
    return [loop.finished[i] for i in range(count)]
