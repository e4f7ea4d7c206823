"""Resource timelines: the core timing primitive of the simulator.

A :class:`Timeline` models a unit that can serve one transaction at a time
(an SRAM port, a page-table walker, a DMA channel, a bus or DRAM channel).
Components *book* work on timelines; the timeline returns the interval
actually granted, serialising concurrent requesters in arrival order.  A
bandwidth pipe is a plain timeline whose owner knows its width: the memory
side's segment methods (``SystemBus.transfer``, ``Cache.access``,
``DRAMModel.access``) book ``overhead + bytes / bytes_per_cycle`` cycles per
transaction inline, with :meth:`Timeline.book`'s comparison and additions,
and count the bytes in their own stats registries.

All times are in cycles of the SoC reference clock and are plain floats so
that fractional-cycle bandwidth accounting stays exact in aggregate.
"""

from __future__ import annotations


class Timeline:
    """A serially reusable resource (single server, FCFS).

    Bookings are granted at ``max(earliest, next_free)``.  Out-of-order
    arrivals (an ``earliest`` in the past relative to ``next_free``) simply
    queue behind prior bookings, which matches first-come-first-served
    arbitration closely enough for transaction-level accuracy.
    """

    __slots__ = ("name", "next_free", "busy_time", "bookings")

    def __init__(self, name: str = "timeline") -> None:
        self.name = name
        self.next_free = 0.0
        self.busy_time = 0.0
        self.bookings = 0

    def book(self, earliest: float, duration: float) -> tuple[float, float]:
        """Reserve ``duration`` cycles at or after ``earliest``.

        Returns ``(start, end)`` of the granted interval.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration!r} on {self.name}")
        start = self.next_free if self.next_free > earliest else earliest
        end = start + duration
        self.next_free = end
        self.busy_time += duration
        self.bookings += 1
        return start, end

    def book_all(self, earliest, durations) -> list[float]:
        """Book a FCFS sequence in order; returns the end times.

        Bitwise the same as calling :meth:`book` once per element: the same
        comparison and the same sequential float additions, so ``next_free``
        and ``busy_time`` end where the per-element loop leaves them.  The
        DMA engine's channel issue scan books a transfer's rows with one call.
        """
        if durations and min(durations) < 0:
            raise ValueError(f"negative duration in booking on {self.name}")
        next_free = self.next_free
        busy = self.busy_time
        ends = []
        append = ends.append
        for e, d in zip(earliest, durations):
            next_free = (next_free if next_free > e else e) + d
            busy += d
            append(next_free)
        self.next_free = next_free
        self.busy_time = busy
        self.bookings += len(ends)
        return ends

    def peek(self, earliest: float) -> float:
        """Return the time at which a booking made now would start."""
        return self.next_free if self.next_free > earliest else earliest

    def utilisation(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this resource spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def reset(self) -> None:
        self.next_free = 0.0
        self.busy_time = 0.0
        self.bookings = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline({self.name!r}, next_free={self.next_free:.1f})"


# Not a class of its own: a name the host-cost benchmark's per-layer tracer
# still resolves (``hostbench/layers.py`` wraps
# ``BandwidthTimeline.transfer`` and raises if the class name is missing).
BandwidthTimeline = Timeline
