"""Resource timelines: the core timing primitive of the simulator.

A :class:`Timeline` models a unit that can serve one transaction at a time
(an SRAM port, a page-table walker, a DMA channel).  A
:class:`BandwidthTimeline` models a pipe with a byte-per-cycle capacity (a
system bus, a DRAM channel).  Components *book* work on timelines; the
timeline returns the interval actually granted, serialising concurrent
requesters in arrival order.  The memory side's segment methods
(``SystemBus.transfer``, ``Cache.access``, ``DRAMModel.access``) book their
pipes inline, with :meth:`Timeline.book`'s comparison and additions.

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


class BandwidthTimeline:
    """A shared pipe with finite bytes-per-cycle capacity.

    Transfers occupy the pipe for ``overhead + bytes / bytes_per_cycle``
    cycles (``overhead`` is fixed per transaction), serialised FCFS on
    ``inner``; ``bytes_moved`` counts what went through.  This is the standard
    transaction-level model for buses and DRAM channels: it conserves total
    bandwidth under contention, which is the property the paper's dual-core
    experiments depend on.
    """

    __slots__ = ("name", "bytes_per_cycle", "overhead", "inner", "bytes_moved")

    def __init__(self, name: str, bytes_per_cycle: float, overhead: float = 0.0) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.name = name
        self.bytes_per_cycle = float(bytes_per_cycle)
        self.overhead = float(overhead)
        self.inner = Timeline(name)
        self.bytes_moved = 0

    @property
    def next_free(self) -> float:
        return self.inner.next_free

    @property
    def busy_time(self) -> float:
        return self.inner.busy_time

    def utilisation(self, horizon: float) -> float:
        return self.inner.utilisation(horizon)

    def reset(self) -> None:
        self.inner.reset()
        self.bytes_moved = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BandwidthTimeline({self.name!r}, {self.bytes_per_cycle} B/cyc, "
            f"next_free={self.next_free:.1f})"
        )
