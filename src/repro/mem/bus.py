"""System-bus model: the TileLink-style crossbar between masters and the L2.

The paper lists "bus widths between accelerators and host CPUs" as an
SoC-level parameter (Section III-C).  The bus is a shared bandwidth resource:
wider buses move DMA rows in fewer cycles, and multiple masters (two
CPU+accelerator tiles in Figure 5) contend for the same beats.
"""

from __future__ import annotations

from repro.sim.stats import StatsRegistry
from repro.sim.timeline import BandwidthTimeline


class SystemBus:
    """A shared bus with a beat width in bytes and one-cycle arbitration.

    A transaction of ``n`` bytes occupies the channel ``1 + n / beat_bytes``
    cycles.  :class:`~repro.mem.hierarchy.MemorySystemConfig` validates the
    width.
    """

    def __init__(self, beat_bytes: int = 16, name: str = "sysbus") -> None:
        self.beat_bytes = beat_bytes
        self.name = name
        self.channel = BandwidthTimeline(name, bytes_per_cycle=beat_bytes, overhead=1.0)
        self.stats = StatsRegistry(owner=name)

    def transfer(self, now: list, nbytes: list, requester: str = "") -> list:
        """Move one segment of transactions across the bus; returns their end times.

        ``now`` and ``nbytes`` are equal-length lists in issue order.  One
        FCFS loop makes :meth:`~repro.sim.timeline.Timeline.book`'s
        comparison and sequential float additions per transaction; the
        channel and each counter are written back once.
        """
        channel = self.channel
        overhead = channel.overhead
        beat = channel.bytes_per_cycle
        timeline = channel.inner
        next_free = timeline.next_free
        busy = timeline.busy_time
        ends: list[float] = []
        append = ends.append
        for t, nb in zip(now, nbytes):
            d = overhead + nb / beat
            next_free = (next_free if next_free > t else t) + d
            busy += d
            append(next_free)
        n = len(ends)
        total = sum(nbytes)
        timeline.next_free = next_free
        timeline.busy_time = busy
        timeline.bookings += n
        channel.bytes_moved += total
        stats = self.stats
        stats.counter("transactions").add(n)
        stats.counter("bytes").add(total)
        if requester:
            stats.counter(f"bytes_{requester}").add(total)
        return ends

    def utilisation(self, horizon: float) -> float:
        return self.channel.utilisation(horizon)

    def reset(self) -> None:
        self.channel.reset()
        self.stats.reset()
