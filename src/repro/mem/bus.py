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
    """A shared bus with a beat width in bytes and one-cycle arbitration."""

    def __init__(self, beat_bytes: int = 16, name: str = "sysbus") -> None:
        if beat_bytes <= 0 or beat_bytes & (beat_bytes - 1):
            raise ValueError("beat_bytes must be a positive power of two")
        self.beat_bytes = beat_bytes
        self.name = name
        self.channel = BandwidthTimeline(name, bytes_per_cycle=beat_bytes, overhead=1.0)
        self.stats = StatsRegistry(owner=name)

    def transfer(self, now, nbytes, requester: str = ""):
        """Move ``nbytes`` across the bus; returns the completion time.

        A segment of transfers passes ``now`` and ``nbytes`` as equal-length
        lists in issue order (every entry moving at least one byte) and gets
        the list of completion times back: one FCFS scan of the channel and
        one add per counter.  Scalar arguments are the one-element case.
        """
        if not isinstance(now, list):
            return self.transfer([now], [nbytes], requester)[0] if nbytes > 0 else now
        total = sum(nbytes)
        stats = self.stats
        stats.counter("transactions").add(len(nbytes))
        stats.counter("bytes").add(total)
        if requester:
            stats.counter(f"bytes_{requester}").add(total)
        return self.channel.transfer_all(now, nbytes)

    def utilisation(self, horizon: float) -> float:
        return self.channel.utilisation(horizon)

    def reset(self) -> None:
        self.channel.reset()
        self.stats.reset()
