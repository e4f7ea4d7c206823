"""The composed SoC memory system: system bus -> shared L2 -> DRAM.

One :class:`MemorySystem` instance is shared by every CPU and accelerator on
the SoC, which is exactly how the paper's Figure 5 SoCs are built (per-tile
private scratchpads, one shared L2, one DRAM channel).

The bus, the L2 and the DRAM channel each own their configuration, state
(timelines, LRU sets, open rows), statistics and one segment method that
advances them; :meth:`MemorySystem.access` chains the three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.bus import SystemBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAMConfig, DRAMModel


@dataclass(frozen=True)
class MemorySystemConfig:
    """Parameters of the shared memory system.

    ``bus_beat_bytes`` must be a positive power of two.  ``l2`` may be
    ``None`` to model an SoC whose accelerator DMA bypasses the cache
    hierarchy and talks to DRAM directly.
    """

    bus_beat_bytes: int = 16
    l2: CacheConfig | None = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    def __post_init__(self) -> None:
        beat = self.bus_beat_bytes
        if beat <= 0 or beat & (beat - 1):
            raise ValueError(f"bus_beat_bytes must be a positive power of two, got {beat}")


class MemorySystem:
    """Bus + optional shared L2 + DRAM, with per-requester statistics."""

    def __init__(self, config: MemorySystemConfig | None = None) -> None:
        self.config = config or MemorySystemConfig()
        self.bus = SystemBus(self.config.bus_beat_bytes)
        self.dram = DRAMModel(self.config.dram)
        self.l2: Cache | None = None
        if self.config.l2 is not None:
            self.l2 = Cache(self.config.l2, self.dram, name="L2")

    def access(
        self,
        now,
        paddr,
        nbytes,
        is_write,
        requester: str = "",
    ):
        """Move ``nbytes`` at physical address ``paddr``; returns end time.

        A segment of accesses passes ``now``, ``paddr``, ``nbytes`` and
        ``is_write`` as equal-length lists in issue order and gets the list
        of end times back.  Every entry of a segment must move at least one
        byte (``ValueError`` otherwise).  Scalar arguments are the
        one-element case; a scalar access of no bytes ends at ``now`` and
        touches nothing.

        A segment moves through the levels in one call per component:
        :meth:`SystemBus.transfer` books the bus (``overhead + n /
        beat_bytes``, FCFS), then :meth:`Cache.access` walks each access's
        lines through the LRU sets, sends the segment's victim writebacks
        and line fetches to :meth:`DRAMModel.access` in one call, and books
        the L2 port at ``bus_end + hit_latency``.  Without an L2, each
        access is one DRAM request of its own size.  Every
        booking makes ``Timeline.book``'s comparison and sequential float
        additions, in the order one booking at a time makes them; each
        timeline and counter is written back once per segment.
        """
        if not isinstance(now, list):
            if nbytes <= 0:
                return now
            return self.access([now], [paddr], [nbytes], [is_write], requester)[0]
        if min(nbytes, default=1) < 1:
            raise ValueError("every access of a segment must move at least one byte")
        ends = self.bus.transfer(now, nbytes, requester)
        if self.l2 is None:
            return self.dram.access(ends, paddr, nbytes, sum(map(bool, is_write)))
        return self.l2.access(ends, paddr, nbytes, is_write, requester)

    def l2_miss_rate(self) -> float:
        return self.l2.miss_rate() if self.l2 is not None else 1.0

    def reset(self) -> None:
        self.bus.reset()
        self.dram.reset()
        if self.l2 is not None:
            self.l2.reset()
