"""The composed SoC memory system: system bus -> shared L2 -> DRAM.

One :class:`MemorySystem` instance is shared by every CPU and accelerator on
the SoC, which is exactly how the paper's Figure 5 SoCs are built (per-tile
private scratchpads, one shared L2, one DRAM channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.bus import SystemBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAMConfig, DRAMModel


@dataclass(frozen=True)
class MemorySystemConfig:
    """Parameters of the shared memory system.

    ``l2`` may be ``None`` to model an SoC whose accelerator DMA bypasses the
    cache hierarchy and talks to DRAM directly.
    """

    bus_beat_bytes: int = 16
    l2: CacheConfig | None = field(default_factory=CacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)


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
        ``is_write`` as equal-length lists in issue order (every entry moving
        at least one byte) and gets the list of end times back.  The segment
        goes through the bus in one FCFS scan, then through the L2 (or DRAM)
        in one pass; scalar arguments are the one-element case.
        """
        if not isinstance(now, list) and nbytes <= 0:
            return now
        bus_end = self.bus.transfer(now, nbytes, requester)
        if self.l2 is not None:
            return self.l2.access(bus_end, paddr, nbytes, is_write, requester)
        return self.dram.access(bus_end, paddr, nbytes, is_write)

    def l2_miss_rate(self) -> float:
        return self.l2.miss_rate() if self.l2 is not None else 1.0

    def reset(self) -> None:
        self.bus.reset()
        self.dram.reset()
        if self.l2 is not None:
            self.l2.reset()
