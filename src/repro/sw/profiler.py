"""Run profiling: TLB, cache and DMA metrics around model executions.

The paper's co-design studies are driven by exactly these signals: the
private-TLB miss-rate trace of Figure 4, the consecutive-same-page request
fractions of Section V-A, and the L2 miss rates of Figure 9.  The profiler
snapshots component statistics before and after a region of interest and
reports the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.soc.soc import SoC, SoCTile


@dataclass
class TLBProfile:
    requests: int = 0
    filter_hits: int = 0
    private_hits: int = 0
    shared_hits: int = 0
    walks: int = 0
    consecutive_same_read: float = 0.0
    consecutive_same_write: float = 0.0
    miss_rate_trace: list[tuple[float, float]] = field(default_factory=list)

    @property
    def hit_rate_including_filters(self) -> float:
        if not self.requests:
            return 0.0
        return (self.filter_hits + self.private_hits) / self.requests

    @property
    def private_miss_rate(self) -> float:
        reached = self.requests - self.filter_hits
        if not reached:
            return 0.0
        return (reached - self.private_hits) / reached


@dataclass
class MemoryProfile:
    l2_accesses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_bytes: int = 0
    bus_bytes: int = 0

    @property
    def l2_miss_rate(self) -> float:
        if not self.l2_accesses:
            return 0.0
        return self.l2_misses / self.l2_accesses


@dataclass
class ProfileReport:
    tlb: TLBProfile
    memory: MemoryProfile


class RunProfiler:
    """Delta-profiler over one tile and its SoC's shared memory."""

    def __init__(self, soc: SoC, tile: SoCTile | None = None) -> None:
        self.soc = soc
        self.tile = tile or soc.tile
        self._tlb_before: dict[str, int] = {}
        self._mem_before: dict[str, int] = {}
        self._trace_mark = 0

    def start(self) -> "RunProfiler":
        xlat = self.tile.accel.xlat
        self._tlb_before = xlat.stats.snapshot()
        mem = {}
        if self.soc.mem.l2 is not None:
            mem.update({f"l2_{k}": v for k, v in self.soc.mem.l2.stats.snapshot().items()})
        mem["dram_bytes"] = self.soc.mem.dram.bytes_moved
        mem["bus_bytes"] = self.soc.mem.bus.stats.value("bytes")
        self._mem_before = mem
        self._trace_mark = len(xlat.miss_window.series)
        return self

    def stop(self) -> ProfileReport:
        xlat = self.tile.accel.xlat
        after = xlat.stats.snapshot()
        before = self._tlb_before

        def delta(key: str) -> int:
            return after.get(key, 0) - before.get(key, 0)

        def fraction(numerator: str, denominator: str) -> float:
            total = delta(denominator)
            return delta(numerator) / total if total else 0.0

        series = xlat.miss_window.series
        last_time = series.times[-1] if series.times else 0.0
        xlat.miss_window.flush(last_time)
        trace = list(zip(series.times, series.values))[self._trace_mark :]

        tlb = TLBProfile(
            requests=delta("requests"),
            filter_hits=delta("filter_hits"),
            private_hits=delta("private_hits"),
            shared_hits=delta("shared_hits"),
            walks=delta("walks"),
            consecutive_same_read=fraction("consecutive_same_read", "consecutive_read"),
            consecutive_same_write=fraction("consecutive_same_write", "consecutive_write"),
            miss_rate_trace=trace,
        )

        memory = MemoryProfile(dram_bytes=self.soc.mem.dram.bytes_moved - self._mem_before.get("dram_bytes", 0))
        memory.bus_bytes = (
            self.soc.mem.bus.stats.value("bytes") - self._mem_before.get("bus_bytes", 0)
        )
        if self.soc.mem.l2 is not None:
            l2 = self.soc.mem.l2.stats
            memory.l2_accesses = l2.value("accesses") - self._mem_before.get("l2_accesses", 0)
            memory.l2_hits = l2.value("hits") - self._mem_before.get("l2_hits", 0)
            memory.l2_misses = l2.value("misses") - self._mem_before.get("l2_misses", 0)
        return ProfileReport(tlb=tlb, memory=memory)
