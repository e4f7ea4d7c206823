"""Single-channel DRAM model: fixed access latency plus finite bandwidth.

The paper's SoCs use a single DDR channel behind the system bus.  At
transaction level the two properties that shape the evaluation are (1) the
random-access latency a cache miss pays and (2) the channel bandwidth all
requesters share.  Both are first-class parameters here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.stats import StatsRegistry
from repro.sim.timeline import Timeline


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM channel parameters, in cycles of the SoC reference clock.

    The defaults approximate a LPDDR4-class part behind a 1 GHz SoC: ~100 ns
    random access latency and ~16 GB/s of peak bandwidth.

    ``activate_occupancy`` models the channel time a row activation steals
    (precharge + ACT, tRC-class timing): streaming accesses that stay in an
    open row sustain full bandwidth, while interleaved streams — e.g. two
    cores' DMA engines ping-ponging between address regions — keep
    re-activating rows and lose effective bandwidth.  This is the mechanism
    that makes shared-L2 residency valuable under multi-core contention
    (the paper's Figure 9c).
    """

    access_latency: float = 100.0
    bytes_per_cycle: float = 16.0
    row_buffer_bytes: int = 1024
    row_hit_latency: float = 25.0
    activate_occupancy: float = 24.0
    #: independent banks, each with its own open row: concurrent streams in
    #: different banks keep their row locality (FR-FCFS-style scheduling)
    num_banks: int = 8

    def __post_init__(self) -> None:
        if self.access_latency < 0 or self.row_hit_latency < 0:
            raise ValueError("DRAM latencies must be non-negative")
        if self.bytes_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")
        if self.row_buffer_bytes <= 0:
            raise ValueError("row_buffer_bytes must be positive")
        if self.activate_occupancy < 0:
            raise ValueError("activate_occupancy must be non-negative")
        if self.num_banks < 1:
            raise ValueError("num_banks must be >= 1")


class DRAMModel:
    """A DRAM channel with open-row locality and FCFS channel arbitration.

    Consecutive accesses that fall in the currently open row pay the (lower)
    row-hit latency; others pay the full access latency.  Data occupies the
    channel for ``bytes / bytes_per_cycle`` cycles — this serialisation is
    what creates bandwidth contention between cores in multi-core runs.
    The ``bytes`` counter of :attr:`stats` is the channel's one byte count.
    """

    def __init__(self, config: DRAMConfig | None = None, name: str = "dram") -> None:
        self.config = config or DRAMConfig()
        self.name = name
        self.channel = Timeline(name)
        self.stats = StatsRegistry(owner=name)
        self._open_rows: dict[int, int] = {}

    def access(self, now: list, addr: list, nbytes: list, writes: int) -> list:
        """Serve one segment of requests in issue order; returns their end times.

        ``now``, ``addr`` and ``nbytes`` are equal-length lists; ``writes``
        is how many of the requests are writes (it splits the counters only,
        timing does not depend on direction).  One loop classifies each
        request against its bank's open row and advances the channel's FCFS
        recurrence in place: a row miss books its activate and pays
        ``access_latency``, a row hit pays ``row_hit_latency``, then the
        request books its data transfer, with
        :meth:`~repro.sim.timeline.Timeline.book`'s comparison and
        sequential float additions.  The channel and each counter are
        written back once.
        """
        cfg = self.config
        row_bytes = cfg.row_buffer_bytes
        num_banks = cfg.num_banks
        row_hit_latency = cfg.row_hit_latency
        access_latency = cfg.access_latency
        # DRAMConfig rejects a negative activate and every entry moves a
        # byte, so no booking can have a negative duration.
        activate = cfg.activate_occupancy
        open_rows = self._open_rows
        bytes_per_cycle = float(cfg.bytes_per_cycle)
        timeline = self.channel
        next_free = timeline.next_free
        busy = timeline.busy_time
        ends: list[float] = []
        append = ends.append
        row_hits = 0
        for t, a, nb in zip(now, addr, nbytes):
            row = a // row_bytes
            bank = row % num_banks
            if open_rows.get(bank) == row:
                row_hits += 1
                start = t + row_hit_latency
            else:
                open_rows[bank] = row
                if activate:
                    # The activate/precharge turnaround blocks the channel.
                    next_free = (next_free if next_free > t else t) + activate
                    busy += activate
                start = t + access_latency
            duration = nb / bytes_per_cycle
            next_free = (next_free if next_free > start else start) + duration
            busy += duration
            append(next_free)

        n = len(now)
        row_misses = n - row_hits
        total = sum(nbytes)
        timeline.next_free = next_free
        timeline.busy_time = busy
        timeline.bookings += n + row_misses if activate else n
        stats = self.stats
        if row_hits:
            stats.add("row_hits", row_hits)
        if row_misses:
            stats.add("row_misses", row_misses)
        if writes:
            stats.add("writes", writes)
        if n - writes:
            stats.add("reads", n - writes)
        if total:
            stats.add("bytes", total)
        return ends

    @property
    def bytes_moved(self) -> int:
        """Bytes the channel has moved: its ``bytes`` counter."""
        return self.stats.value("bytes")

    def reset(self) -> None:
        self.channel.reset()
        self.stats.reset()
        self._open_rows.clear()
