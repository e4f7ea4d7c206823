"""Set-associative write-back cache model (the SoC's shared L2).

The cache is the central shared resource of the paper's Section V-B case
study: convolutions want scratchpad, residual additions want their layer
outputs to *survive in the L2* until consumed several layers later, and in
dual-core SoCs the two processes' working sets evict each other.  Those
behaviours all emerge from an ordinary set-associative LRU model, which is
what this module provides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.stats import StatsRegistry
from repro.sim.timeline import Timeline


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int = 1 << 20
    ways: int = 8
    line_bytes: int = 64
    hit_latency: float = 20.0
    bytes_per_cycle: float = 64.0
    writeback: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        if self.ways <= 0:
            raise ValueError("ways must be positive")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError("size must be divisible by line_bytes * ways")
        if self.bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


class Cache:
    """A write-back, write-allocate, LRU set-associative cache.

    ``lower`` is the level its misses go to: anything with a
    ``access(now, addr, nbytes, writes)`` segment method, such as
    :class:`repro.mem.dram.DRAMModel`.  Each set is a plain ``dict`` from
    resident line index to dirty flag whose insertion order is the LRU
    order (oldest first).
    """

    def __init__(self, config: CacheConfig, lower, name: str = "L2") -> None:
        self.config = config
        self.lower = lower
        self.name = name
        self.port = Timeline(f"{name}.port")
        self.stats = StatsRegistry(owner=name)
        self._sets: list[dict[int, bool]] = [{} for _ in range(config.num_sets)]
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._line = config.line_bytes

    def access(
        self, now: list, addr: list, nbytes: list, is_write: list, requester: str = ""
    ) -> list:
        """Serve one segment of accesses in issue order; returns their end times.

        ``now``, ``addr``, ``nbytes`` and ``is_write`` are equal-length
        lists.  The first loop walks each access's lines through the sets:
        a hit pops its line and re-inserts it, a miss evicts the set's
        first key when the set is full and inserts the line
        (write-allocate).  Each miss asks the lower level for its dirty
        victim's writeback, then its line fetch, at the access's ``now``;
        all of the segment's requests go down in one ``lower.access`` call.
        The second loop books each access on the port at
        ``now + hit_latency`` and ends it at the later of its port end and
        its last lower-level end (the lower level's ends only grow).  Set
        contents never depend on timing, so walking first changes no
        booking.  The port and each counter are written back once.
        """
        line = self._line
        num_sets = self._num_sets
        ways_limit = self._ways
        sets = self._sets
        writeback = self.config.writeback
        # Each access's last lower-level request, or -1 if it hit throughout.
        last: list[int] = []
        last_append = last.append
        low_t: list[float] = []
        low_t_append = low_t.append
        low_addr: list[int] = []
        low_addr_append = low_addr.append
        lines = misses = evictions = writebacks = 0
        for t, a, nb, w in zip(now, addr, nbytes, is_write):
            missed = misses
            first = a // line
            stop = (a + nb - 1) // line + 1
            lines += stop - first
            for index in range(first, stop):
                ways = sets[index % num_sets]
                dirty = ways.pop(index, None)
                if dirty is not None:
                    ways[index] = True if w else dirty
                    continue
                misses += 1
                if len(ways) >= ways_limit:
                    victim = next(iter(ways))
                    evictions += 1
                    if ways.pop(victim) and writeback:
                        writebacks += 1
                        low_t_append(t)
                        low_addr_append(victim * line)
                # Fetch the missing line from below (write-allocate).
                low_t_append(t)
                low_addr_append(index * line)
                ways[index] = w
            last_append(misses + writebacks - 1 if misses != missed else -1)

        low_ends: list[float] = []
        if low_t:
            low_ends = self.lower.access(low_t, low_addr, [line] * len(low_t), writebacks)

        hit_latency = self.config.hit_latency
        bytes_per_cycle = float(self.config.bytes_per_cycle)
        timeline = self.port
        next_free = timeline.next_free
        busy = timeline.busy_time
        ends: list[float] = []
        append = ends.append
        for t, nb, k in zip(now, nbytes, last):
            e = t + hit_latency
            d = nb / bytes_per_cycle
            next_free = (next_free if next_free > e else e) + d
            busy += d
            if k >= 0:
                t = low_ends[k]
            append(t if t > next_free else next_free)

        n = len(ends)
        writes = sum(map(bool, is_write))
        timeline.next_free = next_free
        timeline.busy_time = busy
        timeline.bookings += n
        stats = self.stats
        stats.add("hits", lines - misses)
        stats.add("misses", misses)
        stats.add("accesses", lines)
        if writes:
            stats.add("writes", writes)
        if n - writes:
            stats.add("reads", n - writes)
        if evictions:
            stats.add("evictions", evictions)
        if writebacks:
            stats.add("writebacks", writebacks)
        if requester:
            stats.add(f"hits_{requester}", lines - misses)
            stats.add(f"misses_{requester}", misses)
        return ends

    def probe(self, addr: int) -> bool:
        """True if the line containing ``addr`` is currently resident."""
        index = addr // self._line
        return index in self._sets[index % self._num_sets]

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def miss_rate(self) -> float:
        return self.stats.ratio("misses", "accesses")

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.port.reset()
        self.stats.reset()
