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
from repro.sim.timeline import BandwidthTimeline


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

    ``lower`` is a :class:`~repro.mem.dram.DRAMModel`: :meth:`access` hands
    it the L2's lower-level requests as one segment (parallel lists).  Each
    set is a plain ``dict`` from resident line index to dirty flag whose
    insertion order is the LRU order (oldest first); :meth:`_walk` is the
    one LRU pass.
    """

    def __init__(self, config: CacheConfig, lower, name: str = "L2") -> None:
        self.config = config
        self.lower = lower
        self.name = name
        self.port = BandwidthTimeline(f"{name}.port", config.bytes_per_cycle)
        self.stats = StatsRegistry(owner=name)
        self._sets: list[dict[int, bool]] = [{} for _ in range(config.num_sets)]
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._line = config.line_bytes

    # ------------------------------------------------------------------ #
    # Timing + functional access                                         #
    # ------------------------------------------------------------------ #

    def _walk(self, now, addr, nbytes, is_write, requester):
        """Run a sequence of accesses through the LRU sets, in issue order.

        Takes plain lists, adds each counter once and returns the
        lower-level requests (victim writebacks and line fetches) as four
        parallel lists ``(t, addr, write, owner)`` in issue order, where
        ``owner`` maps each request back to the access that made it.
        """
        line = self._line
        num_sets = self._num_sets
        ways_limit = self._ways
        sets = self._sets
        writeback = self.config.writeback
        lines = evictions = writebacks = 0
        low_t: list[float] = []
        low_addr: list[int] = []
        low_write: list[bool] = []
        low_owner: list[int] = []

        for i, (t, a, nb, w) in enumerate(zip(now, addr, nbytes, is_write)):
            first = a // line
            stop = (a + nb - 1) // line + 1
            lines += stop - first
            for index in range(first, stop):
                ways = sets[index % num_sets]
                dirty = ways.pop(index, None)
                if dirty is not None:
                    ways[index] = True if w else dirty
                    continue
                if len(ways) >= ways_limit:
                    victim = next(iter(ways))
                    evictions += 1
                    if ways.pop(victim) and writeback:
                        writebacks += 1
                        low_t.append(t)
                        low_addr.append(victim * line)
                        low_write.append(True)
                        low_owner.append(i)
                # Fetch the missing line from below (write-allocate).
                low_t.append(t)
                low_addr.append(index * line)
                low_write.append(False)
                low_owner.append(i)
                ways[index] = w

        # Every miss made exactly one fetch.
        misses = len(low_t) - writebacks
        writes = sum(map(bool, is_write))
        stats = self.stats
        stats.counter("hits").add(lines - misses)
        stats.counter("misses").add(misses)
        stats.counter("accesses").add(lines)
        if writes:
            stats.counter("writes").add(writes)
        if len(now) - writes:
            stats.counter("reads").add(len(now) - writes)
        if evictions:
            stats.counter("evictions").add(evictions)
        if writebacks:
            stats.counter("writebacks").add(writebacks)
        if requester:
            stats.counter(f"hits_{requester}").add(lines - misses)
            stats.counter(f"misses_{requester}").add(misses)
        return low_t, low_addr, low_write, low_owner

    def access(
        self,
        now,
        addr,
        nbytes,
        is_write,
        requester: str = "",
    ):
        """Access a contiguous byte range; returns the completion time.

        The range is decomposed into cache lines.  Hits are served at the
        cache port bandwidth after ``hit_latency``; each miss fetches the
        line from the lower level (plus a writeback if the victim is dirty).

        A segment of accesses passes ``now``, ``addr``, ``nbytes`` and
        ``is_write`` as equal-length lists in issue order (every entry moving
        at least one byte) and gets the list of completion times back.  The
        segment walks the LRU sets once, hands every lower-level request it
        produced to ``lower.access`` in one segment call, books the port in
        one scan and adds each counter once.  Scalar arguments are the
        one-element case.
        """
        if not isinstance(now, list):
            if nbytes <= 0:
                return now
            return self.access([now], [addr], [nbytes], [is_write], requester)[0]
        low_t, low_addr, low_write, low_owner = self._walk(now, addr, nbytes, is_write, requester)
        lower_end = list(now)
        if low_t:
            low_ends = self.lower.access(low_t, low_addr, [self._line] * len(low_t), low_write)
            # Each access waits for the last of its lower-level requests.
            for owner, end in zip(low_owner, low_ends):
                if end > lower_end[owner]:
                    lower_end[owner] = end

        hit_latency = self.config.hit_latency
        port_end = self.port.transfer_all([t + hit_latency for t in now], nbytes)
        return list(map(max, port_end, lower_end))

    # ------------------------------------------------------------------ #
    # Inspection / maintenance                                            #
    # ------------------------------------------------------------------ #

    def probe(self, addr: int) -> bool:
        """True if the line containing ``addr`` is currently resident."""
        index = addr // self._line
        return index in self._sets[index % self._num_sets]

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def flush(self, now: float = 0.0) -> float:
        """Write back all dirty lines and invalidate; returns completion time.

        Writebacks go out set by set, each set oldest line first.
        """
        end = now
        for ways in self._sets:
            for index, dirty in ways.items():
                if dirty and self.config.writeback:
                    end = self.lower.access(end, index * self._line, self._line, True)
                    self.stats.counter("writebacks").add()
            ways.clear()
        return end

    def miss_rate(self) -> float:
        return self.stats.ratio("misses", "accesses")

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.port.reset()
        self.stats.reset()
