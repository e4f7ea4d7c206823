"""Set-associative write-back cache model (the SoC's shared L2).

The cache is the central shared resource of the paper's Section V-B case
study: convolutions want scratchpad, residual additions want their layer
outputs to *survive in the L2* until consumed several layers later, and in
dual-core SoCs the two processes' working sets evict each other.  Those
behaviours all emerge from an ordinary set-associative LRU model, which is
what this module provides.
"""

from __future__ import annotations

from collections import OrderedDict
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

    ``lower`` is any object exposing ``access(now, addr, nbytes, is_write)``
    in both the scalar and the segment (parallel lists) form — in practice
    a :class:`~repro.mem.dram.DRAMModel` or another :class:`Cache`.
    """

    def __init__(self, config: CacheConfig, lower, name: str = "L2") -> None:
        self.config = config
        self.lower = lower
        self.name = name
        self.port = BandwidthTimeline(f"{name}.port", config.bytes_per_cycle)
        self.stats = StatsRegistry(owner=name)
        # One LRU structure per set: OrderedDict maps tag -> dirty flag.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._line = config.line_bytes

    # ------------------------------------------------------------------ #
    # Timing + functional access                                         #
    # ------------------------------------------------------------------ #

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
        line = self._line
        num_sets = self._num_sets
        ways_limit = self._ways
        sets = self._sets
        writeback = self.config.writeback
        hits = misses = evictions = writebacks = writes = 0
        # Lower-level requests in issue order; ``low_owner`` maps each back
        # to the access that made it.
        low_t: list[float] = []
        low_addr: list[int] = []
        low_write: list[bool] = []
        low_owner: list[int] = []

        for i, (t, a, nb, w) in enumerate(zip(now, addr, nbytes, is_write)):
            if w:
                writes += 1
            for index in range(a // line, (a + nb - 1) // line + 1):
                set_index = index % num_sets
                tag = index // num_sets
                ways = sets[set_index]
                if tag in ways:
                    hits += 1
                    ways.move_to_end(tag)
                    if w:
                        ways[tag] = True
                else:
                    misses += 1
                    if len(ways) >= ways_limit:
                        victim_tag, victim_dirty = ways.popitem(last=False)
                        evictions += 1
                        if victim_dirty and writeback:
                            writebacks += 1
                            low_t.append(t)
                            low_addr.append((victim_tag * num_sets + set_index) * line)
                            low_write.append(True)
                            low_owner.append(i)
                    # Fetch the missing line from below (write-allocate).
                    low_t.append(t)
                    low_addr.append(index * line)
                    low_write.append(False)
                    low_owner.append(i)
                    ways[tag] = w

        lower_end = list(now)
        if low_t:
            low_ends = self.lower.access(low_t, low_addr, [line] * len(low_t), low_write)
            # Each access waits for the last of its lower-level requests.
            for owner, end in zip(low_owner, low_ends):
                if end > lower_end[owner]:
                    lower_end[owner] = end

        stats = self.stats
        stats.counter("hits").add(hits)
        stats.counter("misses").add(misses)
        stats.counter("accesses").add(hits + misses)
        if writes:
            stats.counter("writes").add(writes)
        if len(now) - writes:
            stats.counter("reads").add(len(now) - writes)
        if evictions:
            stats.counter("evictions").add(evictions)
        if writebacks:
            stats.counter("writebacks").add(writebacks)
        if requester:
            stats.counter(f"hits_{requester}").add(hits)
            stats.counter(f"misses_{requester}").add(misses)

        hit_latency = self.config.hit_latency
        port_end = self.port.transfer_all([t + hit_latency for t in now], nbytes)
        return list(map(max, port_end, lower_end))

    def access_batch(self, now, addr, nbytes, is_write, requester: str = ""):
        """Perform a whole FCFS sequence of accesses; returns end times.

        Aggregate-equivalent to calling :meth:`access` in a loop: the LRU
        sets evolve through the identical hit/miss/evict decisions (same
        python structures, so mixing scalar and batched access is safe), the
        lower level sees the same requests in the same order (batched when
        it exposes ``access_batch``), and counters land in one aggregated
        add per name.  Port and lower-level end times match the scalar loop
        up to float association (see ``Timeline.book_batch``).
        """
        import numpy as np

        now = np.asarray(now, dtype=np.float64)
        addr = np.asarray(addr, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        n = now.size
        if n == 0:
            return now
        if int(nbytes.min()) <= 0:
            raise ValueError("batched cache accesses must move at least one byte")
        cfg = self.config
        line = self._line
        num_sets = self._num_sets
        ways_limit = self._ways
        sets = self._sets
        first = (addr // line).tolist()
        last = ((addr + nbytes - 1) // line).tolist()
        writes_list = is_write.tolist()
        now_list = now.tolist()

        hits = 0
        misses = 0
        evictions = 0
        writebacks = 0
        writeback_enabled = cfg.writeback
        # Lower-level requests (earliest, addr, is_write, owner), in exactly
        # the order the scalar loop would issue them; ``owner`` maps each
        # back to its originating access.
        low: list[tuple] = []
        low_append = low.append

        for i, (t, w, lo, hi) in enumerate(zip(now_list, writes_list, first, last)):
            for index in range(lo, hi + 1):
                set_index = index % num_sets
                ways = sets[set_index]
                tag = index // num_sets
                if tag in ways:
                    hits += 1
                    ways.move_to_end(tag)
                    if w:
                        ways[tag] = True
                else:
                    misses += 1
                    if len(ways) >= ways_limit:
                        victim_tag, victim_dirty = ways.popitem(last=False)
                        evictions += 1
                        if victim_dirty and writeback_enabled:
                            writebacks += 1
                            low_append((t, (victim_tag * num_sets + set_index) * line, True, i))
                    low_append((t, index * line, False, i))
                    ways[tag] = w

        lower_end = now.copy()
        if low:
            low_earliest, low_addr, low_write, low_owner = zip(*low)
            nlines = np.full(len(low), line, dtype=np.int64)
            if hasattr(self.lower, "access_batch"):
                low_ends = self.lower.access_batch(
                    np.asarray(low_earliest), np.asarray(low_addr), nlines, np.asarray(low_write)
                )
            else:
                low_ends = np.asarray(
                    [
                        self.lower.access(t, a, line, w)
                        for t, a, w in zip(low_earliest, low_addr, low_write)
                    ]
                )
            # Per-access completion of the last lower request: owners are
            # nondecreasing, so a segment-max (reduceat) replaces the very
            # slow np.maximum.at scatter.
            owners = np.asarray(low_owner, dtype=np.int64)
            starts = np.empty(0, dtype=np.int64)
            if owners.size:
                starts = np.nonzero(np.diff(owners))[0] + 1
                starts = np.concatenate(([0], starts))
            seg_max = np.maximum.reduceat(low_ends, starts)
            idx = owners[starts]
            lower_end[idx] = np.maximum(lower_end[idx], seg_max)

        stats = self.stats
        stats.counter("hits").add(hits)
        stats.counter("misses").add(misses)
        stats.counter("accesses").add(hits + misses)
        n_writes = int(is_write.sum())
        if n_writes:
            stats.counter("writes").add(n_writes)
        if n - n_writes:
            stats.counter("reads").add(n - n_writes)
        if evictions:
            stats.counter("evictions").add(evictions)
        if writebacks:
            stats.counter("writebacks").add(writebacks)
        if requester:
            stats.counter(f"hits_{requester}").add(hits)
            stats.counter(f"misses_{requester}").add(misses)

        port_end = self.port.transfer_batch(now + cfg.hit_latency, nbytes)
        return np.maximum(port_end, lower_end)

    # ------------------------------------------------------------------ #
    # Inspection / maintenance                                            #
    # ------------------------------------------------------------------ #

    def probe(self, addr: int) -> bool:
        """True if the line containing ``addr`` is currently resident."""
        index = addr // self._line
        return (index // self._num_sets) in self._sets[index % self._num_sets]

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def flush(self, now: float = 0.0) -> float:
        """Write back all dirty lines and invalidate; returns completion time."""
        end = now
        for set_index, ways in enumerate(self._sets):
            for tag, dirty in ways.items():
                if dirty and self.config.writeback:
                    addr = (tag * self._num_sets + set_index) * self._line
                    end = self.lower.access(end, addr, self._line, True)
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
