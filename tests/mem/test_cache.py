"""Unit tests for the set-associative write-back cache."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAMConfig, DRAMModel


def make_cache(size=1024, ways=2, line=64, **kwargs):
    dram = DRAMModel(DRAMConfig(access_latency=100, bytes_per_cycle=16))
    cache = Cache(CacheConfig(size_bytes=size, ways=ways, line_bytes=line, **kwargs), dram)
    return cache, dram


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=1 << 20, ways=8, line_bytes=64)
        assert cfg.num_sets == (1 << 20) // (8 * 64)
        assert cfg.num_lines == (1 << 20) // 64

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, ways=3, line_bytes=64)
        with pytest.raises(ValueError):
            CacheConfig(line_bytes=48)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)


class TestCacheBehaviour:
    def test_cold_miss_then_hit(self):
        cache, __ = make_cache()
        cache.access(0.0, 0, 64, False)
        cache.access(0.0, 0, 64, False)
        assert cache.stats.value("misses") == 1
        assert cache.stats.value("hits") == 1

    def test_miss_fetches_from_lower(self):
        cache, dram = make_cache()
        cache.access(0.0, 0, 64, False)
        assert dram.stats.value("reads") == 1

    def test_hit_does_not_touch_lower(self):
        cache, dram = make_cache()
        cache.access(0.0, 0, 64, False)
        before = dram.stats.value("reads")
        cache.access(0.0, 0, 64, False)
        assert dram.stats.value("reads") == before

    def test_multi_line_access_counts_each_line(self):
        cache, __ = make_cache()
        cache.access(0.0, 0, 256, False)
        assert cache.stats.value("accesses") == 4

    def test_lru_eviction_order(self):
        # 2-way, set 0 holds lines 0 and num_sets; a third line in the same
        # set must evict the least recently used one.
        cache, __ = make_cache(size=1024, ways=2, line=64)
        num_sets = cache.config.num_sets
        a, b, c = 0, num_sets * 64, 2 * num_sets * 64
        cache.access(0.0, a, 64, False)
        cache.access(0.0, b, 64, False)
        cache.access(0.0, a, 64, False)  # refresh a
        cache.access(0.0, c, 64, False)  # evicts b
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_dirty_eviction_writes_back(self):
        cache, dram = make_cache(size=1024, ways=1, line=64)
        num_sets = cache.config.num_sets
        cache.access(0.0, 0, 64, True)  # dirty line
        cache.access(0.0, num_sets * 64, 64, False)  # evicts it
        assert cache.stats.value("writebacks") == 1
        assert dram.stats.value("writes") == 1

    def test_clean_eviction_no_writeback(self):
        cache, __ = make_cache(size=1024, ways=1, line=64)
        num_sets = cache.config.num_sets
        cache.access(0.0, 0, 64, False)
        cache.access(0.0, num_sets * 64, 64, False)
        assert cache.stats.value("writebacks") == 0

    def test_flush_writes_dirty_lines(self):
        cache, dram = make_cache()
        cache.access(0.0, 0, 64, True)
        cache.access(0.0, 64, 64, False)
        cache.flush()
        assert cache.resident_lines() == 0
        assert dram.stats.value("writes") == 1

    def test_capacity_thrash(self):
        # Streaming 2x the capacity twice gives ~zero hits with LRU.
        cache, __ = make_cache(size=1024, ways=2, line=64)
        for __pass in range(2):
            for addr in range(0, 2048, 64):
                cache.access(0.0, addr, 64, False)
        assert cache.stats.value("hits") == 0
        assert cache.miss_rate() == 1.0

    def test_working_set_fits(self):
        cache, __ = make_cache(size=1024, ways=2, line=64)
        for __pass in range(3):
            for addr in range(0, 1024, 64):
                cache.access(0.0, addr, 64, False)
        assert cache.stats.value("misses") == 16  # cold only
        assert cache.stats.value("hits") == 32

    def test_requester_tagging(self):
        cache, __ = make_cache()
        cache.access(0.0, 0, 64, False, requester="g0")
        cache.access(0.0, 0, 64, False, requester="g1")
        assert cache.stats.value("misses_g0") == 1
        assert cache.stats.value("hits_g1") == 1

    def test_zero_bytes_noop(self):
        cache, __ = make_cache()
        assert cache.access(3.0, 0, 0, False) == 3.0

    def test_miss_slower_than_hit(self):
        cache, __ = make_cache()
        t_miss = cache.access(0.0, 0, 64, False)
        t_hit = cache.access(t_miss, 0, 64, False) - t_miss
        assert t_hit < t_miss

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    def test_residency_bounded_by_ways(self, line_indices):
        cache, __ = make_cache(size=1024, ways=2, line=64)
        for index in line_indices:
            cache.access(0.0, index * 64, 64, False)
        assert cache.resident_lines() <= cache.config.num_lines
        for ways in cache._sets:
            assert len(ways) <= cache.config.ways

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=60))
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache, __ = make_cache()
        for addr in addrs:
            cache.access(0.0, addr, 32, False)
        stats = cache.stats
        assert stats.value("hits") + stats.value("misses") == stats.value("accesses")


# ---------------------------------------------------------------------- #
# Oracle: the LRU walk against a tag-keyed OrderedDict reference          #
# ---------------------------------------------------------------------- #


class ReferenceL2:
    """The L2's functional behaviour as one scalar loop per line.

    Each set is an ``OrderedDict`` from tag to dirty flag (LRU first); a line's
    set is ``index % num_sets`` and its tag ``index // num_sets``.  It keeps
    the counters the way :class:`Cache` adds them (one add per name per
    call, the conditional ones only when nonzero) and records the lower-level
    requests ``(t, addr, nbytes, is_write)`` in issue order.
    """

    def __init__(self, config):
        self.config = config
        self.sets = [OrderedDict() for __ in range(config.num_sets)]
        self.counters = {}
        self.lower = []

    def _add(self, name, value, always=False):
        if value or always:
            self.counters[name] = self.counters.get(name, 0) + value

    def access(self, now, addr, nbytes, is_write, requester=""):
        """One call of ``n`` accesses, as parallel lists."""
        line, num_sets = self.config.line_bytes, self.config.num_sets
        hits = misses = evictions = writebacks = 0
        for t, a, nb, w in zip(now, addr, nbytes, is_write):
            for index in range(a // line, (a + nb - 1) // line + 1):
                set_index, tag = index % num_sets, index // num_sets
                ways = self.sets[set_index]
                if tag in ways:
                    hits += 1
                    ways.move_to_end(tag)
                    if w:
                        ways[tag] = True
                    continue
                misses += 1
                if len(ways) >= self.config.ways:
                    victim_tag, victim_dirty = ways.popitem(last=False)
                    evictions += 1
                    if victim_dirty and self.config.writeback:
                        writebacks += 1
                        victim_addr = (victim_tag * num_sets + set_index) * line
                        self.lower.append((t, victim_addr, line, True))
                self.lower.append((t, index * line, line, False))
                ways[tag] = w
        writes = sum(is_write)
        self._add("hits", hits, always=True)
        self._add("misses", misses, always=True)
        self._add("accesses", hits + misses, always=True)
        self._add("writes", writes)
        self._add("reads", len(now) - writes)
        self._add("evictions", evictions)
        self._add("writebacks", writebacks)
        if requester:
            self._add(f"hits_{requester}", hits, always=True)
            self._add(f"misses_{requester}", misses, always=True)

    def probe(self, addr):
        index = addr // self.config.line_bytes
        return index // self.config.num_sets in self.sets[index % self.config.num_sets]

    def resident_lines(self):
        return sum(len(ways) for ways in self.sets)

    def flush(self):
        """Writeback addresses in flush order: set by set, LRU first."""
        line, num_sets = self.config.line_bytes, self.config.num_sets
        addrs = []
        for set_index, ways in enumerate(self.sets):
            for tag, dirty in ways.items():
                if dirty and self.config.writeback:
                    addrs.append((tag * num_sets + set_index) * line)
                    self._add("writebacks", 1)
            ways.clear()
        return addrs


class RecordingLower:
    """A lower level that logs every request ``(t, addr, nbytes, is_write)``.

    Serves the scalar and segment (lists) forms; each request ends a fixed
    7 cycles after it is issued.
    """

    def __init__(self):
        self.requests = []

    def access(self, now, addr, nbytes, is_write):
        if not isinstance(now, list):
            return self.access([now], [addr], [nbytes], [is_write])[0]
        self.requests += zip(now, addr, nbytes, is_write)
        return [t + 7.0 for t in now]


@st.composite
def cache_streams(draw):
    """A tiny geometry plus a list of calls, each ``(form, requester, accesses)``.

    Set counts include non-powers of two, and an access may span more lines
    than the cache has sets.
    """
    line = draw(st.sampled_from([16, 64]))
    ways = draw(st.integers(1, 3))
    num_sets = draw(st.integers(1, 5))
    config = CacheConfig(
        size_bytes=num_sets * ways * line,
        ways=ways,
        line_bytes=line,
        writeback=draw(st.booleans()),
    )
    span = 4 * config.num_lines * line
    access = st.tuples(
        st.integers(0, span), st.integers(1, (num_sets + 3) * line), st.booleans()
    )
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["scalar", "segment"]),
                st.sampled_from(["", "g0"]),
                st.lists(access, min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return config, calls


def drive(cache, form, requester, now, addr, nbytes, is_write):
    if form == "scalar":
        for args in zip(now, addr, nbytes, is_write):
            cache.access(*args, requester=requester)
    else:
        cache.access(now, addr, nbytes, is_write, requester)


@settings(max_examples=150, deadline=None)
@given(cache_streams())
def test_walk_matches_tag_keyed_reference(stream):
    """Scalar, segment and mixed calls all make the reference's LRU decisions."""
    config, calls = stream
    reference = ReferenceL2(config)
    caches = {
        "scalar": Cache(config, RecordingLower()),
        "segment": Cache(config, RecordingLower()),
        "mixed": Cache(config, RecordingLower()),
    }
    t = 0.0
    for form, requester, accesses in calls:
        addr, nbytes, is_write = (list(column) for column in zip(*accesses))
        now = [t + 3.0 * k for k in range(len(accesses))]
        t += 100.0
        reference.access(now, addr, nbytes, is_write, requester)
        drive(caches["scalar"], "scalar", requester, now, addr, nbytes, is_write)
        drive(caches["segment"], "segment", requester, now, addr, nbytes, is_write)
        drive(caches["mixed"], form, requester, now, addr, nbytes, is_write)

    probes = range(0, 4 * config.num_lines * config.line_bytes + 1, config.line_bytes)
    resident = reference.resident_lines()
    probed = [reference.probe(a) for a in probes]
    flushed_addrs = reference.flush()
    for name, cache in caches.items():
        assert cache.lower.requests == reference.lower, name
        assert cache.resident_lines() == resident, name
        assert [cache.probe(a) for a in probes] == probed, name
        before = len(cache.lower.requests)
        cache.flush(t)
        flushed = cache.lower.requests[before:]
        assert [a for __t, a, __nb, __w in flushed] == flushed_addrs, name
        assert all(w and nb == config.line_bytes for __t, __a, nb, w in flushed), name
        assert cache.stats.snapshot() == reference.counters, name
        assert cache.resident_lines() == 0, name
