"""Unit tests for the set-associative write-back L2, driven through the
memory pass (:meth:`MemorySystem.access`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mem_reference import ReferenceMemory, assert_matches
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAMConfig
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig


def make_cache(size=1024, ways=2, line=64, **kwargs):
    """A memory system with a small L2; returns ``(mem, l2, dram)``."""
    mem = MemorySystem(
        MemorySystemConfig(
            l2=CacheConfig(size_bytes=size, ways=ways, line_bytes=line, **kwargs),
            dram=DRAMConfig(access_latency=100, bytes_per_cycle=16),
        )
    )
    return mem, mem.l2, mem.dram


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
        mem, cache, __ = make_cache()
        mem.access(0.0, 0, 64, False)
        mem.access(0.0, 0, 64, False)
        assert cache.stats.value("misses") == 1
        assert cache.stats.value("hits") == 1

    def test_miss_fetches_from_lower(self):
        mem, __, dram = make_cache()
        mem.access(0.0, 0, 64, False)
        assert dram.stats.value("reads") == 1

    def test_hit_does_not_touch_lower(self):
        mem, __, dram = make_cache()
        mem.access(0.0, 0, 64, False)
        before = dram.stats.value("reads")
        mem.access(0.0, 0, 64, False)
        assert dram.stats.value("reads") == before

    def test_multi_line_access_counts_each_line(self):
        mem, cache, __ = make_cache()
        mem.access(0.0, 0, 256, False)
        assert cache.stats.value("accesses") == 4

    def test_lru_eviction_order(self):
        # 2-way, set 0 holds lines 0 and num_sets; a third line in the same
        # set must evict the least recently used one.
        mem, cache, __ = make_cache(size=1024, ways=2, line=64)
        num_sets = cache.config.num_sets
        a, b, c = 0, num_sets * 64, 2 * num_sets * 64
        mem.access(0.0, a, 64, False)
        mem.access(0.0, b, 64, False)
        mem.access(0.0, a, 64, False)  # refresh a
        mem.access(0.0, c, 64, False)  # evicts b
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_dirty_eviction_writes_back(self):
        mem, cache, dram = make_cache(size=1024, ways=1, line=64)
        num_sets = cache.config.num_sets
        mem.access(0.0, 0, 64, True)  # dirty line
        mem.access(0.0, num_sets * 64, 64, False)  # evicts it
        assert cache.stats.value("writebacks") == 1
        assert dram.stats.value("writes") == 1

    def test_clean_eviction_no_writeback(self):
        mem, cache, __ = make_cache(size=1024, ways=1, line=64)
        num_sets = cache.config.num_sets
        mem.access(0.0, 0, 64, False)
        mem.access(0.0, num_sets * 64, 64, False)
        assert cache.stats.value("writebacks") == 0

    def test_capacity_thrash(self):
        # Streaming 2x the capacity twice gives ~zero hits with LRU.
        mem, cache, __ = make_cache(size=1024, ways=2, line=64)
        for __pass in range(2):
            for addr in range(0, 2048, 64):
                mem.access(0.0, addr, 64, False)
        assert cache.stats.value("hits") == 0
        assert cache.miss_rate() == 1.0

    def test_working_set_fits(self):
        mem, cache, __ = make_cache(size=1024, ways=2, line=64)
        for __pass in range(3):
            for addr in range(0, 1024, 64):
                mem.access(0.0, addr, 64, False)
        assert cache.stats.value("misses") == 16  # cold only
        assert cache.stats.value("hits") == 32

    def test_requester_tagging(self):
        mem, cache, __ = make_cache()
        mem.access(0.0, 0, 64, False, requester="g0")
        mem.access(0.0, 0, 64, False, requester="g1")
        assert cache.stats.value("misses_g0") == 1
        assert cache.stats.value("hits_g1") == 1

    def test_zero_bytes_noop(self):
        mem, cache, __ = make_cache()
        assert mem.access(3.0, 0, 0, False) == 3.0
        assert cache.stats.snapshot() == {}
        assert cache.port.inner.bookings == 0

    def test_miss_slower_than_hit(self):
        mem, __, __dram = make_cache()
        t_miss = mem.access(0.0, 0, 64, False)
        t_hit = mem.access(t_miss, 0, 64, False) - t_miss
        assert t_hit < t_miss

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    def test_residency_bounded_by_ways(self, line_indices):
        mem, cache, __ = make_cache(size=1024, ways=2, line=64)
        for index in line_indices:
            mem.access(0.0, index * 64, 64, False)
        assert cache.resident_lines() <= cache.config.num_lines
        for ways in cache._sets:
            assert len(ways) <= cache.config.ways

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=60))
    def test_hits_plus_misses_equals_accesses(self, addrs):
        mem, cache, __ = make_cache()
        for addr in addrs:
            mem.access(0.0, addr, 32, False)
        stats = cache.stats
        assert stats.value("hits") + stats.value("misses") == stats.value("accesses")


class RecordingLower:
    """A lower level that records each segment call and ends every request
    1000 cycles after it arrives."""

    def __init__(self):
        self.calls = []

    def access(self, now, addr, nbytes, writes):
        self.calls.append((list(now), list(addr), list(nbytes), writes))
        return [t + 1000.0 for t in now]


def test_segment_hands_its_lower_requests_down_in_one_call():
    """A segment's writebacks and fetches go down in one call, each victim's
    writeback before its fetch, at the access's arrival time; an access ends
    at the later of its port end and its last lower-level end."""
    lower = RecordingLower()
    # two direct-mapped sets: lines 0 and 2 share set 0
    cache = Cache(CacheConfig(size_bytes=128, ways=1, line_bytes=64), lower)
    ends = cache.access(
        [0.0, 10.0, 20.0, 30.0], [0, 128, 64, 64], [64, 64, 64, 64], [True, False, False, False]
    )
    assert lower.calls == [([0.0, 10.0, 10.0, 20.0], [0, 0, 128, 64], [64] * 4, 1)]
    # port ends 21, 31, 41, 51 (hit latency 20, one cycle per 64 B); the
    # last access hits and ends at its port end
    assert ends == [1000.0, 1010.0, 1020.0, 51.0]
    assert cache.access([100.0], [64], [64], [False]) == [121.0]
    assert len(lower.calls) == 1


# ---------------------------------------------------------------------- #
# Oracle: the pass against the per-element reference                     #
# ---------------------------------------------------------------------- #


@st.composite
def memory_streams(draw):
    """A tiny memory system plus a list of calls, each
    ``(form, requester, accesses)``.

    Set counts include non-powers of two, an access may span more lines
    than the cache has sets, and the DRAM's 12.8 B/cycle and 96-byte rows
    are not dyadic.  ``l2`` is ``None`` in about one draw in five.
    """
    line = draw(st.sampled_from([16, 64]))
    ways = draw(st.integers(1, 3))
    num_sets = draw(st.integers(1, 5))
    l2 = CacheConfig(
        size_bytes=num_sets * ways * line,
        ways=ways,
        line_bytes=line,
        bytes_per_cycle=draw(st.sampled_from([64.0, 24.0])),
        writeback=draw(st.booleans()),
    )
    if draw(st.integers(0, 4)) == 0:
        l2 = None
    dram = DRAMConfig(
        # an activate longer than the access latency delays the data
        access_latency=draw(st.sampled_from([100.0, 10.0])),
        bytes_per_cycle=draw(st.sampled_from([16.0, 12.8])),
        activate_occupancy=draw(st.sampled_from([0.0, 24.0])),
        num_banks=draw(st.sampled_from([1, 8])),
        row_buffer_bytes=draw(st.sampled_from([96, 1024])),
    )
    config = MemorySystemConfig(bus_beat_bytes=draw(st.sampled_from([8, 16])), l2=l2, dram=dram)
    span = 4 * num_sets * ways * line
    access = st.tuples(
        st.integers(0, span), st.integers(1, (num_sets + 3) * line), st.booleans()
    )
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["scalar", "segment"]),
                st.sampled_from(["", "g0", "g1"]),
                st.lists(access, min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return config, calls


def drive(mem, form, requester, now, addr, nbytes, is_write):
    if form == "scalar":
        return [mem.access(*args, requester=requester) for args in zip(now, addr, nbytes, is_write)]
    return mem.access(now, addr, nbytes, is_write, requester)


@settings(max_examples=150, deadline=None)
@given(memory_streams())
def test_walk_matches_tag_keyed_reference(stream):
    """Scalar, segment and mixed calls of the pass all make the reference's
    LRU decisions, bookings and counters, bitwise."""
    config, calls = stream
    reference = ReferenceMemory(config)
    systems = {form: MemorySystem(config) for form in ("scalar", "segment", "mixed")}
    t = 0.0
    for form, requester, accesses in calls:
        addr, nbytes, is_write = (list(column) for column in zip(*accesses))
        now = [t + 3.0 * k for k in range(len(accesses))]
        t += 100.0
        expected = reference.access(now, addr, nbytes, is_write, requester)
        for name, mem in systems.items():
            used = form if name == "mixed" else name
            assert drive(mem, used, requester, now, addr, nbytes, is_write) == expected, name

    for name, mem in systems.items():
        assert_matches(mem, reference, name)
        if config.l2 is not None:
            line = config.l2.line_bytes
            probes = range(0, 4 * config.l2.num_lines * line + 1, line)
            assert [mem.l2.probe(a) for a in probes] == [reference.l2.probe(a) for a in probes]


@st.composite
def tiny_row_streams(draw):
    """A tiny L2 plus DMA-like segments of 9-32 B rows whose stride is at
    most one line, so consecutive rows keep touching the same line."""
    line = draw(st.sampled_from([16, 32, 64]))
    ways = draw(st.integers(1, 3))
    num_sets = draw(st.integers(1, 5))
    l2 = CacheConfig(
        size_bytes=num_sets * ways * line,
        ways=ways,
        line_bytes=line,
        writeback=draw(st.booleans()),
    )
    config = MemorySystemConfig(l2=l2, dram=DRAMConfig(bytes_per_cycle=12.8))
    segment = st.tuples(
        st.integers(0, 4 * num_sets * ways * line),  # base address
        st.integers(9, 32),  # row bytes
        st.integers(1, line),  # stride
        st.lists(st.booleans(), min_size=1, max_size=24),  # per-row writes
    )
    return config, draw(st.lists(segment, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(tiny_row_streams())
def test_tiny_row_segments_match_tag_keyed_reference(stream):
    """Rows that keep revisiting the line touched just before keep the
    reference's LRU order, dirty flags, bookings and counters, bitwise."""
    config, segments = stream
    mem, reference = MemorySystem(config), ReferenceMemory(config)
    t = 0.0
    for base, row_bytes, stride, writes in segments:
        rows = len(writes)
        now = [t + 2.0 * r for r in range(rows)]
        addr = [base + r * stride for r in range(rows)]
        nbytes = [row_bytes] * rows
        t += 500.0
        expected = reference.access(now, addr, nbytes, list(writes), "g")
        assert mem.access(now, addr, nbytes, list(writes), "g") == expected
    assert_matches(mem, reference)
