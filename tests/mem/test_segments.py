"""Segment entry points of the exact memory path are bitwise per-element loops.

The DMA engine hands each component whole segments of requests (lists in
issue order).  A scalar call is the one-element segment, so a segment call
must leave every end time, counter and timeline exactly where the same
requests made one by one leave them: compared with ``==``, not a tolerance.
"""

import random

import pytest

from repro.mem.bus import SystemBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import DRAMConfig, DRAMModel
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig
from repro.mem.page_table import PageFault, VirtualMemory
from repro.mem.tlb import TLBConfig, TranslationSystem
from repro.sim.stats import RateWindow
from repro.sim.timeline import BandwidthTimeline, Timeline


def stream(seed, n=300, max_addr=1 << 20):
    """Random accesses with a streaming component and queued arrivals."""
    rng = random.Random(seed)
    now, addr, nbytes, writes = [], [], [], []
    t = 0.0
    for i in range(n):
        t += rng.random() * 30
        now.append(t - 20.0 if i % 7 == 0 else t)
        addr.append(i * 64 % max_addr if i % 3 == 0 else rng.randrange(max_addr))
        nbytes.append(rng.choice([1, 16, 64, 100, 512, 4096]))
        writes.append(rng.random() < 0.4)
    return now, addr, nbytes, writes


def timeline_state(timeline):
    return (timeline.next_free, timeline.busy_time, timeline.bookings)


def test_book_all_is_book_per_element():
    rng = random.Random(1)
    earliest = [rng.random() * 500 for __ in range(200)]
    durations = [rng.random() * 8 for __ in range(200)]
    a, b = Timeline("a"), Timeline("b")
    a.book(3.0, 1.5)
    b.book(3.0, 1.5)
    assert b.book_all(earliest, durations) == [a.book(e, d)[1] for e, d in zip(earliest, durations)]
    assert timeline_state(a) == timeline_state(b)
    with pytest.raises(ValueError):
        b.book_all([0.0, 1.0], [1.0, -1.0])


def test_transfer_all_is_transfer_per_element():
    now, __, nbytes, __w = stream(2)
    a = BandwidthTimeline("a", bytes_per_cycle=16, overhead=1.0)
    b = BandwidthTimeline("b", bytes_per_cycle=16, overhead=1.0)
    assert b.transfer_all(now, nbytes) == [a.transfer(t, n)[1] for t, n in zip(now, nbytes)]
    assert timeline_state(a.inner) == timeline_state(b.inner)
    assert a.bytes_moved == b.bytes_moved


def test_record_each_is_record_per_event():
    rng = random.Random(3)
    times = [float(i) for i in range(1000)]
    outcomes = [rng.random() < 0.3 for __ in times]
    a, b = RateWindow("a", 64), RateWindow("b", 64)
    for t, positive in zip(times[:10], outcomes[:10]):
        a.record(t, positive)
    b.record_each(times[:10], outcomes[:10])
    for t, positive in zip(times[10:], outcomes[10:]):
        a.record(t, positive)
    b.record_each(times[10:], outcomes[10:])
    assert (a.series.times, a.series.values) == (b.series.times, b.series.values)
    assert (a._hits_in_window, a._seen_in_window) == (b._hits_in_window, b._seen_in_window)


def test_bus_segment():
    now, __, nbytes, __w = stream(4)
    a, b = SystemBus(16), SystemBus(16)
    assert b.transfer(now, nbytes, "g") == [a.transfer(t, n, "g") for t, n in zip(now, nbytes)]
    assert a.stats.snapshot() == b.stats.snapshot()
    assert timeline_state(a.channel.inner) == timeline_state(b.channel.inner)


def test_dram_segment():
    now, addr, nbytes, writes = stream(5)
    a, b = DRAMModel(DRAMConfig()), DRAMModel(DRAMConfig())
    assert b.access(now, addr, nbytes, writes) == [
        a.access(t, ad, n, w) for t, ad, n, w in zip(now, addr, nbytes, writes)
    ]
    assert a.stats.snapshot() == b.stats.snapshot()
    assert a._open_rows == b._open_rows
    assert timeline_state(a.channel.inner) == timeline_state(b.channel.inner)
    assert a.bytes_moved == b.bytes_moved


@pytest.mark.parametrize("writeback", [True, False])
def test_cache_segment(writeback):
    config = CacheConfig(size_bytes=16 * 1024, ways=4, writeback=writeback)
    a = Cache(config, DRAMModel(), name="a")
    b = Cache(config, DRAMModel(), name="b")
    now, addr, nbytes, writes = stream(6, max_addr=1 << 16)
    for start, stop in ((0, 1), (1, 120), (120, 300)):
        seg = slice(start, stop)
        assert b.access(now[seg], addr[seg], nbytes[seg], writes[seg], "g") == [
            a.access(t, ad, n, w, "g")
            for t, ad, n, w in zip(now[seg], addr[seg], nbytes[seg], writes[seg])
        ]
    assert a.stats.snapshot() == b.stats.snapshot()
    assert a.lower.stats.snapshot() == b.lower.stats.snapshot()
    assert [list(s.items()) for s in a._sets] == [list(s.items()) for s in b._sets]
    assert timeline_state(a.port.inner) == timeline_state(b.port.inner)
    assert timeline_state(a.lower.channel.inner) == timeline_state(b.lower.channel.inner)


@pytest.mark.parametrize("l2", [CacheConfig(size_bytes=32 * 1024), None])
def test_memory_system_segment(l2):
    config = MemorySystemConfig(l2=l2)
    a, b = MemorySystem(config), MemorySystem(config)
    now, addr, nbytes, writes = stream(7)
    assert b.access(now, addr, nbytes, writes, "g") == [
        a.access(t, ad, n, w, "g") for t, ad, n, w in zip(now, addr, nbytes, writes)
    ]
    for part in ("bus", "dram") + (("l2",) if l2 is not None else ()):
        assert getattr(a, part).stats.snapshot() == getattr(b, part).stats.snapshot()
    assert timeline_state(a.dram.channel.inner) == timeline_state(b.dram.channel.inner)


def test_scalar_zero_bytes_is_a_no_op():
    mem = MemorySystem()
    assert mem.access(7.0, 0, 0, False) == 7.0
    assert mem.bus.stats.snapshot() == {}
    assert mem.l2.access(7.0, 0, 0, False) == 7.0
    assert mem.dram.access(7.0, 0, 0, False) == 7.0


@pytest.mark.parametrize(
    "config",
    [
        TLBConfig(private_entries=4, shared_entries=16),
        TLBConfig(private_entries=4, shared_entries=0, miss_rate_window=16),
        TLBConfig(private_entries=2, shared_entries=8, filter_registers=True),
    ],
)
@pytest.mark.parametrize("is_write", [False, True])
def test_translate_chain_is_a_chain_of_translate_vpn(config, is_write):
    rng = random.Random(8)
    earliest = sorted(rng.random() * 2000 for __ in range(400))
    vpns = [rng.choice([rng.randrange(40), 7, 7, 8]) for __ in earliest]
    a = TranslationSystem(config, name="a")
    b = TranslationSystem(config, name="b")
    expected_starts, expected_ends, expected_levels = [], [], []
    end = float("-inf")
    for e, vpn in zip(earliest, vpns):
        start = e if e > end else end
        result = a.translate_vpn(start, vpn, is_write)
        end = result.end_time
        expected_starts.append(start)
        expected_ends.append(end)
        expected_levels.append(result.level)
    starts, ends, levels = b.translate_chain(earliest, vpns, is_write)
    assert (starts, ends, levels) == (expected_starts, expected_ends, expected_levels)
    assert a.stats.snapshot() == b.stats.snapshot()
    assert list(a.private._lru) == list(b.private._lru)
    assert list(a.shared._lru) == list(b.shared._lru)
    assert a.miss_window.series.times == b.miss_window.series.times
    assert a.miss_window.series.values == b.miss_window.series.values
    assert timeline_state(a.ptw) == timeline_state(b.ptw)


def test_page_table_translates_lists_with_per_address_walk_count():
    vm = VirtualMemory(scattered=True)
    base = vm.alloc(4096 * 3, "buf")
    addresses = [base, base + 8, base + 4096, base + 5000, base + 8191, base + 9000]
    twin = VirtualMemory(scattered=True)
    twin.alloc(4096 * 3, "buf")
    assert vm.translate(addresses) == [twin.translate(v) for v in addresses]
    assert vm.page_table.walk_accesses == twin.page_table.walk_accesses
    with pytest.raises(PageFault):
        vm.translate([base, 0])
