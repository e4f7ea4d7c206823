"""Segment entry points of the exact memory path are bitwise per-element loops.

The DMA engine hands the memory pass (:meth:`MemorySystem.access`) and the
translation pass whole segments of requests (lists in issue order).  A
scalar call is the one-element segment, so a segment call must leave every
end time, counter and timeline exactly where the same requests made one by
one leave them: compared with ``==``, not a tolerance.  The memory pass is
also checked against :class:`ReferenceMemory`, which makes one
``Timeline.book`` per booking.
"""

import random

import pytest

from mem_reference import ReferenceMemory, assert_matches, timeline_state, translate_one
from repro.mem.cache import CacheConfig
from repro.mem.dram import DRAMConfig
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig
from repro.mem.page_table import VirtualMemory
from repro.mem.tlb import TLBConfig, TranslationSystem
from repro.sim.stats import RateWindow
from repro.sim.timeline import Timeline

#: segment boundaries every pass test splits its 300-access stream at
SEGMENTS = ((0, 1), (1, 120), (120, 300))


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


def check_segments_against_reference(config, columns, requesters=("g",)):
    """Drive the stream through the pass in :data:`SEGMENTS` and through the
    reference; every end, timeline, byte count and counter agrees."""
    mem, reference = MemorySystem(config), ReferenceMemory(config)
    for k, (start, stop) in enumerate(SEGMENTS):
        seg = [column[start:stop] for column in columns]
        requester = requesters[k % len(requesters)]
        assert mem.access(*seg, requester) == reference.access(*seg, requester)
    assert_matches(mem, reference)
    return mem


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


def test_record_each_is_record_per_event():
    rng = random.Random(3)
    times = [float(i) for i in range(1000)]
    for rate in (0.0, 0.05, 0.3, 1.0):
        outcomes = [rng.random() < rate for __ in times]
        a, b = RateWindow("a", 64), RateWindow("b", 64)
        for part in (slice(0, 10), slice(10, 70), slice(70, 900), slice(900, 1000)):
            for t, positive in zip(times[part], outcomes[part]):
                a.record(t, positive)
            b.record_each(times[part], [i for i, p in enumerate(outcomes[part]) if p])
        b.record_each([], [])
        assert (a.series.times, a.series.values) == (b.series.times, b.series.values)
        assert (a._hits_in_window, a._seen_in_window) == (
            b._hits_in_window, b._seen_in_window
        )


def test_translate_chain_miss_window_is_record_per_event():
    """The translation pass records its miss-rate window inline: the same
    rates at the same times as one ``record`` per request outcome (each
    outcome read off a twin's one-request chain)."""
    rng = random.Random(3)
    vpns = same_page_runs(rng, 1000, pages=40)
    earliest = [float(i) for i in range(len(vpns))]
    config = TLBConfig(private_entries=4, shared_entries=8, miss_rate_window=64)
    xlat = TranslationSystem(config, page_table=mapped_vm(40).page_table)
    twin = TranslationSystem(config, page_table=mapped_vm(40).page_table)
    reference = RateWindow("reference", 64)
    for part in (slice(0, 10), slice(10, 700), slice(700, 1000)):
        starts, __, __ = xlat.translate_chain(earliest[part], vpns[part], False)
        __, __, levels = chain_of_single_translations(twin, earliest[part], vpns[part], False)
        for t, level in zip(starts, levels):
            reference.record(t, level in ("shared", "walk"))
    window = xlat.miss_window
    assert window.series.values, "no window filled"
    assert (window.series.times, window.series.values) == (
        reference.series.times, reference.series.values
    )
    assert (window._hits_in_window, window._seen_in_window) == (
        reference._hits_in_window, reference._seen_in_window
    )


def test_bus_segment():
    mem = check_segments_against_reference(
        MemorySystemConfig(bus_beat_bytes=16), stream(4), requesters=("g", "", "h")
    )
    assert set(mem.bus.stats.snapshot()) == {"transactions", "bytes", "bytes_g", "bytes_h"}


@pytest.mark.parametrize(
    "config",
    [
        DRAMConfig(),
        DRAMConfig(activate_occupancy=0),
        DRAMConfig(num_banks=1),
        # The default timings are dyadic and add exactly.  These are not, so
        # a changed addition order shows in the ends and in busy_time.
        # (12.8 B/cycle would not do: it turns this stream's byte counts
        # into dyadic durations.)
        DRAMConfig(bytes_per_cycle=13.0, activate_occupancy=23.7),
    ],
    ids=["default", "no_activate", "one_bank", "non_dyadic"],
)
def test_dram_segment(config):
    """Without an L2, each access is one DRAM request of its own size."""
    check_segments_against_reference(MemorySystemConfig(l2=None, dram=config), stream(5))


@pytest.mark.parametrize("writeback", [True, False])
def test_cache_segment(writeback):
    l2 = CacheConfig(size_bytes=16 * 1024, ways=4, writeback=writeback)
    mem = check_segments_against_reference(
        MemorySystemConfig(l2=l2, dram=DRAMConfig(bytes_per_cycle=13.0)),
        stream(6, max_addr=1 << 16),
    )
    assert mem.l2.stats.value("evictions") > 0
    assert (mem.l2.stats.value("writebacks") > 0) == writeback


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
    assert timeline_state(a.bus.channel) == timeline_state(b.bus.channel)
    assert timeline_state(a.dram.channel) == timeline_state(b.dram.channel)
    if l2 is not None:
        assert timeline_state(a.l2.port) == timeline_state(b.l2.port)


def test_scalar_zero_bytes_is_a_no_op():
    mem = MemorySystem()
    assert mem.access(7.0, 0, 0, False) == 7.0
    assert mem.bus.stats.snapshot() == {}
    assert mem.l2.stats.snapshot() == {}
    assert mem.dram.stats.snapshot() == {}
    assert timeline_state(mem.bus.channel) == (0.0, 0.0, 0)


@pytest.mark.parametrize("l2", [CacheConfig(), None], ids=["l2", "no_l2"])
def test_zero_byte_segment_entry_is_rejected(l2):
    """A segment entry moves at least one byte; a zero (or negative) entry
    raises before anything is booked or counted."""
    mem = MemorySystem(MemorySystemConfig(l2=l2))
    for bad in (0, -1):
        with pytest.raises(ValueError):
            mem.access([0.0, 1.0], [0, 64], [64, bad], [False, False])
    assert mem.bus.stats.snapshot() == {}
    assert mem.dram.stats.snapshot() == {}
    assert timeline_state(mem.bus.channel) == (0.0, 0.0, 0)
    assert timeline_state(mem.dram.channel) == (0.0, 0.0, 0)
    if l2 is not None:
        assert mem.l2.stats.snapshot() == {}
        assert mem.l2.resident_lines() == 0


def mapped_vm(pages):
    """A scattered address space whose VPNs ``0..pages-1`` are mapped."""
    vm = VirtualMemory(scattered=True, base=0)
    vm.alloc(pages * vm.page_bytes)
    return vm


def same_page_runs(rng, n, pages):
    """``n`` VPNs in runs of one to eight requests on the same page."""
    vpns = []
    while len(vpns) < n:
        vpn = rng.choice([rng.randrange(pages), 7, 8])
        vpns += [vpn] * rng.choice([1, 1, 2, 3, 8])
    return vpns[:n]


def chain_of_single_translations(xlat, earliest, vpns, is_write):
    starts, ends, levels = [], [], []
    end = float("-inf")
    for e, vpn in zip(earliest, vpns):
        start = e if e > end else end
        end, level = translate_one(xlat, start, vpn, is_write)
        starts.append(start)
        ends.append(end)
        levels.append(level)
    return starts, ends, levels


@pytest.mark.parametrize(
    "config",
    [
        TLBConfig(private_entries=4, shared_entries=16),
        TLBConfig(private_entries=4, shared_entries=0, miss_rate_window=16),
        TLBConfig(private_entries=2, shared_entries=8, filter_registers=True),
        TLBConfig(private_entries=0, shared_entries=8, miss_rate_window=16),
        TLBConfig(private_entries=0, shared_entries=8, filter_registers=True),
    ],
)
@pytest.mark.parametrize("is_write", [False, True])
def test_translate_chain_is_a_chain_of_single_translations(config, is_write):
    """Each single-request chain takes the full lookup path, so a long
    chain's same-page shortcut is checked against it, across chain
    boundaries, flushes and translate_batch warm-ups."""
    rng = random.Random(8)
    earliest = sorted(rng.random() * 2000 for __ in range(450))
    vpns = same_page_runs(rng, len(earliest), pages=40)
    assert sum(a == b for a, b in zip(vpns, vpns[1:])) > len(vpns) // 2
    warm_vpns = [rng.choice([rng.randrange(40), 7, 8]) for __ in range(100)]
    warm_writes = [rng.random() < 0.5 for __ in warm_vpns]
    a = TranslationSystem(config, page_table=mapped_vm(40).page_table, name="a")
    b = TranslationSystem(config, page_table=mapped_vm(40).page_table, name="b")
    oracle = mapped_vm(40).page_table
    served = set()
    for part in (slice(0, 150), slice(150, 300), slice(300, 450)):
        if part.start == 150:
            # From empty TLBs and filter registers.
            a.flush()
            b.flush()
        if part.start == 300:
            # From TLBs and filter registers warmed through translate_batch,
            # as replay warms its sandboxes.
            for xlat in (a, b):
                xlat.translate_batch([0.0] * len(warm_vpns), warm_vpns, warm_writes)
            if b.filters is not None:
                vpn = b.filters.write_vpn if is_write else b.filters.read_vpn
                ppn = b.filters.write_ppn if is_write else b.filters.read_ppn
                assert ppn == oracle.walk(vpn)
        starts, ends, ppns = b.translate_chain(earliest[part], vpns[part], is_write)
        single_starts, single_ends, levels = chain_of_single_translations(
            a, earliest[part], vpns[part], is_write
        )
        assert (starts, ends) == (single_starts, single_ends)
        assert ppns == [oracle.walk(vpn) for vpn in vpns[part]]
        served.update(levels)
    expected_levels = {"walk"}
    if config.private_entries:
        expected_levels.add("private")
    if config.shared_entries:
        expected_levels.add("shared")
    if config.filter_registers:
        expected_levels.add("filter")
    assert served == expected_levels
    for tlb in (b.private, b.shared):
        assert all(ppn == oracle.walk(vpn) for vpn, ppn in tlb._lru.items())
    assert a.stats.snapshot() == b.stats.snapshot()
    assert list(a.private._lru.items()) == list(b.private._lru.items())
    assert list(a.shared._lru.items()) == list(b.shared._lru.items())
    assert a.miss_window.series.times == b.miss_window.series.times
    assert a.miss_window.series.values == b.miss_window.series.values
    assert timeline_state(a.ptw) == timeline_state(b.ptw)
    assert a.page_table.walk_accesses == b.page_table.walk_accesses
