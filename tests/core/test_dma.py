"""Unit tests for the DMA engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GemminiConfig
from repro.core.dma import DMAEngine
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig
from repro.mem.page_table import VirtualMemory
from repro.mem.tlb import TLBConfig, TranslationSystem


def make_dma(small_config, private=16, shared=0, filters=False, vm=None):
    tlb_cfg = TLBConfig(
        private_entries=private, shared_entries=shared, filter_registers=filters
    )
    # Wired as an Accelerator wires it: the DMA translates through the
    # translation system's page table.
    xlat = TranslationSystem(tlb_cfg, page_table=vm.page_table if vm is not None else None)
    mem = MemorySystem(MemorySystemConfig())
    dma = DMAEngine(small_config, xlat, mem)
    return dma, xlat, mem


class TestDMATransfers:
    def test_basic_read(self, small_config):
        dma, xlat, mem = make_dma(small_config)
        result = dma.transfer(0.0, 0x10000, 64, 16, 64, is_write=False)
        assert result.bytes_moved == 1024
        assert result.end_time > result.start_time
        assert mem.dram.stats.value("reads") > 0

    def test_one_translation_per_page_per_row(self, small_config):
        dma, xlat, __ = make_dma(small_config)
        # 16 rows of 64 B inside one page: 16 translation requests.
        result = dma.transfer(0.0, 0x10000, 64, 16, 64, False)
        assert result.tlb_requests == 16

    def test_page_crossing_row_translates_twice(self, small_config):
        dma, __, __mem = make_dma(small_config)
        result = dma.transfer(0.0, 0x10FE0, 64, 1, 64, False)  # straddles 4K
        assert result.tlb_requests == 2

    def test_write_uses_write_channel(self, small_config):
        dma, __, __mem = make_dma(small_config)
        dma.transfer(0.0, 0x1000, 64, 4, 64, True)
        assert dma.write_channel.bookings == 4
        assert dma.read_channel.bookings == 0
        assert dma.stats.value("bytes_written") == 256

    def test_read_write_channels_overlap(self, small_config):
        dma, __, __mem = make_dma(small_config)
        r = dma.transfer(0.0, 0x1000, 256, 8, 256, False)
        w = dma.transfer(0.0, 0x8000, 256, 8, 256, True)
        # The write channel did not queue behind the read channel.
        assert w.start_time < r.end_time

    def test_tlb_miss_stalls_transfer(self, small_config):
        dma_cold, __, __m = make_dma(small_config, private=16)
        cold = dma_cold.transfer(0.0, 0x10000, 64, 16, 64, False)
        dma_warm, xlat_warm, __m2 = make_dma(small_config, private=16)
        for vpn in range(0x10, 0x12):
            xlat_warm.translate_chain([0.0], [vpn], False)
        warm = dma_warm.transfer(1000.0, 0x10000, 64, 16, 64, False)
        assert warm.translation_stall < cold.translation_stall

    def test_filter_registers_reduce_stall(self, small_config):
        plain, __, __m = make_dma(small_config, private=1)
        filt, __, __m2 = make_dma(small_config, private=1, filters=True)
        a = plain.transfer(0.0, 0x10000, 64, 32, 64, False)
        b = filt.transfer(0.0, 0x10000, 64, 32, 64, False)
        assert b.translation_stall < a.translation_stall

    def test_virtual_to_physical_translation(self, small_config):
        vm = VirtualMemory(scattered=True)
        vaddr = vm.alloc(4096 * 2, "buf")
        dma, __, mem = make_dma(small_config, vm=vm)
        dma.transfer(0.0, vaddr, 64, 4, 64, False)
        # Physical accesses hit the scattered frames, not the virtual range.
        assert mem.l2.stats.value("accesses") > 0
        assert mem.l2.probe(vm.translate(vaddr))
        assert not mem.l2.probe(vaddr)

    def test_invalid_transfer_rejected(self, small_config):
        dma, __, __m = make_dma(small_config)
        with pytest.raises(ValueError):
            dma.transfer(0.0, 0, 0, 4, 64, False)
        with pytest.raises(ValueError):
            dma.transfer(0.0, 0, 64, 0, 64, False)

    def test_wider_bus_is_faster(self, small_config):
        from dataclasses import replace

        narrow_cfg = replace(small_config, dma_bus_bytes=4)
        wide_cfg = replace(small_config, dma_bus_bytes=64)
        narrow, __, __m = make_dma(narrow_cfg)
        wide, __, __m2 = make_dma(wide_cfg)
        t_narrow = narrow.transfer(0.0, 0x1000, 256, 64, 256, False)
        t_wide = wide.transfer(0.0, 0x1000, 256, 64, 256, False)
        assert t_wide.cycles < t_narrow.cycles

    def test_strided_rows_touch_more_pages(self, small_config):
        dense, __, __m = make_dma(small_config)
        sparse, __, __m2 = make_dma(small_config)
        d = dense.transfer(0.0, 0x10000, 64, 16, 64, False)
        s = sparse.transfer(0.0, 0x10000, 64, 16, 8192, False)
        assert s.tlb_requests == d.tlb_requests  # same count...
        # ...but sparse touches 16 distinct pages: all misses.
        assert sparse.xlat.stats.value("walks") > dense.xlat.stats.value("walks")


class TestDMAStats:
    def test_counters(self, small_config):
        dma, __, __m = make_dma(small_config)
        dma.transfer(0.0, 0x1000, 32, 4, 32, False)
        assert dma.stats.value("rows") == 4
        assert dma.stats.value("transfers") == 1
        assert dma.stats.value("bytes_read") == 128


class TestTranslationSerialisation:
    """The TLB is single-ported: rows' translations chain (Section V-A)."""

    def test_miss_burst_throttles_stream(self, small_config):
        # Every row in a new page: each walk serialises behind the last.
        dma, xlat, __ = make_dma(small_config, private=2)
        result = dma.transfer(0.0, 0x100000, 64, 8, 4096, False)
        walks = xlat.stats.value("walks")
        assert walks == 8
        # The stream cannot finish faster than the serialised walks.
        assert result.end_time >= walks * xlat.config.walk_latency

    def test_hits_do_not_serialise_painfully(self, small_config):
        # Same page every row: one walk, then cheap private hits.
        dma, xlat, __ = make_dma(small_config, private=16)
        result = dma.transfer(0.0, 0x100000, 64, 8, 64, False)
        assert xlat.stats.value("walks") == 1
        assert result.end_time < 8 * xlat.config.walk_latency

    def test_warm_tlb_faster_than_cold(self, small_config):
        cold, __, __m = make_dma(small_config, private=64)
        a = cold.transfer(0.0, 0x100000, 64, 16, 4096, False)
        warm, xlat, __m2 = make_dma(small_config, private=64)
        for vpn in range(0x100, 0x110):
            xlat.translate_chain([0.0], [vpn], False)
        b = warm.transfer(1e6, 0x100000, 64, 16, 4096, False)
        assert b.cycles < a.cycles


def row_by_row(dma, now, vaddr, bytes_per_row, nrows, stride, is_write, requester=""):
    """A transfer made of one-element calls, row by row: every row books the
    channel, translates each page it touches, then moves its page-split
    chunks one after another."""
    channel = dma.write_channel if is_write else dma.read_channel
    page = dma.page_bytes
    occupancy = max(1.0, bytes_per_row / dma.config.dma_bus_bytes)
    end, cursor, stall, requests, first = now, now, 0.0, 0, None
    for row in range(nrows):
        row_vaddr = vaddr + row * stride
        issue, free = channel.book(now, occupancy)
        first = issue if first is None else first
        done = issue if issue > cursor else cursor
        for vpn in range(row_vaddr // page, (row_vaddr + bytes_per_row - 1) // page + 1):
            translated = dma.xlat.translate_chain([done], [vpn], is_write)[1][0]
            stall += translated - done
            requests += 1
            done = translated
        cursor = access = done
        at, remaining = row_vaddr, bytes_per_row
        while remaining:
            chunk = min(remaining, page - at % page)
            page_table = dma.xlat.page_table
            paddr = page_table.translate(at) if page_table is not None else at
            access = dma.mem.access(access, paddr, chunk, is_write, requester)
            at += chunk
            remaining -= chunk
        end = max(end, access, free)
    return (first, end, bytes_per_row * nrows, requests, stall)


def dma_state(dma):
    mem = dma.mem
    timelines = (mem.bus.channel, mem.l2.port, mem.dram.channel,
                 dma.xlat.ptw, dma.read_channel, dma.write_channel)
    return (
        [(t.next_free, t.busy_time, t.bookings) for t in timelines],
        [reg.snapshot() for reg in (mem.bus.stats, mem.l2.stats, mem.dram.stats, dma.xlat.stats)],
        [list(s.items()) for s in mem.l2._sets],
        list(dma.xlat.private._lru),
        dma.xlat.miss_window.series.times,
        dma.xlat.page_table.walk_accesses if dma.xlat.page_table is not None else 0,
    )


#: (vaddr offset, bytes_per_row, nrows, stride, is_write): contiguous rows,
#: rows straddling a page, rows spanning three pages, a zero stride
TRANSFERS = [
    (0, 64, 40, 64, False),
    (4000, 64, 12, 1000, False),
    (100, 9000, 3, 9000, True),
    (64, 48, 30, 4100, True),
    (4090, 32, 5, 0, False),
]


@pytest.mark.parametrize("filters", [False, True])
@pytest.mark.parametrize("scattered", [False, True])
def test_staged_transfer_matches_row_by_row(small_config, filters, scattered):
    twins = []
    for __ in range(2):
        vm = VirtualMemory(scattered=scattered)
        base = vm.alloc(1 << 17, "buf")
        dma, __x, __m = make_dma(small_config, private=4, shared=8, filters=filters, vm=vm)
        twins.append(dma)
    staged, reference = twins
    now = 0.0
    for offset, row_bytes, rows, stride, is_write in TRANSFERS:
        result = staged.transfer(now, base + offset, row_bytes, rows, stride, is_write, "g")
        expected = row_by_row(reference, now, base + offset, row_bytes, rows, stride, is_write, "g")
        assert (result.start_time, result.end_time, result.bytes_moved, result.tlb_requests,
                result.translation_stall) == expected
        now += 150.0
    assert dma_state(staged) == dma_state(reference)


# -- the transfer floor ---------------------------------------------------- #

FLOOR_CONFIGS = {
    bus: GemminiConfig(
        mesh_rows=4, mesh_cols=4, tile_rows=1, tile_cols=1,
        sp_capacity_bytes=4 * 4 * 256, sp_banks=2,
        acc_capacity_bytes=4 * 16 * 64, acc_banks=2,
        dma_bus_bytes=bus,
    )
    for bus in (4, 16, 64)
}

#: one strided transfer: (offset, bytes_per_row, nrows, stride kind, is_write)
transfers = st.tuples(
    st.integers(0, 20_000),
    st.one_of(st.integers(1, 200), st.integers(3000, 9000)),
    st.integers(1, 24),
    st.sampled_from(["contiguous", "strided", "zero"]),
    st.booleans(),
)


@settings(max_examples=200)
@given(
    bus=st.sampled_from(sorted(FLOOR_CONFIGS)),
    private=st.sampled_from([0, 2, 16]),
    shared=st.sampled_from([0, 8]),
    filters=st.booleans(),
    l2=st.sampled_from(["none", "tiny", "default"]),
    scattered=st.booleans(),
    warm=st.lists(st.tuples(transfers, st.floats(0, 400)), max_size=6),
    transfer=transfers,
    delay=st.floats(0, 400),
)
def test_transfer_never_ends_before_its_floor(
    bus, private, shared, filters, l2, scattered, warm, transfer, delay
):
    """``DMAEngine.floor`` bounds every transfer from below: warm TLBs,
    filter registers, L2 sets, open DRAM rows and busy timelines (from
    earlier transfers of both directions) only ever add to it.

    The floor holds in exact arithmetic; the transfer adds its times in
    floats, so the end may round below ``now + floor`` by a few ulps of the
    times.  The allowance is the relative ``2**-30`` of the end time that
    ``Controller.drain_bounds`` scales its bound down by."""
    l2_config = {
        "none": None,
        "tiny": CacheConfig(size_bytes=4096, ways=2),
        "default": CacheConfig(),
    }[l2]
    vm = VirtualMemory(scattered=scattered)
    base = vm.alloc(1 << 19, "buf")  # the farthest row ends below 330 kB
    xlat = TranslationSystem(
        TLBConfig(private_entries=private, shared_entries=shared, filter_registers=filters),
        page_table=vm.page_table,
    )
    dma = DMAEngine(FLOOR_CONFIGS[bus], xlat, MemorySystem(MemorySystemConfig(l2=l2_config)))

    def run(now, spec):
        offset, row_bytes, rows, stride_kind, is_write = spec
        stride = {"contiguous": row_bytes, "strided": row_bytes + 4000, "zero": 0}[stride_kind]
        return dma.transfer(now, base + offset, row_bytes, rows, stride, is_write)

    now = 0.0
    for spec, gap in warm:
        now = max(now, run(now, spec).end_time - gap)
    now += delay - 200.0  # sometimes before the channel and bus free
    __, row_bytes, rows, __, __ = transfer
    end = run(now, transfer).end_time
    assert end - now >= dma.floor(row_bytes, rows) - 2.0**-30 * end
