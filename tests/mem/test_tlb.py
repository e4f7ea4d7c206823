"""Unit tests for TLBs, filter registers, and the translation system."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mem_reference import translate_one
from repro.mem.tlb import TLB, FilterRegisters, TLBConfig, TranslationSystem
from repro.sim.timeline import Timeline


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert not tlb.lookup(7)
        tlb.fill(7, 70)
        assert tlb.lookup(7)

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.fill(1, 10)
        tlb.fill(2, 20)
        tlb.lookup(1)  # refresh 1
        tlb.fill(3, 30)  # evicts 2
        assert 1 in tlb
        assert 2 not in tlb
        assert 3 in tlb

    def test_zero_entry_tlb_never_hits(self):
        tlb = TLB(entries=0)
        tlb.fill(1, 10)
        assert not tlb.lookup(1)
        assert tlb.occupancy == 0

    def test_flush(self):
        tlb = TLB(entries=4)
        tlb.fill(1, 10)
        tlb.flush()
        assert not tlb.lookup(1)

    def test_refill_refreshes_recency(self):
        tlb = TLB(entries=2)
        tlb.fill(1, 10)
        tlb.fill(2, 20)
        tlb.fill(1, 10)  # refresh rather than duplicate
        tlb.fill(3, 30)  # evicts 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_entries(self, vpns):
        tlb = TLB(entries=4)
        for vpn in vpns:
            if not tlb.lookup(vpn):
                tlb.fill(vpn, vpn + 100)
        assert tlb.occupancy <= 4


class TestFilterRegisters:
    def test_separate_read_write_channels(self):
        f = FilterRegisters()
        f.update(5, is_write=False, ppn=50)
        assert f.check(5, is_write=False)
        assert not f.check(5, is_write=True)
        f.update(9, is_write=True, ppn=90)
        assert f.check(9, is_write=True)
        assert f.check(5, is_write=False)  # read register undisturbed
        assert (f.read_ppn, f.write_ppn) == (50, 90)

    def test_flush(self):
        f = FilterRegisters()
        f.update(5, False, 50)
        f.flush()
        assert not f.check(5, False)
        assert f.read_ppn is None


def make_system(private=4, shared=16, filters=False, ptw=None):
    cfg = TLBConfig(
        private_entries=private,
        shared_entries=shared,
        filter_registers=filters,
        private_hit_latency=4.0,
        shared_hit_latency=16.0,
        walk_latency=120.0,
    )
    return TranslationSystem(cfg, ptw=ptw)


def translate(xs, now, vaddr, is_write):
    """One request through ``translate_chain``: its ``(end, level)``."""
    return translate_one(xs, now, vaddr // xs.config.page_bytes, is_write)


class TestTranslationSystem:
    def test_first_access_walks(self):
        xs = make_system()
        end, level = translate(xs, 0.0, 0x1000, False)
        assert level == "walk"
        assert end >= 120.0

    def test_second_access_private_hit(self):
        xs = make_system()
        translate(xs, 0.0, 0x1000, False)
        end, level = translate(xs, 200.0, 0x1000, False)
        assert level == "private"
        assert end == pytest.approx(204.0)

    def test_private_eviction_falls_to_shared(self):
        xs = make_system(private=1, shared=16)
        translate(xs, 0.0, 0x1000, False)
        translate(xs, 0.0, 0x2000, False)  # evicts page 1 from private
        __, level = translate(xs, 500.0, 0x1000, False)
        assert level == "shared"

    def test_no_shared_tlb_walks_again(self):
        xs = make_system(private=1, shared=0)
        translate(xs, 0.0, 0x1000, False)
        translate(xs, 0.0, 0x2000, False)
        __, level = translate(xs, 500.0, 0x1000, False)
        assert level == "walk"

    def test_filter_registers_zero_latency(self):
        xs = make_system(filters=True)
        translate(xs, 0.0, 0x1000, False)
        end, level = translate(xs, 300.0, 0x1008, False)  # same page
        assert level == "filter"
        assert end == 300.0

    def test_filters_separate_channels(self):
        xs = make_system(filters=True)
        translate(xs, 0.0, 0x1000, False)
        translate(xs, 200.0, 0x1000, True)  # write: filter miss, private hit
        __, level_r = translate(xs, 400.0, 0x1010, False)
        __, level_w = translate(xs, 500.0, 0x1020, True)
        assert level_r == "filter"
        assert level_w == "filter"

    def test_shared_ptw_serializes(self):
        ptw = Timeline("ptw")
        a = make_system(ptw=ptw)
        b = make_system(ptw=ptw)
        end_a, __ = translate(a, 0.0, 0x1000, False)
        end_b, __ = translate(b, 0.0, 0x9000, False)
        assert end_b > end_a  # queued behind the first walk

    def test_flush_clears_all_levels(self):
        xs = make_system(filters=True)
        translate(xs, 0.0, 0x1000, False)
        xs.flush()
        __, level = translate(xs, 0.0, 0x1000, False)
        assert level == "walk"

    def test_hit_rate_including_filters(self):
        xs = make_system(filters=True)
        for i in range(10):
            translate(xs, float(i), 0x1000 + i * 8, False)
        assert xs.hit_rate_including_filters() == pytest.approx(0.9)

    def test_consecutive_same_page_fraction(self):
        xs = make_system()
        translate(xs, 0.0, 0x1000, False)
        translate(xs, 0.0, 0x1008, False)  # same page
        translate(xs, 0.0, 0x2000, False)  # different
        assert xs.consecutive_same_page_fraction(False) == pytest.approx(0.5)
        assert xs.consecutive_same_page_fraction(True) == 0.0

    def test_miss_window_records(self):
        cfg = TLBConfig(private_entries=2, shared_entries=0, miss_rate_window=4)
        xs = TranslationSystem(cfg)
        for i in range(8):
            translate(xs, float(i), i * 0x1000, False)
        assert len(xs.miss_window.series) == 2
        assert all(v == 1.0 for v in xs.miss_window.series.values)

    def test_private_miss_rate(self):
        xs = make_system()
        translate(xs, 0.0, 0x1000, False)
        translate(xs, 0.0, 0x1000, False)
        assert xs.private_miss_rate() == pytest.approx(0.5)

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=20),
        st.booleans(),
    ), min_size=1, max_size=100))
    def test_levels_partition_requests(self, requests):
        xs = make_system(private=2, shared=4, filters=True)
        for i, (vpn, is_write) in enumerate(requests):
            translate(xs, float(i), vpn * 4096, is_write)
        s = xs.stats
        total = s.value("requests")
        served = (
            s.value("filter_hits")
            + s.value("private_hits")
            + s.value("shared_hits")
            + s.value("walks")
        )
        assert served == total
