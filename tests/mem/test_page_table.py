"""Unit tests for page tables and the virtual-memory allocator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.page_table import PageFault, PageTable, VirtualMemory


class TestPageTable:
    def test_map_and_walk(self):
        pt = PageTable()
        pt.map_page(0x123, 0x456)
        assert pt.walk(0x123) == 0x456

    def test_walk_counts_level_accesses(self):
        pt = PageTable()
        pt.map_page(1, 2)
        pt.walk(1)
        pt.walk(1)
        assert pt.walk_accesses == 6

    def test_counted_functional_walks_match_translate(self):
        a, b = PageTable(), PageTable()
        a.map_page(1, 2)
        for __ in range(3):
            a.translate(4096 + 8)
        b.count_functional_walks(3)
        assert a.walk_accesses == b.walk_accesses == 9

    def test_unmapped_page_faults(self):
        pt = PageTable()
        with pytest.raises(PageFault):
            pt.walk(0x999)

    def test_translate_byte_address(self):
        pt = PageTable(page_bytes=4096)
        pt.map_page(2, 10)
        assert pt.translate(2 * 4096 + 123) == 10 * 4096 + 123

    def test_remap_does_not_double_count(self):
        pt = PageTable()
        pt.map_page(1, 2)
        pt.map_page(1, 3)
        assert pt.mapped_pages == 1
        assert pt.walk(1) == 3

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            PageTable(page_bytes=1000)

    @given(st.sets(st.integers(min_value=0, max_value=1 << 27), min_size=1, max_size=50))
    def test_distinct_vpns_all_recoverable(self, vpns):
        pt = PageTable()
        for i, vpn in enumerate(sorted(vpns)):
            pt.map_page(vpn, i + 1)
        for i, vpn in enumerate(sorted(vpns)):
            assert pt.walk(vpn) == i + 1
        assert pt.mapped_pages == len(vpns)


class TestVirtualMemory:
    def test_alloc_maps_pages(self):
        vm = VirtualMemory()
        vaddr = vm.alloc(10000, "x")
        first = vaddr // vm.page_bytes
        last = (vaddr + 9999) // vm.page_bytes
        for vpn in range(first, last + 1):
            assert vm.page_table.is_mapped(vpn)

    def test_allocations_do_not_overlap(self):
        vm = VirtualMemory()
        a = vm.alloc(1000, "a")
        b = vm.alloc(1000, "b")
        assert b >= a + 1000

    def test_alloc_alignment(self):
        vm = VirtualMemory()
        vm.alloc(3, "a")
        b = vm.alloc(10, "b")
        assert b % 64 == 0

    def test_translate_round_trip(self):
        vm = VirtualMemory()
        vaddr = vm.alloc(8192, "t")
        paddr1 = vm.translate(vaddr)
        paddr2 = vm.translate(vaddr + 4096)
        assert paddr1 != paddr2

    def test_sequential_physical_is_contiguous(self):
        vm = VirtualMemory(scattered=False)
        vaddr = vm.alloc(3 * 4096, "t")
        base_ppn = vm.page_table.walk(vaddr // 4096)
        assert vm.page_table.walk(vaddr // 4096 + 1) == base_ppn + 1

    def test_scattered_physical_is_deterministic(self):
        vm1 = VirtualMemory(scattered=True)
        vm2 = VirtualMemory(scattered=True)
        a1 = vm1.alloc(4096, "x")
        a2 = vm2.alloc(4096, "x")
        assert vm1.translate(a1) == vm2.translate(a2)

    def test_scattered_differs_across_asids(self):
        vm1 = VirtualMemory(scattered=True, asid=0)
        vm2 = VirtualMemory(scattered=True, asid=1)
        a1 = vm1.alloc(4096, "x")
        a2 = vm2.alloc(4096, "x")
        assert vm1.translate(a1) != vm2.translate(a2)

    def test_zero_alloc_rejected(self):
        vm = VirtualMemory()
        with pytest.raises(ValueError):
            vm.alloc(0)

    def test_region_lookup(self):
        vm = VirtualMemory()
        vaddr = vm.alloc(100, "weights")
        region = vm.region("weights")
        assert region.vaddr == vaddr
        assert region.size == 100
        assert region.end == vaddr + 100
