"""Unit tests for the composed memory system."""

from repro.mem.cache import CacheConfig
from repro.mem.dram import DRAMConfig
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig


class TestMemorySystem:
    def test_access_through_l2(self):
        mem = MemorySystem()
        mem.access(0.0, 0, 64, False)
        assert mem.l2.stats.value("accesses") == 1
        mem.access(0.0, 0, 64, False)
        assert mem.l2.stats.value("hits") == 1

    def test_l2_bypass(self):
        mem = MemorySystem(MemorySystemConfig(l2=None))
        end = mem.access(0.0, 0, 64, False)
        assert mem.l2 is None
        assert mem.dram.stats.value("reads") == 1
        assert end > 0

    def test_l2_hit_faster_than_miss(self):
        mem = MemorySystem()
        t_miss = mem.access(0.0, 0, 64, False)
        t_hit = mem.access(t_miss, 0, 64, False) - t_miss
        assert t_hit < t_miss

    def test_access_counts_reads_and_writes(self):
        mem = MemorySystem()
        mem.access(0.0, 0, 64, False)
        mem.access(0.0, 0, 64, True)
        assert mem.l2.stats.value("reads") == 1
        assert mem.l2.stats.value("writes") == 1

    def test_l2_miss_rate_streaming(self):
        cfg = MemorySystemConfig(
            l2=CacheConfig(size_bytes=4096, ways=2, line_bytes=64),
            dram=DRAMConfig(),
        )
        mem = MemorySystem(cfg)
        for addr in range(0, 16384, 64):
            mem.access(0.0, addr, 64, False)
        assert mem.l2_miss_rate() == 1.0

    def test_bus_contention_shared_by_requesters(self):
        mem = MemorySystem()
        mem.access(0.0, 0, 1024, False, requester="a")
        end = mem.access(0.0, 1 << 20, 1024, False, requester="b")
        solo = MemorySystem()
        solo_end = solo.access(0.0, 1 << 20, 1024, False, requester="b")
        assert end > solo_end  # queued behind requester a

    def test_reset(self):
        mem = MemorySystem()
        mem.access(0.0, 0, 64, False)
        mem.reset()
        assert mem.l2.stats.value("accesses") == 0
        assert mem.dram.bytes_moved == 0
