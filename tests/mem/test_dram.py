"""Unit tests for the DRAM channel, driven through the memory pass of an
L2-less memory system (each access is one DRAM request of its own size)."""

import pytest

from repro.mem.dram import DRAMConfig
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig


def make_dram(config=None, beat_bytes=16):
    """An L2-less memory system; returns ``(mem, dram)``."""
    mem = MemorySystem(
        MemorySystemConfig(bus_beat_bytes=beat_bytes, l2=None, dram=config or DRAMConfig())
    )
    return mem, mem.dram


def bus_time(nbytes, beat_bytes=16):
    """Cycles one bus transaction of ``nbytes`` occupies the bus."""
    return 1.0 + nbytes / beat_bytes


class TestDRAMConfig:
    def test_defaults_valid(self):
        cfg = DRAMConfig()
        assert cfg.access_latency > cfg.row_hit_latency

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DRAMConfig(access_latency=-1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DRAMConfig(bytes_per_cycle=0)


class TestDRAMModel:
    def test_first_access_pays_full_latency(self):
        mem, __ = make_dram(DRAMConfig(access_latency=100, bytes_per_cycle=16))
        end = mem.access(0.0, 0, 64, False)
        assert end == pytest.approx(bus_time(64) + 100 + 64 / 16)

    def test_row_hit_is_cheaper(self):
        cfg = DRAMConfig(access_latency=100, row_hit_latency=20, bytes_per_cycle=16)
        mem, dram = make_dram(cfg)
        first = mem.access(0.0, 0, 64, False)
        second = mem.access(first, 64, 64, False)
        assert second - first == pytest.approx(bus_time(64) + 20 + 4)
        assert dram.stats.value("row_hits") == 1
        assert dram.stats.value("row_misses") == 1

    def test_row_conflict_pays_full_latency(self):
        cfg = DRAMConfig(access_latency=100, row_hit_latency=20, row_buffer_bytes=1024)
        mem, dram = make_dram(cfg)
        mem.access(0.0, 0, 64, False)
        mem.access(0.0, 4096, 64, False)
        assert dram.stats.value("row_misses") == 2

    def test_bandwidth_serializes(self):
        cfg = DRAMConfig(
            access_latency=0, row_hit_latency=0, bytes_per_cycle=1, activate_occupancy=0
        )
        mem, __ = make_dram(cfg)
        mem.access(0.0, 0, 100, False)
        end = mem.access(0.0, 0, 100, False)
        # The channel starts when the first transaction leaves the bus.
        assert end == pytest.approx(bus_time(100) + 200)

    def test_activate_occupancy_blocks_channel(self):
        cfg = DRAMConfig(
            access_latency=0, row_hit_latency=0, bytes_per_cycle=1, activate_occupancy=24
        )
        mem, __ = make_dram(cfg)
        mem.access(0.0, 0, 100, False)  # row miss: activate + data
        end = mem.access(0.0, 0, 100, False)  # row hit: data only
        assert end == pytest.approx(bus_time(100) + 224)

    def test_banks_keep_independent_open_rows(self):
        cfg = DRAMConfig(row_buffer_bytes=1024, num_banks=8)
        mem, dram = make_dram(cfg)
        # Two interleaved streams landing in different banks both stay open.
        mem.access(0.0, 0, 64, False)          # bank 0, opens row 0
        mem.access(0.0, 1024, 64, False)       # bank 1, opens row 1
        mem.access(0.0, 64, 64, False)         # bank 0, row 0 again: hit
        mem.access(0.0, 1088, 64, False)       # bank 1, row 1 again: hit
        assert dram.stats.value("row_hits") == 2
        assert dram.stats.value("row_misses") == 2

    def test_single_bank_thrashes(self):
        cfg = DRAMConfig(row_buffer_bytes=1024, num_banks=1)
        mem, dram = make_dram(cfg)
        mem.access(0.0, 0, 64, False)
        mem.access(0.0, 1024, 64, False)
        mem.access(0.0, 64, 64, False)  # row 0 was closed by the row-1 access
        assert dram.stats.value("row_hits") == 0

    def test_zero_bytes_is_noop(self):
        mem, dram = make_dram()
        assert mem.access(5.0, 0, 0, False) == 5.0
        assert dram.stats.snapshot() == {}
        assert dram.channel.inner.bookings == 0

    def test_read_write_counters(self):
        mem, dram = make_dram()
        mem.access(0.0, 0, 64, False)
        mem.access(0.0, 0, 64, True)
        assert dram.stats.value("reads") == 1
        assert dram.stats.value("writes") == 1
        assert dram.bytes_moved == 128

    def test_reset(self):
        mem, dram = make_dram()
        mem.access(0.0, 0, 64, False)
        dram.reset()
        assert dram.bytes_moved == 0
        assert dram.stats.value("reads") == 0
