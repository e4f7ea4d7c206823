"""Unit tests for the system bus, driven through the memory pass."""

import pytest

from repro.mem.bus import SystemBus
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig


def make_bus(beat_bytes=16):
    """A memory system with the given bus; returns ``(mem, bus)``."""
    mem = MemorySystem(MemorySystemConfig(bus_beat_bytes=beat_bytes))
    return mem, mem.bus


class TestSystemBus:
    def test_width_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            MemorySystemConfig(bus_beat_bytes=12)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SystemBus(beat_bytes=0)
        with pytest.raises(ValueError, match="positive"):
            MemorySystemConfig(bus_beat_bytes=0)

    def test_transfer_time(self):
        mem, bus = make_bus(beat_bytes=16)
        mem.access(0.0, 0, 64, False)
        assert bus.channel.next_free == pytest.approx(1.0 + 64 / 16)

    def test_wider_bus_is_faster(self):
        narrow, __ = make_bus(beat_bytes=8)
        wide, __ = make_bus(beat_bytes=64)
        assert wide.access(0.0, 0, 512, False) < narrow.access(0.0, 0, 512, False)

    def test_requester_accounting(self):
        mem, bus = make_bus()
        mem.access(0.0, 0, 100, False, requester="cpu0")
        mem.access(0.0, 0, 50, False, requester="gemmini0")
        assert bus.stats.value("bytes_cpu0") == 100
        assert bus.stats.value("bytes_gemmini0") == 50
        assert bus.stats.value("bytes") == 150

    def test_zero_bytes_noop(self):
        mem, bus = make_bus()
        assert mem.access(7.0, 0, 0, False) == 7.0
        assert bus.stats.value("transactions") == 0

    def test_contention_serializes(self):
        mem, bus = make_bus(beat_bytes=16)
        mem.access(0.0, 0, 160, False)
        end1 = bus.channel.next_free
        mem.access(0.0, 1 << 20, 160, False)
        end2 = bus.channel.next_free
        assert end2 > end1
