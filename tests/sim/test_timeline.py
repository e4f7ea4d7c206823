"""Unit tests for resource timelines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.dram import DRAMConfig
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig
from repro.sim.timeline import BandwidthTimeline, Timeline


class TestTimeline:
    def test_first_booking_starts_at_earliest(self):
        tl = Timeline("t")
        start, end = tl.book(10.0, 5.0)
        assert start == 10.0
        assert end == 15.0

    def test_bookings_serialize(self):
        tl = Timeline("t")
        tl.book(0.0, 10.0)
        start, end = tl.book(0.0, 5.0)
        assert start == 10.0
        assert end == 15.0

    def test_gap_is_respected(self):
        tl = Timeline("t")
        tl.book(0.0, 5.0)
        start, __ = tl.book(100.0, 1.0)
        assert start == 100.0

    def test_zero_duration_booking(self):
        tl = Timeline("t")
        start, end = tl.book(3.0, 0.0)
        assert start == end == 3.0

    def test_negative_duration_rejected(self):
        tl = Timeline("t")
        with pytest.raises(ValueError):
            tl.book(0.0, -1.0)

    def test_peek_does_not_mutate(self):
        tl = Timeline("t")
        tl.book(0.0, 7.0)
        assert tl.peek(0.0) == 7.0
        assert tl.peek(9.0) == 9.0
        assert tl.next_free == 7.0

    def test_busy_time_accumulates(self):
        tl = Timeline("t")
        tl.book(0.0, 3.0)
        tl.book(10.0, 2.0)
        assert tl.busy_time == 5.0
        assert tl.utilisation(20.0) == pytest.approx(0.25)

    def test_utilisation_clamped(self):
        tl = Timeline("t")
        tl.book(0.0, 50.0)
        assert tl.utilisation(10.0) == 1.0
        assert tl.utilisation(0.0) == 0.0

    def test_reset(self):
        tl = Timeline("t")
        tl.book(0.0, 5.0)
        tl.reset()
        assert tl.next_free == 0.0
        assert tl.busy_time == 0.0
        assert tl.bookings == 0

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0, max_value=1e4),
    ), min_size=1, max_size=50))
    def test_bookings_never_overlap(self, requests):
        tl = Timeline("t")
        intervals = [tl.book(earliest, duration) for earliest, duration in requests]
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1
            assert e2 >= s2


class TestBandwidthTimeline:
    """A pipe's state as the memory pass books it: the bus (``overhead``
    1 cycle) and, without an L2, the DRAM channel (no overhead)."""

    @staticmethod
    def memory(beat_bytes=16, **dram):
        dram = DRAMConfig(access_latency=0, row_hit_latency=0, activate_occupancy=0, **dram)
        return MemorySystem(MemorySystemConfig(bus_beat_bytes=beat_bytes, l2=None, dram=dram))

    def test_transfer_duration_scales_with_bytes(self):
        mem = self.memory(bytes_per_cycle=4.0)
        mem.access(0.0, 0, 40, False)
        assert mem.dram.channel.busy_time == pytest.approx(10.0)

    def test_overhead_added_per_transaction(self):
        mem = self.memory(beat_bytes=8)
        mem.access(0.0, 0, 8, False)
        assert mem.bus.channel.overhead == 1.0
        assert mem.bus.channel.next_free == pytest.approx(1.0 + 8 / 8)

    def test_contention_serializes(self):
        mem = self.memory(beat_bytes=1)
        first = mem.access(0.0, 0, 10, False)
        second = mem.access(0.0, 0, 10, False)
        assert mem.bus.channel.next_free == pytest.approx(2 * (1.0 + 10))
        assert second > first

    def test_bandwidth_conserved_under_contention(self):
        mem = self.memory(beat_bytes=64, bytes_per_cycle=2.0)
        for __ in range(10):
            mem.access(0.0, 0, 100, False)
        channel = mem.dram.channel
        assert channel.bytes_moved / channel.busy_time == pytest.approx(2.0)

    def test_zero_bytes(self):
        mem = self.memory()
        assert mem.access(5.0, 0, 0, False) == 5.0
        assert mem.bus.channel.next_free == 0.0
        assert mem.dram.channel.next_free == 0.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTimeline("bus", bytes_per_cycle=0.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            self.memory().access([0.0], [0], [-1], [False])

    def test_bytes_moved_counter(self):
        mem = self.memory()
        mem.access(0.0, 0, 3, False)
        mem.access(0.0, 0, 4, False)
        assert mem.bus.channel.bytes_moved == 7
        assert mem.dram.bytes_moved == 7
