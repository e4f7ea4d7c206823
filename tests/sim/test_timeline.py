"""Unit tests for resource timelines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    def test_transfer_duration_scales_with_bytes(self):
        bw = BandwidthTimeline("bus", bytes_per_cycle=4.0)
        start, end = bw.transfer(0.0, 40)
        assert end - start == pytest.approx(10.0)

    def test_overhead_added_per_transaction(self):
        bw = BandwidthTimeline("bus", bytes_per_cycle=8.0, overhead=2.0)
        start, end = bw.transfer(0.0, 8)
        assert end - start == pytest.approx(3.0)

    def test_contention_serializes(self):
        bw = BandwidthTimeline("bus", bytes_per_cycle=1.0)
        bw.transfer(0.0, 10)
        start, __ = bw.transfer(0.0, 10)
        assert start == pytest.approx(10.0)

    def test_bandwidth_conserved_under_contention(self):
        bw = BandwidthTimeline("bus", bytes_per_cycle=2.0)
        end = 0.0
        for __ in range(10):
            __, end = bw.transfer(0.0, 100)
        assert bw.bytes_moved / end == pytest.approx(2.0)

    def test_zero_bytes(self):
        bw = BandwidthTimeline("bus", bytes_per_cycle=2.0)
        start, end = bw.transfer(5.0, 0)
        assert start == end == 5.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTimeline("bus", bytes_per_cycle=0.0)

    def test_negative_bytes_rejected(self):
        bw = BandwidthTimeline("bus", bytes_per_cycle=1.0)
        with pytest.raises(ValueError):
            bw.transfer(0.0, -1)

    def test_bytes_moved_counter(self):
        bw = BandwidthTimeline("bus", bytes_per_cycle=1.0)
        bw.transfer(0.0, 3)
        bw.transfer(0.0, 4)
        assert bw.bytes_moved == 7
