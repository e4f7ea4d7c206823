"""Unit tests for statistics primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import Counter, Histogram, RateWindow, StatsRegistry, TimeSeries


class TestCounter:
    def test_add_default(self):
        c = Counter("c")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_reset(self):
        c = Counter("c")
        c.add(3)
        c.reset()
        assert c.value == 0


class TestHistogram:
    def test_mean(self):
        h = Histogram("lat")
        h.record(10)
        h.record(20)
        assert h.mean == pytest.approx(15.0)

    def test_weighted_record(self):
        h = Histogram("lat")
        h.record(5, weight=3)
        assert h.count == 3
        assert h.mean == pytest.approx(5.0)

    def test_min_max(self):
        h = Histogram("lat")
        for v in (7, 3, 9):
            h.record(v)
        assert h.min == 3
        assert h.max == 9

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.mean == 0.0
        assert h.percentile(0.5) == 0

    def test_percentile(self):
        h = Histogram("lat")
        for v in range(1, 11):
            h.record(v)
        assert h.percentile(0.5) == 5
        assert h.percentile(1.0) == 10

    def test_percentile_bounds(self):
        h = Histogram("lat")
        h.record(1)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_summary_digest(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.record(v)
        s = h.summary()
        assert s["count"] == 100
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == 50
        assert s["p95"] == 95
        assert s["p99"] == 99
        assert s["max"] == 100

    def test_summary_empty(self):
        s = Histogram("lat").summary()
        assert s == {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    @given(
        values=st.lists(st.integers(min_value=0, max_value=500), min_size=0, max_size=60),
        ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    )
    def test_percentiles_match_percentile(self, values, ps):
        """The single-sweep batch answer must equal per-p queries, in the
        caller's (unsorted) order."""
        h = Histogram("lat")
        for v in values:
            h.record(v)
        assert h.percentiles(ps) == [h.percentile(p) for p in ps]

    def test_percentiles_rejects_out_of_range(self):
        h = Histogram("lat")
        h.record(1)
        with pytest.raises(ValueError):
            h.percentiles([0.5, 1.5])

    def test_summary_sorts_buckets_once(self, monkeypatch):
        """``summary()`` answers p50/p95/p99 from ONE sorted pass over the
        buckets — the micro-optimisation that makes per-tenant serving
        digests ~3x cheaper.  Counts actual ``sorted`` invocations."""
        h = Histogram("lat")
        for v in range(1, 1001):
            h.record(v % 97)
        calls = {"n": 0}
        real_sorted = sorted

        def counting_sorted(*args, **kwargs):
            calls["n"] += 1
            return real_sorted(*args, **kwargs)

        import repro.sim.stats as stats_mod

        monkeypatch.setattr(stats_mod, "sorted", counting_sorted, raising=False)
        s = h.summary()
        monkeypatch.undo()
        # One sort of the bucket keys + one argsort of the three ps.
        assert calls["n"] <= 2
        assert s["p50"] == h.percentile(0.50)
        assert s["p95"] == h.percentile(0.95)
        assert s["p99"] == h.percentile(0.99)

    def test_percentiles_single_pass_is_faster(self):
        """Micro-benchmark: on a many-bucket histogram, one batched
        ``percentiles()`` sweep beats three ``percentile()`` calls (which
        sort the buckets once each).  Generous 1.4x bar so scheduler noise
        cannot flake the assertion; the honest ratio is ~3x."""
        import timeit

        h = Histogram("lat")
        for v in range(50_000):
            h.record(v)
        batched = min(timeit.repeat(lambda: h.percentiles((0.50, 0.95, 0.99)), number=3, repeat=5))
        separate = min(
            timeit.repeat(
                lambda: [h.percentile(p) for p in (0.50, 0.95, 0.99)], number=3, repeat=5
            )
        )
        assert batched * 1.4 < separate, (
            f"batched percentiles ({batched:.4f}s) not meaningfully faster "
            f"than separate calls ({separate:.4f}s)"
        )

    @given(
        values=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
        ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10),
    )
    def test_percentile_monotone_in_p(self, values, ps):
        """percentile(p) must be non-decreasing in p — the property every
        p50 <= p95 <= p99 serving report depends on."""
        h = Histogram("lat")
        for v in values:
            h.record(v)
        ps = sorted(ps)
        quantiles = [h.percentile(p) for p in ps]
        assert quantiles == sorted(quantiles)
        assert h.min <= quantiles[0] and quantiles[-1] <= h.max


class TestTimeSeries:
    def test_record_and_last(self):
        ts = TimeSeries("s")
        ts.record(1.0, 0.5)
        ts.record(2.0, 0.7)
        assert len(ts) == 2
        assert (ts.times[-1], ts.values[-1]) == (2.0, 0.7)


class TestRateWindow:
    def test_emits_once_per_window(self):
        rw = RateWindow("miss", window=4)
        for i in range(8):
            rw.record(float(i), positive=(i % 2 == 0))
        assert len(rw.series) == 2
        assert rw.series.values == [0.5, 0.5]

    def test_flush_partial_window(self):
        rw = RateWindow("miss", window=10)
        rw.record(0.0, True)
        rw.record(1.0, False)
        rw.flush(2.0)
        assert len(rw.series) == 1
        assert rw.series.values[0] == pytest.approx(0.5)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RateWindow("miss", window=0)

    def test_oversized_weight_splits_at_window_boundaries(self):
        """Regression: a weight > window used to emit ONE rate over an
        oversized window; it must fold into whole windows instead."""
        rw = RateWindow("miss", window=4)
        rw.record(1.0, True, weight=10)
        # 10 positives = two full windows of 4, with 2 left pending.
        assert rw.series.values == [1.0, 1.0]
        rw.record(2.0, False, weight=2)
        # The pending 2 positives plus 2 negatives close the third window.
        assert rw.series.values == [1.0, 1.0, 0.5]
        rw.flush(3.0)
        assert rw.series.values == [1.0, 1.0, 0.5]  # nothing left pending

    def test_weight_crossing_a_boundary_splits_the_tail(self):
        """Regression: a record crossing the boundary folded its tail into
        the emitted window (a rate over window+tail events) instead of
        carrying it into the next window."""
        rw = RateWindow("miss", window=4)
        rw.record(0.0, False, weight=3)
        rw.record(1.0, True, weight=3)  # 1 closes the window, 2 carry over
        assert rw.series.values == [0.25]
        rw.flush(2.0)
        assert rw.series.values == [0.25, 1.0]

    def test_zero_weight_is_a_noop(self):
        rw = RateWindow("miss", window=4)
        rw.record(0.0, True, weight=0)
        rw.flush(1.0)
        assert rw.series.values == []

    def test_negative_weight_rejected(self):
        rw = RateWindow("miss", window=4)
        with pytest.raises(ValueError, match="non-negative"):
            rw.record(0.0, True, weight=-1)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_rates_always_in_unit_interval(self, outcomes):
        rw = RateWindow("miss", window=8)
        for i, outcome in enumerate(outcomes):
            rw.record(float(i), outcome)
        rw.flush(float(len(outcomes)))
        assert all(0.0 <= v <= 1.0 for v in rw.series.values)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
            min_size=1,
            max_size=60,
        )
    )
    def test_weighted_records_emit_exact_whole_windows(self, events):
        """Every emitted rate covers exactly ``window`` events, whatever
        weights arrive — the Fig. 4 series' x-axis contract."""
        window = 8
        rw = RateWindow("miss", window=window)
        for i, (outcome, weight) in enumerate(events):
            rw.record(float(i), outcome, weight=weight)
        total = sum(w for __, w in events)
        hits = sum(w for positive, w in events if positive)
        assert len(rw.series) == total // window
        # Rates are k/window for integer k, and total positives reconcile.
        emitted = [v * window for v in rw.series.values]
        assert all(abs(e - round(e)) < 1e-9 for e in emitted)
        rw.flush(float(len(events)))
        leftover = total % window
        if leftover:
            emitted.append(rw.series.values[-1] * leftover)
        assert sum(emitted) == pytest.approx(hits)


class TestStatsRegistry:
    def test_counter_identity(self):
        reg = StatsRegistry()
        reg.counter("x").add(2)
        assert reg.counter("x").value == 2
        assert reg.value("x") == 2

    def test_value_of_missing_counter_is_zero(self):
        reg = StatsRegistry()
        assert reg.value("missing") == 0

    def test_ratio(self):
        reg = StatsRegistry()
        reg.counter("hits").add(3)
        reg.counter("total").add(4)
        assert reg.ratio("hits", "total") == pytest.approx(0.75)
        assert reg.ratio("hits", "nonexistent") == 0.0

    def test_reset_clears_everything(self):
        reg = StatsRegistry()
        reg.counter("a").add()
        reg.reset()
        assert reg.value("a") == 0

    def test_snapshot(self):
        reg = StatsRegistry()
        reg.counter("a").add(1)
        reg.counter("b").add(2)
        assert reg.snapshot() == {"a": 1, "b": 2}
