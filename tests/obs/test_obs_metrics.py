"""Unit tests for the MetricStream: exact streamed percentiles, counters,
sums, snapshot cadence, and the no-op NullMetricStream."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import NULL_METRICS, MetricStream, NullMetricStream


def nearest_rank(samples, p):
    """Histogram's convention: smallest v with P(sample <= v) >= p."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * p))
    return ordered[min(rank, len(ordered)) - 1]


class TestMetricStream:
    def test_observe_builds_distribution_summary(self):
        ms = MetricStream()
        for x in (1.0, 2.0, 3.0, 4.0):
            ms.observe("latency_ms", x)
        snap = ms.current()
        assert snap["latency_ms_count"] == 4.0
        assert snap["latency_ms_mean"] == pytest.approx(2.5)
        assert snap["latency_ms_min"] == 1.0
        assert snap["latency_ms_max"] == 4.0
        assert "latency_ms_p50" in snap and "latency_ms_p99" in snap

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=400,
        ),
        p=st.sampled_from([0.5, 0.95, 0.99]),
    )
    def test_property_percentile_tolerance(self, samples, p):
        """On float samples of any length every streamed percentile is the
        exact nearest-rank order statistic — an observed value, never an
        interpolation."""
        ms = MetricStream()
        for x in samples:
            ms.observe("latency_ms", x)
        key = f"latency_ms_p{round(p * 100)}"
        assert ms.current()[key] == nearest_rank(samples, p)

    def test_heavy_tail_percentiles_are_exact(self):
        """A latency-shaped (heavy-tailed) stream long enough to leave the
        small-sample regime: p50/p95/p99 and the extrema stay exact."""
        rng = random.Random(2)
        samples = [rng.expovariate(1.0) for _ in range(20_000)]
        ms = MetricStream()
        for x in samples:
            ms.observe("latency_ms", x)
        snap = ms.current()
        for p in (0.5, 0.95, 0.99):
            assert snap[f"latency_ms_p{round(p * 100)}"] == nearest_rank(samples, p)
        assert snap["latency_ms_min"] == min(samples)
        assert snap["latency_ms_max"] == max(samples)

    def test_mark_and_acc_and_count(self):
        ms = MetricStream()
        ms.mark("completed")
        ms.mark("completed", 3)
        ms.acc("busy", 10.5)
        ms.acc("busy", 4.5)
        assert ms.count("completed") == 4
        assert ms.current()["busy"] == pytest.approx(15.0)
        assert ms.count("never") == 0

    def test_due_every_n_completions(self):
        ms = MetricStream(every=4)
        hits = []
        for i in range(1, 9):
            ms.mark("completed")
            hits.append(ms.due())
        assert hits == [False, False, False, True, False, False, False, True]

    def test_tick_snapshots_and_callback(self):
        seen = []
        ms = MetricStream(on_snapshot=seen.append)
        ms.mark("completed", 2)
        snap = ms.tick(0.5, {"goodput_qps": 7.0})
        assert snap["t"] == 0.5
        assert snap["completed"] == 2
        assert snap["goodput_qps"] == 7.0
        assert ms.snapshots == [snap]
        assert seen == [snap]

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricStream(every=0)

    def test_truthy(self):
        assert MetricStream()


class TestNullMetricStream:
    def test_falsy_noop(self):
        ms = NullMetricStream()
        assert not ms
        assert not NULL_METRICS
        ms.observe("x", 1.0)
        ms.mark("completed")
        ms.acc("busy", 1.0)
        assert ms.due() is False
        assert ms.tick(1.0, {"k": 1}) == {}
        assert ms.snapshots == []
        assert ms.current() == {}
        assert isinstance(ms, MetricStream)  # call sites need one type
