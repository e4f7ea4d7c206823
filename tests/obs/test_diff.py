"""Unit tests for trace diffing (``gemmini-repro trace --diff``)."""

import json

from repro.obs import to_chrome_trace
from repro.obs.diff import (
    SpanDelta,
    diff_traces,
    format_trace_diff,
    trace_diff_to_dict,
)
from repro.obs.tracer import Tracer


def _trace(run_id, spans, queue_ms=None):
    """Build a Chrome-trace document from (lane, name, start, end) tuples."""
    tracer = Tracer(run_id=run_id, seed=0)
    tracer.declare_lane("tile0", process="soc", label="tile 0", sort=0)
    for lane, name, start, end in spans:
        args = {"queue_ms": queue_ms} if queue_ms is not None else None
        tracer.complete(lane, name, start, end, args)
    return to_chrome_trace(tracer)


class TestDiffTraces:
    def test_identical_traces_diff_to_zero(self):
        spans = [("tile0", "request[0]", 0.0, 5.0), ("tile0", "request[1]", 6.0, 9.0)]
        diff = diff_traces(_trace("a", spans), _trace("b", spans))
        assert diff.run_a == "a" and diff.run_b == "b"
        (delta,) = diff.spans
        assert delta.stem == "request"  # instance suffixes fold into the stem
        assert delta.count_a == delta.count_b == 2
        assert delta.total_delta_us == 0.0
        assert diff.only_a == [] and diff.only_b == []

    def test_slower_span_shows_positive_delta(self):
        base = [("tile0", "conv[0]", 0.0, 2.0)]
        slow = [("tile0", "conv[0]", 0.0, 6.0)]
        diff = diff_traces(_trace("a", base), _trace("b", slow))
        (delta,) = diff.spans
        assert delta.total_delta_us > 0
        assert delta.rel_total > 1.0  # 2ms -> 6ms

    def test_only_a_only_b_stems(self):
        diff = diff_traces(
            _trace("a", [("tile0", "gone", 0.0, 1.0)]),
            _trace("b", [("tile0", "fresh", 0.0, 1.0)]),
        )
        assert diff.only_a == ["gone"]
        assert diff.only_b == ["fresh"]
        assert {d.stem for d in diff.spans} == {"gone", "fresh"}

    def test_lane_busy_and_queue_deltas(self):
        diff = diff_traces(
            _trace("a", [("tile0", "req", 0.0, 2.0)], queue_ms=1.0),
            _trace("b", [("tile0", "req", 0.0, 4.0)], queue_ms=3.0),
        )
        (lane,) = [d for d in diff.lanes if d.lane == "tile 0"]
        assert lane.busy_delta_us > 0
        assert lane.queue_delta_us == 2_000.0  # 1ms -> 3ms

    def test_top_by_total_delta_ranks_by_magnitude(self):
        base = [("tile0", "big", 0.0, 10.0), ("tile0", "small", 11.0, 12.0)]
        cand = [("tile0", "big", 0.0, 30.0), ("tile0", "small", 31.0, 32.5)]
        diff = diff_traces(_trace("a", base), _trace("b", cand))
        assert [d.stem for d in diff.top_by_total_delta(2)] == ["big", "small"]
        assert [d.stem for d in diff.top_by_total_delta(1)] == ["big"]


class TestSpanDelta:
    def test_rel_total_has_no_infinities(self):
        assert SpanDelta(stem="new", total_us_b=5.0).rel_total == 1.0
        assert SpanDelta(stem="nothing").rel_total == 0.0


class TestRendering:
    def test_to_dict_round_trips_to_json(self):
        # Default tracer ts_scale is 1.0: raw timestamps are already µs.
        diff = diff_traces(
            _trace("a", [("tile0", "req", 0.0, 2000.0)]),
            _trace("b", [("tile0", "req", 0.0, 3000.0)]),
        )
        doc = json.loads(json.dumps(trace_diff_to_dict(diff)))
        assert doc["run_a"] == "a" and doc["run_b"] == "b"
        assert doc["spans"][0]["stem"] == "req"
        assert doc["spans"][0]["total_delta_us"] == 1_000.0
        assert not any(key.startswith("self") for key in doc["spans"][0])

    def test_format_names_runs_and_stems(self):
        diff = diff_traces(
            _trace("a", [("tile0", "conv", 0.0, 2.0)]),
            _trace("b", [("tile0", "conv", 0.0, 9.0)]),
        )
        text = format_trace_diff(diff)
        assert "a -> b" in text
        assert "conv" in text

    def test_format_empty_diff(self):
        text = format_trace_diff(diff_traces(_trace("a", []), _trace("b", [])))
        assert "no spans" in text
