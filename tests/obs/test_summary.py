"""Unit tests for trace summarisation (the `gemmini-repro trace` backend)."""

import json

import pytest

from repro.obs.export import to_chrome_trace
from repro.obs.summary import (
    _stem,
    format_trace_summary,
    load_trace,
    summarize_trace,
)
from repro.obs.tracer import Tracer


def _sample_tracer():
    t = Tracer(run_id="sum", seed=4)
    t.declare_lane("tile0", process="serve", label="tile0 [big]", sort=0)
    t.declare_lane("tenant:a", process="traffic")
    t.declare_lane("cache", process="runner")
    # Two request spans of the same family, with queueing args.
    t.complete("tile0", "teamA[0]", 0.0, 10.0, {"queue_ms": 2.0})
    t.complete("tile0", "teamA[1]", 10.0, 30.0, {"queue_ms": 0.5})
    # Two spans back to back on another lane.
    t.complete("tenant:a", "inner", 2.0, 4.0)
    t.complete("tenant:a", "outer[x]", 4.0, 10.0)
    t.instant("tile0", "arrival", 0.0)
    t.instant("tile0", "arrival", 5.0)
    t.counter("cache", "cache_hits", 1.0, 3)
    t.counter("cache", "cache_misses", 1.0, 1)
    t.counter("cache", "cache_hits", 2.0, 6)  # last sample wins
    return t


class TestStem:
    @pytest.mark.parametrize(
        "name,stem",
        [
            ("teamA[17]", "teamA"),
            ("dse[dim=16,tile=2]", "dse"),
            ("plain", "plain"),
            ("gen[3]", "gen"),
            ("a[1]b", "a[1]b"),  # only a trailing suffix folds
        ],
    )
    def test_stem(self, name, stem):
        assert _stem(name) == stem


class TestSummarize:
    def test_span_aggregation_by_stem(self):
        s = summarize_trace(to_chrome_trace(_sample_tracer()))
        assert s.run_id == "sum" and s.seed == 4
        team = s.spans["teamA"]
        assert team.count == 2
        # ts_scale defaults to 1.0: raw units ARE microseconds here.
        assert team.total_us == pytest.approx(30.0)
        assert team.max_us == pytest.approx(20.0)
        assert team.mean_us == pytest.approx(15.0)
        assert s.span_count == 4

    def test_lane_busy_is_sum_of_spans(self):
        s = summarize_trace(to_chrome_trace(_sample_tracer()))
        assert s.spans["outer"].total_us == pytest.approx(6.0)
        assert s.spans["inner"].total_us == pytest.approx(2.0)
        lane = s.lanes[("traffic", "tenant:a")]
        assert (lane.spans, lane.busy_us) == (2, pytest.approx(8.0))
        assert lane.utilization == pytest.approx(1.0)  # 2..10 is all busy
        assert "self_us" not in s.to_dict()["spans"]["outer"]

    def test_lane_queue_vs_service(self):
        s = summarize_trace(to_chrome_trace(_sample_tracer()))
        tile = s.lanes[("serve", "tile0 [big]")]
        assert tile.spans == 2
        assert tile.busy_us == pytest.approx(30.0)
        assert tile.queue_us == pytest.approx(2.5e3)  # 2.5 queue_ms in us
        assert tile.utilization == pytest.approx(1.0)

    def test_counters_last_sample_wins_and_ratio(self):
        s = summarize_trace(to_chrome_trace(_sample_tracer()))
        assert s.counters["cache_hits"] == 6.0
        assert s.counters["cache_misses"] == 1.0
        assert s.cache_hit_ratio() == pytest.approx(6 / 7)

    def test_instants_counted_by_stem(self):
        s = summarize_trace(to_chrome_trace(_sample_tracer()))
        assert s.instants == {"arrival": 2}

    def test_no_cache_counters_means_no_ratio(self):
        t = Tracer()
        t.complete("lane", "w", 0.0, 1.0)
        assert summarize_trace(to_chrome_trace(t)).cache_hit_ratio() is None

    def test_accepts_x_phase_foreign_traces(self):
        events = [
            {"ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1, "name": "ext[0]"},
            {"ph": "X", "ts": 10, "dur": 5, "pid": 1, "tid": 1, "name": "ext[1]"},
        ]
        s = summarize_trace(events)
        assert s.spans["ext"].count == 2
        assert s.spans["ext"].total_us == pytest.approx(15.0)

    def test_top_by_total_ordering(self):
        s = summarize_trace(to_chrome_trace(_sample_tracer()))
        names = [sp.name for sp in s.top_by_total(2)]
        assert names[0] == "teamA"

    def test_load_trace(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(to_chrome_trace(_sample_tracer())))
        assert summarize_trace(load_trace(path)).span_count == 4


class TestFormat:
    def test_rendered_summary_mentions_the_essentials(self):
        text = format_trace_summary(summarize_trace(to_chrome_trace(_sample_tracer())))
        assert "run sum" in text and "seed 4" in text
        assert "teamA" in text
        assert "queue vs service per lane" in text
        assert "cache" in text
        assert "arrival x2" in text

    def test_empty_trace_formats(self):
        text = format_trace_summary(summarize_trace([]))
        assert "0 events" in text
