"""Unit tests for the Chrome-trace exporter, validator and metrics export."""

import csv
import json

import pytest

from repro.obs.export import (
    export_metrics_csv,
    export_metrics_json,
    metrics_to_dict,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricStream
from repro.obs.tracer import Tracer


def _events_of(data, ph=None):
    events = data["traceEvents"]
    return [e for e in events if ph is None or e["ph"] == ph]


class TestChromeTraceShape:
    def test_metadata_carries_run_identity(self):
        t = Tracer(run_id="r1", seed=9)
        t.complete("lane", "w", 0.0, 1.0)
        data = to_chrome_trace(t)
        assert data["metadata"]["run_id"] == "r1"
        assert data["metadata"]["seed"] == 9
        assert data["displayTimeUnit"] == "ms"

    def test_lane_layout_pids_and_tids(self):
        t = Tracer()
        t.declare_lane("tile0", process="serve", label="tile0 [big]", sort=0)
        t.declare_lane("tile1", process="serve", label="tile1 [little]", sort=1)
        t.declare_lane("tenant:a", process="traffic")
        t.complete("tile0", "r", 0.0, 1.0)
        t.complete("tile1", "r", 0.0, 1.0)
        t.instant("tenant:a", "arrival", 0.0)
        data = to_chrome_trace(t)
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in _events_of(data, "M")
            if e["name"] == "thread_name"
        }
        processes = {
            e["pid"]: e["args"]["name"]
            for e in _events_of(data, "M")
            if e["name"] == "process_name"
        }
        assert set(processes.values()) == {"serve", "traffic"}
        assert "tile0 [big]" in names.values()
        # Lanes of one process share its pid; distinct lanes get distinct tids.
        (serve_pid,) = [pid for pid, name in processes.items() if name == "serve"]
        serve_tids = [tid for (pid, tid) in names if pid == serve_pid]
        assert len(serve_tids) == len(set(serve_tids)) == 2

    def test_undeclared_lane_defaults(self):
        t = Tracer()
        t.complete("mystery", "w", 0.0, 1.0)
        data = to_chrome_trace(t)
        labels = [
            e["args"]["name"] for e in _events_of(data, "M") if e["name"] == "thread_name"
        ]
        assert "mystery" in labels
        assert validate_chrome_trace(data) == []

    def test_ts_scaling_cycles_to_microseconds(self):
        t = Tracer.for_cycles(1.0)  # 1 GHz: 1000 cycles = 1 us
        t.complete("lane", "w", 500.0, 1500.0)
        (span,) = _events_of(to_chrome_trace(t), "X")
        assert span["ts"] == pytest.approx(0.5)
        assert span["dur"] == pytest.approx(1.0)

    def test_nested_spans_fail_validation(self):
        # Spans never nest: a span inside another on its lane is an overlap.
        t = Tracer()
        t.complete("lane", "inner", 2.0, 4.0)
        t.complete("lane", "outer", 0.0, 10.0)
        data = to_chrome_trace(t)
        assert [e["name"] for e in _events_of(data, "X")] == ["outer", "inner"]
        (violation,) = validate_chrome_trace(data)
        assert "before span 'outer' ends" in violation

    def test_sequential_spans_close_before_next_opens(self):
        t = Tracer()
        t.complete("lane", "b", 1.0, 3.0)
        t.complete("lane", "a", 0.0, 1.0, {"k": 1})
        data = to_chrome_trace(t)
        assert {e["ph"] for e in data["traceEvents"]} == {"X", "M"}
        spans = [(e["name"], e["ts"], e["dur"], e.get("args")) for e in _events_of(data, "X")]
        assert spans == [("a", 0.0, 1.0, {"k": 1}), ("b", 1.0, 2.0, None)]
        assert validate_chrome_trace(data) == []

    def test_instants_and_counters_interleave_in_order(self):
        t = Tracer()
        t.complete("lane", "w", 0.0, 10.0)
        t.instant("lane", "mark", 5.0, {"k": 1})
        t.counter("lane", "depth", 7.0, 3)
        t.complete("lane", "v", 10.0, 12.0)
        data = to_chrome_trace(t)
        assert validate_chrome_trace(data) == []
        inst = next(e for e in _events_of(data, "i"))
        ctr = next(e for e in _events_of(data, "C"))
        assert inst["s"] == "t" and inst["args"] == {"k": 1}
        assert ctr["args"] == {"depth": 3}
        kinds = [e["ph"] for e in data["traceEvents"] if e["ph"] != "M"]
        assert kinds == ["X", "i", "C", "X"]

    def test_out_of_emission_order_spans_still_validate(self):
        t = Tracer()
        # Emission order deliberately scrambled; export sorts by start.
        t.complete("lane", "late", 5.0, 6.0)
        t.complete("lane", "early", 0.0, 1.0)
        assert validate_chrome_trace(to_chrome_trace(t)) == []

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        t = Tracer(run_id="rt")
        t.complete("lane", "w", 0.0, 1.0)
        path = write_chrome_trace(t, tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        assert data["metadata"]["run_id"] == "rt"


class TestValidator:
    def test_valid_empty_shapes(self):
        assert validate_chrome_trace({"traceEvents": "nope"}) == [
            "traceEvents missing or not a list"
        ]
        assert "no events" in validate_chrome_trace({"traceEvents": []})[0]

    def test_missing_required_keys(self):
        out = validate_chrome_trace([{"ph": "X", "ts": 0}])
        assert any("missing" in v for v in out)

    def test_unknown_phase(self):
        out = validate_chrome_trace([{"ph": "Z", "ts": 0, "pid": 1, "tid": 1}])
        assert any("unknown phase" in v for v in out)

    def test_backwards_ts_in_lane(self):
        events = [
            {"ph": "i", "ts": 5, "pid": 1, "tid": 1, "name": "a", "s": "t"},
            {"ph": "i", "ts": 3, "pid": 1, "tid": 1, "name": "b", "s": "t"},
        ]
        out = validate_chrome_trace(events)
        assert any("goes backwards" in v for v in out)

    def test_backwards_ts_other_lane_ok(self):
        events = [
            {"ph": "i", "ts": 5, "pid": 1, "tid": 1, "name": "a", "s": "t"},
            {"ph": "i", "ts": 3, "pid": 1, "tid": 2, "name": "b", "s": "t"},
        ]
        assert validate_chrome_trace(events) == []

    def test_unbalanced_begin(self):
        # B/E pairs are not part of the schema: spans are complete X events.
        events = [{"ph": "B", "ts": 0, "pid": 1, "tid": 1, "name": "open"}]
        out = validate_chrome_trace(events)
        assert any("unknown phase 'B'" in v for v in out)

    def test_mismatched_end_name(self):
        events = [
            {"ph": "B", "ts": 0, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "E", "ts": 1, "pid": 1, "tid": 1, "name": "b"},
        ]
        out = validate_chrome_trace(events)
        assert len(out) == 2 and all("unknown phase" in v for v in out)

    def test_end_without_begin(self):
        events = [{"ph": "E", "ts": 1, "pid": 1, "tid": 1, "name": "a"}]
        out = validate_chrome_trace(events)
        assert any("unknown phase 'E'" in v for v in out)

    def test_overlapping_spans_in_lane(self):
        events = [
            {"ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1, "name": "outer"},
            {"ph": "X", "ts": 2, "dur": 2, "pid": 1, "tid": 1, "name": "inner"},
        ]
        out = validate_chrome_trace(events)
        assert any("before span 'outer' ends" in v for v in out)

    def test_spans_overlapping_across_lanes_ok(self):
        events = [
            {"ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "X", "ts": 2, "dur": 2, "pid": 1, "tid": 2, "name": "b"},
        ]
        assert validate_chrome_trace(events) == []

    def test_abutting_spans_ok_despite_rounding(self):
        # 0.1 + 0.2 > 0.3 in binary floating point: the first span's scaled
        # end lands one ulp after the next span's scaled start.
        events = [
            {"ph": "X", "ts": 0.1, "dur": 0.2, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "X", "ts": 0.3, "dur": 1.0, "pid": 1, "tid": 1, "name": "b"},
        ]
        assert validate_chrome_trace(events) == []

    @pytest.mark.parametrize("dur", [-1.0, None])
    def test_negative_or_missing_dur(self, dur):
        event = {"ph": "X", "ts": 0, "pid": 1, "tid": 1, "name": "a"}
        if dur is not None:
            event["dur"] = dur
        out = validate_chrome_trace([event])
        assert any("bad dur" in v for v in out)


class TestMetricsExport:
    def _stream(self):
        ms = MetricStream()
        ms.mark("completed", 3)
        ms.observe("latency_ms", 1.0)
        ms.observe("latency_ms", 2.0)
        ms.tick(0.1)
        ms.tick(0.2, {"goodput_qps": 5.0})
        return ms

    def test_metrics_to_dict_shape(self):
        doc = metrics_to_dict(self._stream(), meta={"command": "serve"})
        assert doc["meta"]["command"] == "serve"
        # the stream's own run-id stamp joins metrics files to ledger records
        assert doc["meta"]["run_id"].startswith("metrics-")
        assert len(doc["snapshots"]) == 2
        assert doc["snapshots"][1]["goodput_qps"] == 5.0
        assert doc["final"]["completed"] == 3

    def test_json_roundtrip(self, tmp_path):
        path = export_metrics_json(self._stream(), tmp_path / "m.json", meta={"seed": 1})
        doc = json.loads(path.read_text())
        assert doc["meta"]["seed"] == 1
        assert doc["snapshots"][0]["t"] == 0.1

    def test_csv_one_row_per_snapshot_plus_final(self, tmp_path):
        path = export_metrics_csv(self._stream(), tmp_path / "m.csv")
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 3  # two snapshots + final
        assert rows[0]["t"] == "0.1"
        assert rows[-1]["t"] == ""  # final row is unstamped
        assert rows[-1]["completed"] == "3"
