"""Serving-engine telemetry: span parity across replay, live metrics.

The record/replay fast path must be invisible to observers: a replayed
serving run emits exactly the same request spans — same count, same
tenant/tile attribution — as the recording run, differing only in the
``replayed`` annotation.  Streaming metrics must be readable while the
simulation is in flight (snapshots strictly before the final report).
"""

import pytest

from repro.core.config import default_config
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricStream
from repro.obs.tracer import Tracer
from repro.serve import TenantSpec, TrafficProfile, simulate_serving

MODEL = dict(model="squeezenet", input_hw=32)


def tenant(name="t", qps=150.0, n=6, **overrides):
    base = dict(name=name, arrival="poisson", rate_qps=qps, num_requests=n, **MODEL)
    base.update(overrides)
    return TenantSpec(**base)


def two_tenant_profile(seed=0):
    return TrafficProfile(
        tenants=(tenant("a", pin_tile=0), tenant("b", pin_tile=1, n=4)),
        num_tiles=2,
        seed=seed,
    )


def traced_run(replay: bool, seed=0):
    tracer = Tracer.for_cycles(default_config().clock_ghz, run_id="parity", seed=seed)
    result = simulate_serving(two_tenant_profile(seed), replay=replay, tracer=tracer)
    return tracer, result


def request_spans(tracer):
    """(lane, tenant, request index) of every request span, sorted."""
    out = []
    for event in tracer.events():
        if event[0] != "X":
            continue
        args = event[5] or {}
        if "tenant" in args:
            out.append((event[1], args["tenant"], args["index"]))
    return sorted(out)


class TestReplaySpanParity:
    def test_replayed_run_emits_identical_request_spans(self):
        rec_tracer, rec = traced_run(replay=False)
        rep_tracer, rep = traced_run(replay=True)
        assert rep.replayed > 0, "no request ever replayed"
        rec_spans = request_spans(rec_tracer)
        rep_spans = request_spans(rep_tracer)
        assert len(rec_spans) == rec.completed
        assert rep_spans == rec_spans  # same count, tenants and tile lanes

    def test_replayed_annotation_distinguishes_the_paths(self):
        rec_tracer, __ = traced_run(replay=False)
        rep_tracer, rep = traced_run(replay=True)

        def flags(tracer):
            return [
                e[5]["replayed"]
                for e in tracer.events()
                if e[0] == "X" and e[5] and "replayed" in e[5]
            ]

        assert set(flags(rec_tracer)) == {False}
        assert flags(rep_tracer).count(True) == rep.replayed

    def test_both_paths_export_valid_chrome_traces(self):
        for replay in (False, True):
            tracer, __ = traced_run(replay=replay)
            assert validate_chrome_trace(to_chrome_trace(tracer)) == []


class TestServingTraceContent:
    def test_arrival_instants_per_issued_request(self):
        tracer, result = traced_run(replay=True)
        arrivals = [e for e in tracer.events() if e[0] == "i" and e[2] == "arrival"]
        assert len(arrivals) == result.issued
        lanes = {e[1] for e in arrivals}
        assert lanes == {"tenant:a", "tenant:b"}

    def test_tile_lanes_and_queue_args(self):
        tracer, __ = traced_run(replay=True)
        spans = [e for e in tracer.events() if e[0] == "X"]
        assert {e[1] for e in spans} <= {"tile0", "tile1"}
        for span in spans:
            args = span[5]
            assert args["queue_ms"] >= 0.0
            assert isinstance(args["slo_met"], bool)

    def test_lanes_are_declared_with_processes(self):
        tracer, __ = traced_run(replay=True)
        lanes = tracer.lanes()
        assert lanes["tile0"][0] == "serve"
        assert lanes["tenant:a"][0] == "traffic"
        assert lanes["cluster"][0] == "serve"


class TestServingLiveMetrics:
    def test_snapshots_stream_while_in_flight(self):
        ticks = []
        metrics = MetricStream(every=4, on_snapshot=ticks.append)
        result = simulate_serving(two_tenant_profile(), metrics=metrics)
        assert result.completed == 10
        # every=4 over 10 completions -> in-flight ticks at 4 and 8, plus
        # the closing whole-run snapshot.
        assert len(metrics.snapshots) == 3
        assert ticks == metrics.snapshots
        completed = [s["completed"] for s in metrics.snapshots]
        assert completed == [4, 8, 10]
        final = metrics.snapshots[-1]
        assert final["latency_ms_p99"] > 0.0
        assert final["goodput_qps"] > 0.0
        assert 0.0 < final["utilization"] <= 1.0
        # Snapshot timestamps are simulated seconds and non-decreasing.
        ts = [s["t"] for s in metrics.snapshots]
        assert ts == sorted(ts) and ts[0] > 0.0

    def test_no_repeated_closing_snapshot(self):
        """When ``every`` divides the completion count the last in-flight
        tick already covers every record: no closing duplicate follows."""
        metrics = MetricStream(every=5)
        result = simulate_serving(two_tenant_profile(), metrics=metrics)
        assert result.completed == 10
        completed = [s["completed"] for s in metrics.snapshots]
        assert completed == [5, 10]
        assert all(a != b for a, b in zip(metrics.snapshots, metrics.snapshots[1:]))

    def test_metrics_match_final_report(self):
        metrics = MetricStream(every=64)
        result = simulate_serving(two_tenant_profile(), metrics=metrics)
        final = metrics.snapshots[-1]
        assert final["completed"] == result.completed
        report = result.report.overall
        assert final["latency_ms_mean"] == pytest.approx(report.mean_ms, rel=1e-6)
        assert final["goodput_qps"] == pytest.approx(report.goodput_qps, rel=1e-6)
        # The stream and the report compute percentiles one way; the report
        # only rounds each latency to whole cycles first.
        half_cycle_ms = 0.5 / (default_config().clock_ghz * 1e6)
        for key, exact in (
            ("p50", report.p50_ms),
            ("p95", report.p95_ms),
            ("p99", report.p99_ms),
            ("max", report.max_ms),
        ):
            assert abs(final[f"latency_ms_{key}"] - exact) <= half_cycle_ms, key

    def test_untraced_run_results_are_unaffected(self):
        """Attaching a tracer/metrics must not change simulation results."""
        plain = simulate_serving(two_tenant_profile())
        tracer = Tracer.for_cycles(default_config().clock_ghz)
        observed = simulate_serving(
            two_tenant_profile(), tracer=tracer, metrics=MetricStream(every=2)
        )
        assert observed.records == plain.records
        assert observed.makespan_cycles == plain.makespan_cycles
