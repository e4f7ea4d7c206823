"""Every lane is sequential: a trace's spans never nest or overlap, so the
summary's span totals and lane busy time are sums of what the simulators
report (a run's layer cycles, a tile's request services, a search's
generations)."""

from dataclasses import replace

import pytest

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.dse import EvaluationSpec, Explorer, gemmini_space, make_strategy
from repro.eval.runner import ExperimentRunner
from repro.models import build_model
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricStream
from repro.obs.summary import _stem, summarize_trace
from repro.obs.tracer import Tracer
from repro.serve import TenantSpec, TrafficProfile, simulate_serving
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.runtime import Runtime


def _summary(tracer):
    data = to_chrome_trace(tracer)
    assert validate_chrome_trace(data) == []
    return summarize_trace(data)


class TestRunLayerSpans:
    """``run --trace-out``: each layer's span is the window of cycles it
    adds to the run, so the spans tile the run."""

    @pytest.fixture(scope="class", params=[True, False], ids=["im2col", "no-im2col"])
    def traced(self, request):
        config = replace(default_config(), has_im2col=request.param)
        soc = make_soc(gemmini=config)
        model = compile_graph(
            build_model("squeezenet", input_hw=64), SoftwareParams.from_config(config)
        )
        tracer = Tracer.for_cycles(config.clock_ghz)
        result = Runtime(soc.tile, model, tracer=tracer).run()
        return tracer, result, _summary(tracer)

    def test_layer_totals_are_layer_cycles(self, traced):
        tracer, result, summary = traced
        cycles: dict[str, float] = {}
        for layer in result.layers:
            stem = _stem(layer.name)
            cycles[stem] = cycles.get(stem, 0.0) + layer.cycles
        assert set(summary.spans) == set(cycles)
        for stem, total in cycles.items():
            assert summary.spans[stem].total_us == pytest.approx(
                total * tracer.ts_scale, rel=1e-9, abs=1e-9
            ), stem

    def test_totals_and_lane_busy_sum_to_the_run(self, traced):
        tracer, result, summary = traced
        run_us = result.total_cycles * tracer.ts_scale
        assert sum(s.total_us for s in summary.spans.values()) == pytest.approx(run_us, rel=1e-9)
        (lane,) = summary.lanes.values()
        assert lane.spans == len(result.layers)
        assert lane.busy_us == pytest.approx(run_us, rel=1e-9)

    def test_args_keep_dispatch_and_last_op_end(self, traced):
        tracer, result, __ = traced
        spans = [e for e in tracer.events() if e[0] == "X"]
        assert [e[2] for e in spans] == [layer.name for layer in result.layers]
        for (__, __, __, start, end, args), layer in zip(spans, result.layers):
            assert args == {
                "kind": layer.kind,
                "placement": layer.placement,
                "macs": layer.macs,
                "dispatch_start": layer.start_time,
                "last_op_end": layer.end_time,
            }
            assert end - start == pytest.approx(layer.cycles, rel=1e-12, abs=1e-6)


class TestServeTileLanes:
    def test_tile_lanes_match_the_request_records(self):
        config = default_config()
        tenants = tuple(
            TenantSpec(
                name=name, model=model, input_hw=32, arrival="poisson",
                rate_qps=2000.0, num_requests=6, pin_tile=tile,
            )
            for name, model, tile in (("a", "squeezenet", 0), ("b", "mobilenetv2", 1))
        )
        tracer = Tracer.for_cycles(config.clock_ghz)
        result = simulate_serving(
            TrafficProfile(tenants=tenants, num_tiles=2, seed=0), tracer=tracer
        )
        summary = _summary(tracer)
        to_us = tracer.ts_scale
        lanes = {stats.lane.split()[0]: stats for stats in summary.lanes.values()
                 if stats.process == "serve" and stats.spans}
        assert set(lanes) == {"tile0", "tile1"}
        queued = 0.0
        for tile in (0, 1):
            records = [r for r in result.records if r.tile == tile]
            stats = lanes[f"tile{tile}"]
            assert stats.spans == len(records)
            assert stats.busy_us == pytest.approx(
                sum(r.finish - r.start for r in records) * to_us, rel=1e-9
            )
            assert stats.queue_us == pytest.approx(
                sum(r.queue_cycles for r in records) * to_us, rel=1e-9
            )
            queued += stats.queue_us
        assert queued > 0, "no request queued: the queue sum is not exercised"


class TestDseSearchLane:
    def test_one_generation_span_per_generation(self):
        space = gemmini_space(max_dim=8)
        tracer = Tracer.wall()
        metrics = MetricStream()
        Explorer(
            space, make_strategy("evolutionary", space, seed=0), EvaluationSpec(),
            budget=24, runner=ExperimentRunner(max_workers=1),
            tracer=tracer, metrics=metrics,
        ).explore()
        generations = len(metrics.snapshots)
        assert generations > 1
        spans = [e for e in tracer.events() if e[0] == "X"]
        assert [e[2] for e in spans] == [f"gen[{g}]" for g in range(generations)]
        summary = _summary(tracer)
        assert summary.spans["gen"].count == generations
        (lane,) = summary.lanes.values()
        assert lane.spans == generations
        assert lane.busy_us == pytest.approx(summary.spans["gen"].total_us)
