"""Explorer: budgets, caching through ExperimentRunner, result accounting."""

import pytest

from repro.dse import (
    EvaluationSpec,
    Explorer,
    Workload,
    conv_workload,
    evaluate_design,
    gemmini_space,
    make_strategy,
    model_workload,
    parse_objectives,
)
from repro.dse.pareto import dominates, parse_bound
from repro.eval.runner import ExperimentRunner
from repro.models.zoo import build_model, model_names


@pytest.fixture(scope="module")
def space():
    return gemmini_space(max_dim=8)


def soc_spec() -> EvaluationSpec:
    """The cheapest per-point simulation: the path the result cache serves."""
    return EvaluationSpec(fidelity="soc", workload=model_workload("squeezenet", input_hw=32))


class TestEvaluateDesign:
    def test_metrics_complete_and_positive(self, space):
        import random

        point = space.sample(random.Random(0))
        evaluation = evaluate_design(point, EvaluationSpec())
        for name in ("cycles", "latency_ms", "area_mm2", "power_mw", "energy_mj",
                     "fmax_ghz", "throughput_gmacs", "edp"):
            assert evaluation.metric(name) > 0
        assert evaluation.point_dict == point

    def test_soc_fidelity_needs_model(self):
        with pytest.raises(ValueError, match="soc"):
            EvaluationSpec(workload=conv_workload(), fidelity="soc")

    def test_model_workload_shapes(self):
        """Every zoo model at two sizes: the compiler's im2col lowering keeps
        every MAC of the graph."""
        for name in model_names():
            key = "seq" if name == "bert" else "input_hw"
            for size in (16, 128) if name == "bert" else (64, 224):
                workload = model_workload(name, **{key: size})
                assert workload.shapes
                assert workload.model == name
                assert workload.total_macs == build_model(name, **{key: size}).total_macs()
                # one per-channel shape per depthwise layer, run once per channel
                depthwise = sum(count > 1 for count in workload.counts)
                assert depthwise == (17 if name == "mobilenetv2" else 0)

    @pytest.mark.parametrize("counts", [(), (1, 1), (0,)])
    def test_workload_needs_one_positive_count_per_shape(self, counts):
        with pytest.raises(ValueError, match="one count >= 1 per shape"):
            Workload(name="w", shapes=((4, 4, 4),), counts=counts)

    def test_soc_fidelity_runs_full_simulation(self):
        point = {"dim": 8, "tile": 2, "sp_kb": 128, "acc_kb": 32,
                 "sp_banks": 2, "acc_banks": 2, "dataflow": "WS", "has_im2col": True}
        workload = model_workload("squeezenet", input_hw=64)
        soc = evaluate_design(point, EvaluationSpec(workload=workload, fidelity="soc"))
        analytic = evaluate_design(point, EvaluationSpec(workload=workload))
        # The SoC run pays DMA/TLB/cache stalls the closed-form model omits.
        assert soc.metric("cycles") > analytic.metric("cycles")
        assert soc.metric("energy_mj") > 0

    def test_soc_fidelity_plans_greedily(self, tmp_path, monkeypatch):
        """A cached runner and a fresh evaluation agree on the greedy
        cycles, whatever schedule cache the environment names: the cache
        never reaches the result key, so it must not reach the number."""
        from repro.core.generator import SoftwareParams
        from repro.dse.space import point_to_config
        from repro.sw.compiler import compile_graph
        from repro.sw.schedule_cache import ScheduleCache
        from repro.sw.tune import tune_model

        point = {"dim": 16, "tile": 8, "sp_kb": 128, "acc_kb": 16,
                 "sp_banks": 8, "acc_banks": 1, "dataflow": "OS", "has_im2col": True}
        spec = EvaluationSpec(workload=model_workload("squeezenet", input_hw=32),
                              fidelity="soc")
        config = point_to_config(point)
        model = compile_graph(
            build_model("squeezenet", input_hw=32), SoftwareParams.from_config(config)
        )
        tuned = tmp_path / "tuned.jsonl"
        results = tune_model(model, config, cache=ScheduleCache(tuned))
        assert sum(r.tuned_cycles for r in results) < sum(r.greedy_cycles for r in results)

        greedy = 303_448.34375
        with ExperimentRunner(max_workers=1, cache=tmp_path / "runner") as runner:
            for env in ("off", str(tuned)):
                monkeypatch.setenv("REPRO_SCHEDULE_CACHE", env)
                assert evaluate_design(point, spec).metric("cycles") == greedy
                cached = runner.run(evaluate_design, point=point, spec=spec)
                assert cached.metric("cycles") == greedy

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            EvaluationSpec(objectives=("latency_ms", "beauty"))

    def test_single_objective_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            parse_objectives("latency_ms")


class TestExplorer:
    def test_budget_respected(self, space):
        result = Explorer(
            space, make_strategy("random", space, seed=0), EvaluationSpec(), budget=7
        ).explore()
        assert result.evaluations == 7

    def test_trace_partitions_into_front_dominated_infeasible(self, space):
        bounds = (parse_bound("area_mm2<=0.4"),)
        result = Explorer(
            space, make_strategy("random", space, seed=1), EvaluationSpec(),
            budget=20, bounds=bounds,
        ).explore()
        assert len(result.front) + len(result.dominated) + len(result.infeasible) == 20
        objectives = result.objectives
        front_vectors = [e.vector(objectives) for e in result.front]
        for e in result.dominated:
            assert any(dominates(f, e.vector(objectives)) for f in front_vectors)
        for e in result.infeasible:
            assert e.metric("area_mm2") > 0.4

    def test_bad_arguments_rejected(self, space):
        with pytest.raises(ValueError, match="budget"):
            Explorer(space, make_strategy("random", space), budget=0)
        with pytest.raises(ValueError, match="different space"):
            Explorer(space, make_strategy("random", gemmini_space(max_dim=16)))
        with pytest.raises(ValueError, match="unknown metric"):
            Explorer(
                space, make_strategy("random", space),
                bounds=(parse_bound("beauty<=4"),),
            )

    def test_analytic_search_bypasses_the_result_cache(self, space, tmp_path):
        """Analytic points are scored in-process by one batch call and never
        reach the runner: no cache entry is written, no hit or miss counted."""
        with ExperimentRunner(max_workers=1, cache=tmp_path / "dse") as runner:
            result = Explorer(
                space, make_strategy("evolutionary", space, seed=0),
                EvaluationSpec(), budget=20, runner=runner,
            ).explore()
        assert result.evaluations == 20
        assert list((tmp_path / "dse").glob("*.pkl")) == []
        assert result.cache_hits == result.cache_misses == 0
        # a self-owned runner does not even create the default cache directory
        Explorer(space, make_strategy("random", space, seed=0), budget=8).explore()
        assert not (tmp_path / "dse-cache").exists()

    # SoC-fidelity points are per-point simulations: they go through the
    # runner, cached and fanned out.

    def test_second_run_served_from_cache(self, space, tmp_path):
        """Acceptance: a repeated seeded search is served entirely from
        cache and produces an identical Pareto front."""
        results = []
        for __ in range(2):
            with ExperimentRunner(max_workers=1, cache=tmp_path / "dse") as runner:
                explorer = Explorer(
                    space, make_strategy("evolutionary", space, seed=0),
                    soc_spec(), budget=6, runner=runner,
                )
                results.append(explorer.explore())
        first, second = results
        assert [e.point for e in first.front] == [e.point for e in second.front]
        assert first.cache_misses > 0
        assert second.cache_misses == 0
        assert second.cache_hits == first.cache_hits + first.cache_misses

    def test_owned_runner_caches_by_default(self, space, monkeypatch):
        """A plain Explorer (no runner passed) still caches simulations: the
        README's Python quickstart is incremental across runs, like the CLI."""
        monkeypatch.setenv("REPRO_WORKERS", "1")
        first = Explorer(
            space, make_strategy("random", space, seed=4), soc_spec(), budget=4
        ).explore()
        second = Explorer(
            space, make_strategy("random", space, seed=4), soc_spec(), budget=4
        ).explore()
        assert first.cache_misses == 4 and first.cache_hits == 0
        assert second.cache_hits == 4 and second.cache_misses == 0

    def test_enlarged_budget_reuses_prior_points(self, space, tmp_path):
        with ExperimentRunner(max_workers=1, cache=tmp_path / "dse") as runner:
            Explorer(
                space, make_strategy("random", space, seed=0),
                soc_spec(), budget=4, runner=runner,
            ).explore()
        with ExperimentRunner(max_workers=1, cache=tmp_path / "dse") as runner:
            bigger = Explorer(
                space, make_strategy("random", space, seed=0),
                soc_spec(), budget=6, runner=runner,
            ).explore()
        assert bigger.cache_hits == 4
        assert bigger.cache_misses == 2

    def test_parallel_workers_match_serial(self, space):
        serial = Explorer(
            space, make_strategy("random", space, seed=2), soc_spec(), budget=4,
            runner=ExperimentRunner(max_workers=1),
        ).explore()
        with ExperimentRunner(max_workers=2) as runner:
            parallel = Explorer(
                space, make_strategy("random", space, seed=2), soc_spec(),
                budget=4, runner=runner,
            ).explore()
            assert runner._pool is not None  # the points ran on worker processes
        assert [e.point for e in serial.trace] == [e.point for e in parallel.trace]
        assert serial.hypervolume == parallel.hypervolume


class TestServingObjectives:
    def traffic(self):
        from repro.serve import TenantSpec, TrafficProfile

        return TrafficProfile(
            tenants=(
                TenantSpec(
                    name="t",
                    model="squeezenet",
                    input_hw=32,
                    rate_qps=300.0,
                    num_requests=3,
                    slo_ms=5.0,
                ),
            ),
            num_tiles=1,
            seed=0,
        )

    def test_serving_objectives_require_traffic(self):
        with pytest.raises(ValueError, match="traffic"):
            EvaluationSpec(objectives=("p99_latency_ms", "area_mm2"))

    def test_traffic_must_be_a_profile(self):
        with pytest.raises(ValueError, match="TrafficProfile"):
            EvaluationSpec(
                objectives=("p99_latency_ms", "area_mm2"), traffic="not-a-profile"
            )

    def test_evaluate_design_scores_serving_metrics(self, space):
        spec = EvaluationSpec(
            objectives=("p99_latency_ms", "area_mm2", "qps_per_watt"),
            traffic=self.traffic(),
        )
        evaluation = evaluate_design(space.sample(__import__("random").Random(0)), spec)
        metrics = evaluation.metric_dict
        assert metrics["p99_latency_ms"] > 0
        assert metrics["goodput_qps"] >= 0
        assert metrics["qps_per_watt"] >= 0
        assert 0 <= metrics["slo_violation_rate"] <= 1

    def test_explorer_end_to_end_under_traffic(self, space):
        spec = EvaluationSpec(
            objectives=("p99_latency_ms", "area_mm2"), traffic=self.traffic()
        )
        strategy = make_strategy("random", space, seed=0)
        with ExperimentRunner(max_workers=1) as runner:
            result = Explorer(space, strategy, spec, budget=3, runner=runner).explore()
        assert result.front, "serving-objective search produced no front"
        assert result.hypervolume > 0
        for evaluation in result.front:
            assert evaluation.metric("p99_latency_ms") > 0


class TestExplorerTelemetry:
    """Per-generation spans plus front-size/hypervolume counter series."""

    def _explore(self, space, tracer=None, metrics=None, budget=12):
        strategy = make_strategy("random", space, seed=5)
        explorer = Explorer(
            space, strategy, budget=budget,
            runner=ExperimentRunner(max_workers=1),
            tracer=tracer, metrics=metrics,
        )
        return explorer.explore()

    def test_generation_spans_on_search_lane(self, space):
        from repro.obs.tracer import Tracer

        tracer = Tracer.wall(run_id="dse-test", seed=5)
        result = self._explore(space, tracer=tracer)
        spans = [e for e in tracer.events() if e[0] == "X" and e[1] == "search"]
        assert spans, "no generation spans recorded"
        assert [e[2] for e in spans] == [f"gen[{g}]" for g in range(len(spans))]
        last = spans[-1][5]
        assert last["evaluations"] == result.evaluations
        assert last["front_size"] == len(result.front)
        assert last["hypervolume"] == pytest.approx(result.hypervolume)
        assert tracer.lanes()["search"] == ("dse", "search [random]", 0)

    def test_counter_series_track_front_growth(self, space):
        from repro.obs.tracer import Tracer

        tracer = Tracer.wall()
        result = self._explore(space, tracer=tracer)
        series = {}
        for e in tracer.events():
            if e[0] == "C" and e[1] == "search":
                series.setdefault(e[2], []).append(e[4])
        assert set(series) == {"front_size", "hypervolume", "evaluations"}
        assert series["evaluations"] == sorted(series["evaluations"])
        assert series["evaluations"][-1] == result.evaluations
        assert series["hypervolume"][-1] == pytest.approx(result.hypervolume)

    def test_generation_counters_match_a_whole_trace_recompute(self, space):
        """The online front behind every generation's front_size and
        hypervolume, and behind the final partition, is the whole-trace
        split of the feasible points so far."""
        from repro.dse.engine import _reference_for
        from repro.dse.pareto import front_hypervolume, split_front
        from repro.obs.tracer import Tracer

        tracer = Tracer.wall()
        bounds = (parse_bound("area_mm2<=0.4"),)
        result = Explorer(
            space, make_strategy("evolutionary", space, seed=2), EvaluationSpec(),
            budget=30, bounds=bounds, runner=ExperimentRunner(max_workers=1),
            tracer=tracer,
        ).explore()
        objectives = result.objectives

        def recompute(trace):
            feasible = [e for e in trace if all(b.satisfied(e) for b in bounds)]
            front, dominated = split_front(feasible, objectives)
            hv = front_hypervolume(front, objectives, _reference_for(result.spec, trace))
            return front, dominated, hv if front else 0.0

        spans = [e[5] for e in tracer.events() if e[0] == "X" and e[1] == "search"]
        assert len(spans) > 2 and result.infeasible and result.dominated
        for span in spans:
            front, __, hv = recompute(result.trace[: span["evaluations"]])
            assert span["front_size"] == len(front)
            assert span["hypervolume"] == hv
        front, dominated, hv = recompute(result.trace)
        assert [id(e) for e in result.front] == [id(e) for e in front]
        assert [id(e) for e in result.dominated] == [id(e) for e in dominated]
        assert result.hypervolume == hv

    def test_metrics_snapshot_per_generation(self, space):
        from repro.obs.metrics import MetricStream

        metrics = MetricStream(every=1)
        result = self._explore(space, metrics=metrics)
        assert metrics.snapshots, "no streaming snapshots"
        final = metrics.snapshots[-1]
        assert final["evaluations"] == result.evaluations
        assert final["front_size"] == len(result.front)
        assert final["hypervolume"] == pytest.approx(result.hypervolume)
        assert {"cache_hits", "cache_misses"} <= set(final)
        gens = [s["generation"] for s in metrics.snapshots]
        assert gens == list(range(len(gens)))

    def test_untraced_exploration_is_unchanged(self, space):
        """Telemetry off (the default) must not alter search results."""
        from repro.obs.tracer import Tracer

        plain = self._explore(space)
        tracer = Tracer.wall()
        observed = self._explore(space, tracer=tracer)
        assert [e.point_dict for e in observed.trace] == [e.point_dict for e in plain.trace]
        assert observed.hypervolume == plain.hypervolume

    def test_exported_dse_trace_validates(self, space):
        from repro.obs.export import to_chrome_trace, validate_chrome_trace
        from repro.obs.tracer import Tracer

        tracer = Tracer.wall(seed=5)
        self._explore(space, tracer=tracer)
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []
