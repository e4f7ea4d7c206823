"""Tests for the parallel experiment runner and its result cache."""

import functools
import os
from dataclasses import dataclass, field

import pytest

from repro.core.config import GemminiConfig, default_config
from repro.eval import experiments
from repro.eval.runner import (
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    config_hash,
    default_workers,
)


# Module-level so the process pool can pickle them.
def square(x: int) -> int:
    return x * x


def double(x: int) -> int:
    return x + x


def pid_and_value(value: int) -> tuple[int, int]:
    return (os.getpid(), value)


def describe_config(config: GemminiConfig) -> str:
    return config.describe()


def scaled(x: int, factor: int = 1) -> int:
    return x * factor


class TestConfigHash:
    def test_deterministic(self):
        payload = {"dim": 16, "dataflow": "WS", "nested": {"a": [1, 2]}}
        assert config_hash(payload) == config_hash(payload)

    def test_key_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_hash({"dim": 16}) != config_hash({"dim": 32})

    def test_hashes_dataclass_configs(self):
        base = default_config()
        assert config_hash(base) == config_hash(default_config())
        assert config_hash(base) != config_hash(base.with_im2col(True))

    def test_enum_and_tuple_values(self):
        from repro.core.config import Dataflow

        h1 = config_hash({"df": Dataflow.WS, "sizes": (4, 8)})
        h2 = config_hash({"df": Dataflow.OS, "sizes": (4, 8)})
        assert h1 != h2

    def test_dict_keys_of_different_types_stay_distinct(self):
        assert config_hash({1: "a", "1": "b"}) != config_hash({1: "z", "1": "b"})

    def test_backend_knob_does_not_affect_config_identity(self):
        """A compare=False field is a simulation knob, not identity."""

        @dataclass(frozen=True)
        class Design:
            dim: int = 16
            backend: str = field(default="vectorized", compare=False)

        scalar = Design(backend="scalar")
        vectorized = Design(backend="vectorized")
        assert scalar == vectorized
        assert config_hash(scalar) == config_hash(vectorized)
        assert config_hash(Design(dim=8)) != config_hash(vectorized)

    def test_large_arrays_hash_by_content(self):
        """repr() truncates big arrays; the hash must still see every element."""
        import numpy as np

        base = np.arange(2000)
        changed = base.copy()
        changed[1000] = -1  # hidden inside repr's "..." ellipsis
        assert config_hash({"x": base}) != config_hash({"x": changed})
        assert config_hash({"x": base}) == config_hash({"x": np.arange(2000)})
        assert config_hash(np.float64(1.5)) == config_hash(1.5)


class TestExperimentSpec:
    def test_key_includes_kwargs(self):
        s1 = ExperimentSpec.make(square, x=2)
        s2 = ExperimentSpec.make(square, x=3)
        assert s1.key != s2.key
        assert s1.key == ExperimentSpec.make(square, x=2).key

    def test_run(self):
        assert ExperimentSpec.make(square, x=7).run() == 49

    def test_key_ignores_display_name(self):
        """Same computation hits the same cache entry however labelled."""
        assert (
            ExperimentSpec.make(square, label="a", x=2).key
            == ExperimentSpec.make(square, label="b", x=2).key
        )

    def test_source_fingerprint_tracks_package_edits(self, tmp_path):
        """Editing any source file under the package root changes the
        fingerprint (and therefore every cache key)."""
        import os

        from repro.eval.runner import _source_fingerprint

        mod = tmp_path / "sim.py"
        mod.write_text("CYCLES = 1\n")
        before = _source_fingerprint(str(tmp_path))
        mod.write_text("CYCLES = 2\n")
        os.utime(mod, ns=(1, 1))  # force a distinct mtime even on fast FS
        _source_fingerprint.cache_clear()
        after = _source_fingerprint(str(tmp_path))
        assert before != after

    def test_key_tracks_module_level_constants(self, tmp_path):
        """Editing a constant the function reads (not its own body) must
        change the key — sweeps routinely read module-level shape lists."""
        import importlib.util

        mod_file = tmp_path / "sweepmod.py"

        def load():
            spec = importlib.util.spec_from_file_location("sweepmod", mod_file)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            return mod

        mod_file.write_text("SHAPES = [(1, 1)]\ndef rows():\n    return SHAPES\n")
        key_before = ExperimentSpec.make(load().rows).key
        mod_file.write_text("SHAPES = [(1, 1), (2, 2)]\ndef rows():\n    return SHAPES\n")
        key_after = ExperimentSpec.make(load().rows).key
        assert key_before != key_after

    def test_key_tracks_closure_state(self, tmp_path):
        """Closures from one factory share source but not captured values;
        each must get its own cache entry."""

        def make(factor):
            def point(x):
                return x * factor

            return point

        assert ExperimentSpec.make(make(2), x=10).key != ExperimentSpec.make(make(3), x=10).key
        with ExperimentRunner(max_workers=1, cache=tmp_path) as runner:
            assert runner.map(make(2), [10]) == [20]
            assert runner.map(make(3), [10]) == [30]  # not served make(2)'s entry

    def test_key_tracks_partial_bindings(self):
        import functools

        def scaled(x, factor):
            return x * factor

        k2 = ExperimentSpec.make(functools.partial(scaled, factor=2), x=1).key
        k3 = ExperimentSpec.make(functools.partial(scaled, factor=3), x=1).key
        assert k2 != k3

    def test_key_tracks_bound_method_instance(self):
        """Bound methods of different instances must not share an entry."""
        from dataclasses import dataclass

        @dataclass
        class Model:
            factor: int

            def evaluate(self, x):
                return x * self.factor

        small, large = Model(2), Model(3)
        k_small = ExperimentSpec.make(small.evaluate, x=5).key
        assert k_small != ExperimentSpec.make(large.evaluate, x=5).key
        assert k_small == ExperimentSpec.make(Model(2).evaluate, x=5).key

    def test_partial_keys_use_inner_function_identity(self):
        """Partial keys must be stable across constructions (no memory
        addresses) and distinguish the wrapped function."""
        import functools

        first = ExperimentSpec.make(functools.partial(square), x=4).key
        again = ExperimentSpec.make(functools.partial(square), x=4).key
        assert first == again
        assert first != ExperimentSpec.make(functools.partial(double), x=4).key

    def test_key_tracks_function_source(self):
        """Editing an experiment's code must invalidate its cache key."""

        def fn(x):
            return x + 1

        key_before = ExperimentSpec.make(fn, label="fn", x=1).key

        def fn(x):  # noqa: F811 - deliberately redefined with new source
            return x + 2

        key_after = ExperimentSpec.make(fn, label="fn", x=1).key
        assert key_before != key_after


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k", {"value": 42})
        assert cache.get("k") == {"value": 42}
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is ResultCache._MISS

    def test_directory_created_by_first_put(self, tmp_path):
        cache = ResultCache(tmp_path / "nested" / "cache")
        assert cache.get("k") is ResultCache._MISS
        assert len(cache) == 0
        cache.clear()
        assert not cache.directory.exists()
        cache.put("k", 1)
        assert cache.get("k") == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").write_bytes(b"not a pickle")
        assert cache.get("bad") is ResultCache._MISS

    def test_unresolvable_class_is_miss(self, tmp_path):
        """Entries pickled against classes that no longer exist are misses."""
        cache = ResultCache(tmp_path)
        # Protocol-0 GLOBAL opcode naming a module that cannot be imported —
        # what a cache entry looks like after its result class was renamed.
        cache.path("stale").write_bytes(b"cgone_module\nGoneClass\n.")
        assert cache.get("stale") is ResultCache._MISS

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0


class TestExperimentRunner:
    def test_serial_run(self):
        with ExperimentRunner(max_workers=1) as runner:
            assert runner.run(square, x=5) == 25

    def test_serial_allows_closures(self):
        calls = []

        def tracked(x):
            calls.append(x)
            return -x

        with ExperimentRunner(max_workers=1) as runner:
            assert runner.map(tracked, [1, 2, 3]) == [-1, -2, -3]
        assert calls == [1, 2, 3]

    def test_parallel_map_preserves_order(self):
        with ExperimentRunner(max_workers=2) as runner:
            assert runner.map(square, range(8)) == [x * x for x in range(8)]

    def test_parallel_uses_worker_processes(self):
        with ExperimentRunner(max_workers=2) as runner:
            results = runner.map(pid_and_value, [1, 2, 3, 4])
        assert [v for __, v in results] == [1, 2, 3, 4]
        assert any(pid != os.getpid() for pid, __ in results)

    def test_configs_cross_process_boundary(self):
        with ExperimentRunner(max_workers=2) as runner:
            described = runner.map(
                describe_config, [default_config(), default_config().with_im2col(True)]
            )
        assert described[0] != described[1]
        assert "16x16" in described[0]

    def test_cache_hit_skips_recompute(self, tmp_path):
        marker = tmp_path / "calls"

        def counted(x):
            marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
            return x + 1

        with ExperimentRunner(max_workers=1, cache=tmp_path / "cache") as runner:
            assert runner.run(counted, x=1) == 2
            assert runner.run(counted, x=1) == 2  # served from cache
            assert runner.run(counted, x=2) == 3  # different config recomputes
        assert marker.read_text() == "xx"
        assert runner.hits == 1
        assert runner.misses == 2

    def test_map_cache_survives_sweep_reordering(self, tmp_path):
        """Extending or reordering a sweep only recomputes the new points."""
        with ExperimentRunner(max_workers=1, cache=tmp_path) as first:
            first.map(square, [8, 16, 32])
        with ExperimentRunner(max_workers=1, cache=tmp_path) as second:
            assert second.map(square, [4, 8, 16, 32]) == [16, 64, 256, 1024]
            assert second.hits == 3 and second.misses == 1

    def test_unpicklable_result_is_returned_uncached(self, tmp_path):
        """A serial runner's unpicklable result must not crash the run."""

        def make_gen(x):
            return (x for __ in range(1))

        with ExperimentRunner(max_workers=1, cache=tmp_path) as runner:
            gen = runner.run(make_gen, x=5)
            assert next(gen) == 5
        assert not list(tmp_path.glob("*.tmp"))

    def test_partial_sweep_progress_survives_a_failing_point(self, tmp_path):
        """Completed points stay cached even when a later point raises."""

        def flaky(x):
            if x == 3:
                raise RuntimeError("boom")
            return x * x

        with ExperimentRunner(max_workers=1, cache=tmp_path) as runner:
            with pytest.raises(RuntimeError, match="boom"):
                runner.map(flaky, [1, 2, 3])
        with ExperimentRunner(max_workers=1, cache=tmp_path) as second:
            assert second.map(flaky, [1, 2]) == [1, 4]
            assert second.hits == 2 and second.misses == 0

    def test_cache_shared_across_runners(self, tmp_path):
        with ExperimentRunner(max_workers=1, cache=tmp_path) as first:
            first.run(square, x=9)
        with ExperimentRunner(max_workers=1, cache=tmp_path) as second:
            assert second.run(square, x=9) == 81
            assert second.hits == 1

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ExperimentRunner(max_workers=0)

    def test_duplicate_specs_in_one_batch_compute_once(self, tmp_path):
        """Regression: two specs with identical cache keys in one batch
        both missed and both executed (evolutionary/annealing strategies
        re-propose points) — now the extras fan out as hits."""
        marker = tmp_path / "calls"

        def counted(x):
            marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
            return x * 10

        with ExperimentRunner(max_workers=1, cache=tmp_path / "cache") as runner:
            assert runner.map(counted, [2, 2, 3, 2]) == [20, 20, 30, 20]
            assert runner.hits == 2  # the two duplicate 2s
            assert runner.misses == 2  # one execution per unique key
        assert marker.read_text() == "xx"

    def test_duplicate_specs_fan_out_in_parallel_runs(self, tmp_path):
        with ExperimentRunner(max_workers=2, cache=tmp_path) as runner:
            assert runner.map(square, [5, 5, 6, 6, 5]) == [25, 25, 36, 36, 25]
            assert runner.hits == 3 and runner.misses == 2

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1


def fake_fig(scale: int = 1) -> dict:
    return {"rows": scale * 10}


class TestRunFigures:
    def test_routes_through_registry(self, monkeypatch):
        monkeypatch.setitem(experiments.EXPERIMENTS, "figX", fake_fig)
        with ExperimentRunner(max_workers=1) as runner:
            results = experiments.run_figures(
                names=["figX"], runner=runner, fig_kwargs={"figX": {"scale": 3}}
            )
        assert results == {"figX": {"rows": 30}}

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="unknown figure"):
            experiments.run_figures(names=["nope"])

    def test_typoed_fig_kwargs_rejected(self):
        with pytest.raises(KeyError, match="fig_kwargs"):
            experiments.run_figures(names=["fig3"], fig_kwargs={"fig5": {"dim": 8}})

    def test_fig_kwargs_for_unselected_figures_allowed(self, monkeypatch):
        """A shared kwargs dict may cover figures outside this subset."""
        monkeypatch.setitem(experiments.EXPERIMENTS, "figX", fake_fig)
        shared = {"figX": {"scale": 2}, "fig4": {"input_hw": 96}}
        with ExperimentRunner(max_workers=1) as runner:
            results = experiments.run_figures(
                names=["figX"], runner=runner, fig_kwargs=shared
            )
        assert results == {"figX": {"rows": 20}}

    def test_registry_covers_all_figures(self):
        assert sorted(experiments.EXPERIMENTS) == [
            "fig3",
            "fig4",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
        ]
        for name, fn in experiments.EXPERIMENTS.items():
            assert callable(fn), name


class TestMapLabels:
    def test_labels_reach_spec_names(self):
        """Regression (PR 2): map lost per-item identity (map[0], map[1]...);
        labels= names each point."""
        labels = ["dim=4", "dim=8", "dim=16"]
        base = "sweep"
        call_specs = [
            ExperimentSpec(name=f"{base}[{labels[i]}]", fn=square, kwargs=(("x", x),))
            for i, x in enumerate([4, 8, 16])
        ]
        assert [s.name for s in call_specs] == ["sweep[dim=4]", "sweep[dim=8]", "sweep[dim=16]"]

    def test_map_accepts_labels(self):
        with ExperimentRunner(max_workers=1) as runner:
            assert runner.map(square, [2, 3], label="s", labels=["a", "b"]) == [4, 9]

    def test_labels_length_mismatch_rejected(self):
        with ExperimentRunner(max_workers=1) as runner:
            with pytest.raises(ValueError, match="labels length"):
                runner.map(square, [1, 2, 3], labels=["only-one"])

    def test_shared_kwargs_reach_fn_and_cache_key(self, tmp_path):
        """Each item runs as ``fn(item, **shared)``, keyed as the spec
        ``partial(fn, item)`` with the shared keywords."""
        import functools

        with ExperimentRunner(max_workers=1, cache=tmp_path) as runner:
            assert runner.map(scaled, [1, 2], factor=3) == [3, 6]
            assert runner.map(scaled, [1, 2], factor=4) == [4, 8]
            assert runner.misses == 4 and runner.hits == 0
            assert runner.map(scaled, [1, 2], factor=3) == [3, 6]
            assert runner.hits == 2
        assert {p.stem for p in tmp_path.glob("*.pkl")} == {
            ExperimentSpec.make(functools.partial(scaled, x), factor=f).key
            for x in (1, 2)
            for f in (3, 4)
        }

    def test_labels_do_not_affect_cache_keys(self, tmp_path):
        """Labels are display-only: a relabelled sweep still hits the cache."""
        with ExperimentRunner(max_workers=1, cache=tmp_path) as first:
            first.map(square, [5, 6], labels=["p", "q"])
        with ExperimentRunner(max_workers=1, cache=tmp_path) as second:
            assert second.map(square, [5, 6], labels=["x", "y"]) == [25, 36]
            assert second.hits == 2 and second.misses == 0


def map_specs(fn, items, **shared) -> list:
    """The specs ``runner.map(fn, items, **shared)`` runs and keys."""
    kwargs = tuple(sorted(shared.items()))
    return [
        ExperimentSpec(f"x[{i}]", functools.partial(fn, item), kwargs)
        for i, item in enumerate(items)
    ]


#: keys a fresh interpreter computes for one SoC-fidelity DSE batch
#: (printed as JSON): the keys ``runner.map(evaluate_design, points,
#: spec=spec)`` reads and writes
DSE_MAP_KEYS = """
import functools, json, random
from repro.dse import EvaluationSpec, evaluate_design, gemmini_space, model_workload
from repro.eval.runner import ExperimentSpec, _spec_keys

space = gemmini_space(max_dim=64)
rng = random.Random(0)
points = [space.sample(rng) for __ in range(14)]
spec = EvaluationSpec(fidelity="soc", workload=model_workload("squeezenet", input_hw=32))
specs = [
    ExperimentSpec(f"dse[{i}]", functools.partial(evaluate_design, p), (("spec", spec),))
    for i, p in enumerate(points)
]
print(json.dumps(_spec_keys(specs)))
"""


class TestMapKeys:
    def test_dse_keys_track_points_and_spec(self):
        """Equal points share a key; different points and a changed
        evaluation spec do not."""
        from repro.dse import EvaluationSpec, evaluate_design, model_workload
        from repro.eval.runner import _spec_keys

        def spec(hw):
            return EvaluationSpec(
                fidelity="soc", workload=model_workload("squeezenet", input_hw=hw)
            )

        points = [{"dim": 4, "tile": 1}, {"dim": 8, "tile": 2}, {"dim": 4, "tile": 1}, None]
        keys = _spec_keys(map_specs(evaluate_design, points, spec=spec(32)))
        assert keys[0] == keys[2] != keys[1]
        assert len(set(keys)) == 3
        moved = _spec_keys(map_specs(evaluate_design, points, spec=spec(64)))
        assert set(keys).isdisjoint(moved)

    def test_dse_keys_agree_across_processes(self):
        """Keys name on-disk entries shared between runs, so they must not
        depend on the interpreter's string-hash seed."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        runs = [
            subprocess.run(
                [sys.executable, "-c", DSE_MAP_KEYS],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            )
            for seed in ("1", "2")
        ]
        first, second = (json.loads(r.stdout) for r in runs)
        assert first == second
        assert len(set(first)) == 14


class TestRunnerStats:
    def test_counts_and_rate(self, tmp_path):
        from repro.eval.runner import RunnerStats

        with ExperimentRunner(max_workers=1, cache=tmp_path) as runner:
            runner.map(square, [1, 2, 3, 4])
            runner.map(square, [1, 2, 3, 4, 5])
            stats = runner.stats()
        assert stats == RunnerStats(hits=4, misses=5)
        assert stats.total == 9
        assert stats.hit_rate == pytest.approx(4 / 9)
        assert "4 hits" in str(stats)
        assert "44% hit rate" in str(stats)

    def test_empty_runner_zero_rate(self):
        runner = ExperimentRunner(max_workers=1)
        assert runner.stats().hit_rate == 0.0

    def test_run_figures_prints_cache_stats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(experiments.EXPERIMENTS, "figX", fake_fig)
        with ExperimentRunner(max_workers=1, cache=tmp_path) as runner:
            experiments.run_figures(names=["figX"], runner=runner)
            experiments.run_figures(names=["figX"], runner=runner)
        out = capsys.readouterr().out
        assert "run_figures cache: 0 hits / 1 miss (0% hit rate)" in out
        assert "run_figures cache: 1 hit / 0 misses (100% hit rate)" in out


class TestResetStats:
    def test_reset_gives_per_phase_numbers(self, tmp_path):
        """A multi-phase run can report each phase's own hit/miss counts."""
        with ExperimentRunner(max_workers=1, cache=tmp_path) as runner:
            runner.map(square, [1, 2, 3])
            phase1 = runner.stats()
            runner.reset_stats()
            runner.map(square, [1, 2, 3, 4])
            phase2 = runner.stats()
        assert (phase1.hits, phase1.misses) == (0, 3)
        assert (phase2.hits, phase2.misses) == (3, 1)

    def test_to_dict_is_json_ready(self):
        import json

        from repro.eval.runner import RunnerStats

        stats = RunnerStats(hits=3, misses=1)
        payload = stats.to_dict()
        assert payload == {"hits": 3, "misses": 1, "hit_rate": 0.75}
        json.dumps(payload)


class TestRunnerTracing:
    """Per-spec spans with cache hit/miss and worker-lane attribution."""

    def _tracer(self):
        from repro.obs.tracer import Tracer

        return Tracer.wall(run_id="runner-test")

    def test_serial_specs_land_on_inline_worker_lane(self):
        tracer = self._tracer()
        runner = ExperimentRunner(max_workers=1, tracer=tracer)
        runner.map(square, [1, 2, 3], label="sq")
        spans = [e for e in tracer.events() if e[0] == "X"]
        assert len(spans) == 3
        assert {e[1] for e in spans} == {f"worker:{os.getpid()}"}
        assert sorted(e[2] for e in spans) == ["sq[0]", "sq[1]", "sq[2]"]
        for span in spans:
            assert span[3] <= span[4]  # start <= end

    def test_pooled_specs_attribute_to_worker_pid_lanes(self):
        tracer = self._tracer()
        with ExperimentRunner(max_workers=2, tracer=tracer) as runner:
            runner.map(square, list(range(6)), label="sq")
        spans = [e for e in tracer.events() if e[0] == "X"]
        assert len(spans) == 6
        lanes = {e[1] for e in spans}
        assert all(lane.startswith("worker:") for lane in lanes)
        assert f"worker:{os.getpid()}" not in lanes  # real child pids
        for span in spans:
            assert span[5]["pid"] == int(span[1].split(":")[1])
            assert 0.0 <= span[3] <= span[4]

    def test_cache_hits_emit_instants_and_counters(self, tmp_path):
        tracer = self._tracer()
        runner = ExperimentRunner(max_workers=1, cache=tmp_path, tracer=tracer)
        runner.map(square, [1, 2], label="sq")
        runner.map(square, [1, 2], label="sq")
        hits = [e for e in tracer.events() if e[0] == "i" and e[2] == "hit"]
        assert len(hits) == 2
        assert {e[4]["spec"] for e in hits} == {"sq[0]", "sq[1]"}
        counters = {(e[2], e[4]) for e in tracer.events() if e[0] == "C"}
        assert ("cache_hits", 2) in counters
        assert ("cache_misses", 2) in counters

    def test_untraced_runner_by_default(self):
        from repro.obs.tracer import NULL_TRACER

        runner = ExperimentRunner(max_workers=1)
        assert runner.tracer is NULL_TRACER
        runner.map(square, [1, 2], label="sq")
        assert runner.tracer.events() == []

    def test_exported_runner_trace_validates(self, tmp_path):
        from repro.obs.export import to_chrome_trace, validate_chrome_trace

        tracer = self._tracer()
        runner = ExperimentRunner(max_workers=1, cache=tmp_path, tracer=tracer)
        runner.map(square, [1, 2, 3], label="sq")
        runner.map(square, [1, 2, 3], label="sq")
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []
