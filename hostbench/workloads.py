"""The benchmark's workloads: what one repetition sets up, runs and checks.

Each workload's ``setup`` does everything a user pays before the first
simulated operation (imports, model build and compile, SoC and runtime
construction) and returns the timed callable plus a function that extracts
the simulated outputs the repetition is checked against.

``run_resnet50`` and ``tune_squeezenet`` have no random input.  The serving
and DSE workloads draw theirs from one of ``SEEDS``, whose outputs are
recorded in ``expected.json``; ``run.py`` gives repetition ``i`` of a run
with benchmark seed ``s`` the input ``SEEDS[(s + i) % len(SEEDS)]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: input seeds of the seeded workloads (3 is left out: its arrival trace
#: replays 17 of 24 requests instead of 20, which is different work)
SEEDS = (0, 1, 2, 4)


@dataclass
class Prepared:
    """One set-up repetition: the timed phase and its output extractor."""

    run: Callable[[], object]
    outputs: Callable[[object], dict]


def _config():
    from repro.core.config import default_config

    return default_config()


def _compile(name: str, input_hw: int, config):
    from repro.core.generator import SoftwareParams
    from repro.models.zoo import build_model
    from repro.sw.compiler import compile_graph

    graph = build_model(name, input_hw=input_hw)
    return compile_graph(graph, SoftwareParams.from_config(config))


def setup_run_resnet50(seed: int, workdir: Path) -> Prepared:
    """``run resnet50``: one cold inference at 112 px on one tile."""
    from repro.soc.soc import make_soc
    from repro.sw.runtime import Runtime
    from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE

    config = _config()
    model = _compile("resnet50", 112, config)
    soc = make_soc(gemmini=config)
    runtime = Runtime(soc.tile, model, schedule_cache=NULL_SCHEDULE_CACHE)

    def outputs(result) -> dict:
        return {
            "total_cycles": result.total_cycles,
            "macro_ops": result.macro_ops,
            "l2_miss_rate": soc.mem.l2.miss_rate(),
            "dram_bytes": soc.mem.dram.bytes_moved,
            "tlb_hit_rate": soc.tile.accel.xlat.hit_rate_including_filters(),
        }

    return Prepared(runtime.run, outputs)


def setup_serve_two_tenant(seed: int, workdir: Path) -> Prepared:
    """``serve``: two open-loop Poisson tenants contending on a two-tile SoC
    under the priority scheduler, with the default engine and replay."""
    from repro.serve import ServingSimulation, TenantSpec, TrafficProfile

    tenants = (
        TenantSpec(
            name="tenant0", model="squeezenet", rate_qps=40.0, num_requests=8,
            priority=1, slo_ms=50.0,
        ),
        TenantSpec(
            name="tenant1", model="mobilenetv2", rate_qps=80.0, num_requests=16,
            slo_ms=25.0,
        ),
    )
    profile = TrafficProfile(tenants=tenants, num_tiles=2, scheduler="priority", seed=seed)
    sim = ServingSimulation(profile)

    def outputs(result) -> dict:
        return {
            "issued": result.issued,
            "completed": result.completed,
            "replayed": result.replayed,
            "tenants": {
                t.tenant: {"p50_ms": t.p50_ms, "p99_ms": t.p99_ms}
                for t in result.report.tenants
            },
        }

    return Prepared(sim.run, outputs)


def setup_tune_squeezenet(seed: int, workdir: Path) -> Prepared:
    """``tune squeezenet``: a cold tune at 112 px into a fresh schedule-cache
    file."""
    from repro.sw.schedule_cache import ScheduleCache
    from repro.sw.tune import tune_model

    config = _config()
    model = _compile("squeezenet", 112, config)
    cache = ScheduleCache(workdir / "schedules.jsonl")

    def run():
        return tune_model(model, config, cache=cache, verify_top_k=4)

    def outputs(results) -> dict:
        return {
            "shapes": [
                [r.key.m, r.key.k, r.key.n, r.greedy_cycles, r.tuned_cycles] for r in results
            ],
            # re-read from disk: every tuned shape was durably appended
            "cache_records": len(ScheduleCache(cache.path)),
        }

    return Prepared(run, outputs)


def setup_dse_evolutionary(seed: int, workdir: Path) -> Prepared:
    """``dse``: evolutionary search at analytic fidelity, serial, uncached."""
    from repro.dse import EvaluationSpec, Explorer, gemmini_space, make_strategy, model_workload
    from repro.eval.runner import ExperimentRunner

    spec = EvaluationSpec(workload=model_workload("resnet50"))
    space = gemmini_space(max_dim=64)
    strategy = make_strategy("evolutionary", space, seed=seed)
    runner = ExperimentRunner(max_workers=1, cache=None)
    explorer = Explorer(space, strategy, spec, budget=500, runner=runner)

    def run():
        try:
            return explorer.explore()
        finally:
            runner.close()

    def outputs(result) -> dict:
        return {
            "evaluations": result.evaluations,
            "front_size": len(result.front),
            "hypervolume": result.hypervolume,
        }

    return Prepared(run, outputs)


#: workload name -> (setup, seeded)
WORKLOADS: dict[str, tuple[Callable[[int, Path], Prepared], bool]] = {
    "run_resnet50": (setup_run_resnet50, False),
    "serve_two_tenant": (setup_serve_two_tenant, True),
    "tune_squeezenet": (setup_tune_squeezenet, False),
    "dse_evolutionary": (setup_dse_evolutionary, True),
}


def input_seed(workload: str, bench_seed: int) -> int:
    """The workload's own input seed for a benchmark seed (0 if unseeded)."""
    seeded = WORKLOADS[workload][1]
    return SEEDS[bench_seed % len(SEEDS)] if seeded else 0
