"""The golden-fingerprint matrix: every case, and how to fingerprint it.

Each case is a small fixed simulation whose outputs this repository
reproduces: serving request logs under shared-L2/DRAM contention, per-model
cycles and memory counters, a DSE front, a tuned-schedule table and the
run-ledger record each simulating CLI command writes.  :func:`fingerprint`
runs one case and returns human-readable values, the bulky parts (request
logs, per-layer cycles, fronts) folded into sha256 digests; :func:`digest`
hashes those values canonically.  ``record.py`` writes them to
``fingerprints.json``; ``test_fingerprints.py`` only reads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import tempfile
from pathlib import Path

from repro.core.config import default_config
from repro.serve import TenantSpec, TrafficProfile, simulate_serving
from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE, set_default_schedule_cache

GOLDEN_PATH = Path(__file__).with_name("fingerprints.json")
SCHEMA = 1

#: zoo model -> reduced-size builder kwargs of the run cases
RUN_MODELS = {
    "alexnet": {"input_hw": 64},
    "bert": {"seq": 16, "layers": 1},
    "mobilenetv2": {"input_hw": 32},
    "resnet50": {"input_hw": 32},
    "squeezenet": {"input_hw": 32},
}


def digest(values: dict) -> str:
    """sha256 of the canonical JSON of ``values`` (floats as repr)."""
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows_digest(rows) -> str:
    """sha256 over one ``repr`` line per row, so floats keep every bit."""
    text = "".join(f"{tuple(row)!r}\n" for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Serving                                                                 #
# ---------------------------------------------------------------------- #


def _tenant(name: str, **fields) -> TenantSpec:
    base = dict(model="squeezenet", input_hw=32, arrival="poisson", rate_qps=250.0,
                num_requests=4)
    return TenantSpec(name=name, **{**base, **fields})


def _profile(tiles: int, *tenants: TenantSpec, **fields) -> TrafficProfile:
    return TrafficProfile(tenants=tenants, num_tiles=tiles, **fields)


def _big_little():
    """The big/little design of ``tests/serve/test_heterogeneous.py``."""
    path = Path(__file__).resolve().parents[1] / "serve" / "test_heterogeneous.py"
    spec = importlib.util.spec_from_file_location("_golden_heterogeneous", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.big_little()


def serve_cases() -> dict:
    """Serving case name -> (TrafficProfile, extra ``simulate_serving`` kwargs)."""
    # The contended two-tenant FCFS study: an open-loop and a closed-loop
    # tenant sharing one L2/DRAM across two tiles.
    study = _profile(
        2,
        _tenant("web", rate_qps=300.0, num_requests=8, slo_ms=5.0),
        _tenant("batchy", arrival="closed", num_requests=6, concurrency=2, think_ms=0.5),
        scheduler="fcfs",
        seed=7,
    )
    pair = (_tenant("a", num_requests=3), _tenant("b", num_requests=3, priority=1))
    second = _tenant("t1", rate_qps=200.0, num_requests=2, priority=1)
    return {
        "two_tenant_fcfs": (study, {}),
        "two_tenant_no_replay": (study, {"replay": False}),
        "two_tenant_stream": (study, {"record_mode": "stream"}),
        "horizon_drop": (
            _profile(1, _tenant("web", rate_qps=400.0, num_requests=12), seed=3,
                     horizon_ms=1.0),
            {},
        ),
        "priority": (
            _profile(1, _tenant("hi", rate_qps=400.0, priority=5),
                     _tenant("lo", rate_qps=400.0), scheduler="priority", seed=2),
            {},
        ),
        "sjf": (_profile(2, *pair, scheduler="sjf", seed=4), {}),
        "rr": (_profile(2, *pair, scheduler="rr", seed=1), {}),
        "batch": (
            _profile(1, *pair, scheduler="batch", batch_size=2, batch_window_ms=0.5, seed=5),
            {},
        ),
        "bursty": (
            _profile(2, _tenant("burst", arrival="bursty", num_requests=5, burst_on_ms=0.5,
                                burst_off_ms=1.0), second, seed=11),
            {},
        ),
        "trace": (
            _profile(1, _tenant("replay", arrival="trace", trace_ms=(0.0, 0.1, 0.1, 0.4, 0.9)),
                     seed=9),
            {},
        ),
        "geometry_8x1": (
            _profile(1, _tenant("t0", arrival="closed", num_requests=3, concurrency=2,
                                think_ms=0.25), second, seed=6),
            {"gemmini": default_config().with_geometry(8, 1)},
        ),
        "big_little_sjf": (
            _profile(1, _tenant("a", rate_qps=150.0),
                     _tenant("b", rate_qps=150.0, num_requests=3), scheduler="sjf", seed=0),
            {"design": _big_little()},
        ),
    }


def serve_values(result) -> dict:
    log = sorted(
        (r.tenant, r.index, r.model, r.tile, r.arrival, r.start, r.finish, r.slo_cycles)
        for r in result.records
    )
    return {
        "request_log_sha256": _rows_digest(log),
        "completed": result.completed,
        "issued": result.issued,
        "dropped": result.dropped,
        "replayed": result.replayed,
        "makespan_cycles": result.makespan_cycles,
        "l2_miss_rate": result.l2_miss_rate,
        "dram_bytes": result.dram_bytes,
        "tenants": {
            t.tenant: {
                "completed": t.completed,
                "goodput_qps": t.goodput_qps,
                "mean_ms": t.mean_ms,
                "p50_ms": t.p50_ms,
                "p99_ms": t.p99_ms,
            }
            for t in result.report.tenants
        },
    }


# ---------------------------------------------------------------------- #
# Single-model runs, tuning, DSE                                          #
# ---------------------------------------------------------------------- #


def _compile(name: str, kwargs: dict, config):
    from repro.core.generator import SoftwareParams
    from repro.models.zoo import build_model
    from repro.sw.compiler import compile_graph

    return compile_graph(build_model(name, **kwargs), SoftwareParams.from_config(config))


def run_values(name: str) -> dict:
    """One cold single-tile run of a zoo model."""
    from repro.soc.soc import make_soc
    from repro.sw.runtime import Runtime

    config = default_config()
    model = _compile(name, RUN_MODELS[name], config)
    soc = make_soc(gemmini=config)
    result = Runtime(soc.tile, model, schedule_cache=NULL_SCHEDULE_CACHE).run()
    l2 = soc.mem.l2.stats
    dma = soc.tile.accel.dma.stats
    return {
        "total_cycles": result.total_cycles,
        "macro_ops": result.macro_ops,
        "layers": len(result.layers),
        "layer_cycles_sha256": _rows_digest((layer.name, layer.cycles) for layer in result.layers),
        "l2_hits": l2.value("hits"),
        "l2_misses": l2.value("misses"),
        "dram_bytes": soc.mem.dram.bytes_moved,
        "tlb_hit_rate": soc.tile.accel.xlat.hit_rate_including_filters(),
        "dma_bytes_read": dma.value("bytes_read"),
        "dma_bytes_written": dma.value("bytes_written"),
    }


def tune_values() -> dict:
    """The tuned-schedule table of squeezenet at 32 px, one row per shape."""
    from repro.sw.tune import tune_matmul

    config = default_config()
    model = _compile("squeezenet", {"input_hw": 32}, config)
    shapes = {}
    for m, k, n in dict.fromkeys(model.matmul_shapes()):
        tuned = tune_matmul(config, m, k, n, cache=NULL_SCHEDULE_CACHE, verify_top_k=2)
        shapes[f"{m}x{k}x{n}"] = {
            "tiling": tuned.best.to_dict(),
            "tuned_cycles": tuned.tuned_cycles,
            "greedy_cycles": tuned.greedy_cycles,
        }
    return shapes


def dse_values() -> dict:
    """``dse --strategy evolutionary --budget 40 --seed 0``: analytic, default space."""
    from repro.dse import EvaluationSpec, Explorer, gemmini_space, make_strategy
    from repro.eval.runner import ExperimentRunner

    space = gemmini_space()
    strategy = make_strategy("evolutionary", space, seed=0)
    with ExperimentRunner(max_workers=1, cache=None) as runner:
        result = Explorer(space, strategy, EvaluationSpec(), budget=40, runner=runner).explore()
    return {
        "evaluations": result.evaluations,
        "front_size": len(result.front),
        "hypervolume": result.hypervolume,
        "front_sha256": _rows_digest(sorted((e.point, e.metrics) for e in result.front)),
    }


# ---------------------------------------------------------------------- #
# CLI ledger records                                                      #
# ---------------------------------------------------------------------- #

_STUDY_TENANTS = (
    "name=web,model=squeezenet,input_hw=32,arrival=poisson,qps=300,requests=8,slo_ms=5",
    "name=batchy,model=squeezenet,input_hw=32,arrival=closed,qps=250,requests=6,"
    "concurrency=2,think_ms=0.5",
)

#: ledgered CLI command -> its argv, minus the per-case temp paths
CLI_CASES = {
    "run": ["run", "squeezenet", "--input-hw", "32"],
    "serve": ["serve", "--tiles", "2", "--seed", "7",
              "--tenant", _STUDY_TENANTS[0], "--tenant", _STUDY_TENANTS[1]],
    "dse": ["dse", "--strategy", "evolutionary", "--budget", "20", "--seed", "0",
            "--max-dim", "8"],
    "tune": ["tune", "squeezenet", "--input-hw", "32", "--verify-top", "1"],
}

#: the ledger record fields a rerun reproduces (run ids, timestamps, wall
#: times and provenance differ on every run)
LEDGER_FIELDS = ("kind", "name", "seed", "config_hash", "workload_hash", "workload", "metrics")


def cli_values(command: str) -> dict:
    """Run one CLI command against a fresh ledger and schedule cache in a
    temp dir; return the reproducible fields of the one record it writes."""
    from repro.cli import main

    # Restored here too, so the recorder also runs at commits whose CLI
    # left its --schedule-cache in the environment.
    env_before = os.environ.get("REPRO_SCHEDULE_CACHE")
    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.jsonl"
        argv = CLI_CASES[command] + [
            "--ledger", str(ledger), "--schedule-cache", str(Path(tmp) / "schedules.jsonl"),
        ]
        if command == "dse":
            argv += ["--cache-dir", str(Path(tmp) / "dse-cache")]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            if env_before is None:
                os.environ.pop("REPRO_SCHEDULE_CACHE", None)
            else:
                os.environ["REPRO_SCHEDULE_CACHE"] = env_before
        if code != 0:
            raise RuntimeError(f"{command} exited {code}")
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    return {field: record[field] for field in LEDGER_FIELDS}


# ---------------------------------------------------------------------- #
# The matrix                                                              #
# ---------------------------------------------------------------------- #

CASES = (
    tuple(f"serve/{name}" for name in serve_cases())
    + tuple(f"run/{name}" for name in RUN_MODELS)
    + ("tune/squeezenet", "dse/evolutionary")
    + tuple(f"cli/{name}" for name in CLI_CASES)
)


def fingerprint(case: str) -> dict:
    """Run one case and return its readable values.

    Dispatch always plans greedily: the ambient schedule cache is switched
    off for the duration, whatever the environment names.
    """
    kind, __, name = case.partition("/")
    previous = set_default_schedule_cache(NULL_SCHEDULE_CACHE)
    try:
        if kind == "serve":
            profile, extra = serve_cases()[name]
            return serve_values(simulate_serving(profile, **extra))
        if kind == "run":
            return run_values(name)
        if kind == "tune":
            return tune_values()
        if kind == "dse":
            return dse_values()
        if kind == "cli":
            return cli_values(name)
        raise KeyError(case)
    finally:
        set_default_schedule_cache(previous)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
