"""The golden-fingerprint matrix: every case, and how to fingerprint it.

Each case is a small fixed simulation whose outputs this repository
reproduces: serving request logs under shared-L2/DRAM contention, per-model
cycles and memory counters, the two-core Figure 9 runs, a DSE front, the
analytic cost models (DSE metrics, area, power, fmax, energy,
service-cycle estimates), a tuned-schedule table and the run-ledger record
each simulating CLI command writes.  :func:`fingerprint`
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
import tempfile
from pathlib import Path

from repro.core.config import default_config
from repro.serve import TenantSpec, TrafficProfile, simulate_serving
from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE

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


def _memory_variants() -> dict:
    """Run variant -> (zoo model, ``SoCDesign.homogeneous`` kwargs).

    Each variant steers the exact memory path down a branch the default
    SoC never takes: no L2 (DMA straight to DRAM), filter registers, no
    shared TLB with the Figure 4 miss-rate window, a write-through L2 and
    sequential (unscattered) physical pages.
    """
    from repro.mem.cache import CacheConfig
    from repro.mem.hierarchy import MemorySystemConfig
    from repro.mem.tlb import TLBConfig

    config = default_config()
    fig4_tlb = TLBConfig(private_entries=16, shared_entries=0, miss_rate_window=2048)
    return {
        "squeezenet_no_l2": ("squeezenet", {"mem": MemorySystemConfig(l2=None)}),
        "squeezenet_filters": (
            "squeezenet", {"gemmini": config.with_tlb(TLBConfig(filter_registers=True))},
        ),
        "resnet50_fig4_tlb": (
            "resnet50", {"gemmini": config.with_im2col(True).with_tlb(fig4_tlb)},
        ),
        "squeezenet_write_through": (
            "squeezenet", {"mem": MemorySystemConfig(l2=CacheConfig(writeback=False))},
        ),
        "squeezenet_sequential_pages": ("squeezenet", {"scattered_pages": False}),
    }


RUN_VARIANTS = tuple(_memory_variants())


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
    from repro.soc.components import SoCDesign

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
            {"design": SoCDesign.homogeneous(gemmini=default_config().with_geometry(8, 1))},
        ),
        "big_little_sjf": (
            _profile(1, _tenant("a", rate_qps=150.0),
                     _tenant("b", rate_qps=150.0, num_requests=3), scheduler="sjf", seed=0),
            {"design": _big_little()},
        ),
        # mobilenetv2 is the only zoo model with depthwise layers, so this
        # is the one case whose SJF oracle prices a depthwise lowering.
        "sjf_mobilenetv2": (
            _profile(2, _tenant("mbv2", model="mobilenetv2"), _tenant("sq"),
                     scheduler="sjf", seed=4),
            {},
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


def _timeline_values(timeline) -> list:
    return [timeline.next_free, timeline.busy_time, timeline.bookings]


def memory_values(soc) -> dict:
    """Every counter and timeline the exact memory path of tile 0 touched."""
    mem = soc.mem
    accel = soc.tile.accel
    xlat = accel.xlat
    series = xlat.miss_window.series
    values = {
        "stats": {
            "bus": mem.bus.stats.snapshot(),
            "dram": mem.dram.stats.snapshot(),
            "xlat": xlat.stats.snapshot(),
            "dma": accel.dma.stats.snapshot(),
        },
        "timelines": {
            "bus": _timeline_values(mem.bus.channel.inner),
            "dram": _timeline_values(mem.dram.channel.inner),
            "ptw": _timeline_values(xlat.ptw),
            "dma_rd": _timeline_values(accel.dma.read_channel),
            "dma_wr": _timeline_values(accel.dma.write_channel),
        },
        "bytes_moved": {
            "bus": mem.bus.channel.bytes_moved,
            "dram": mem.dram.channel.bytes_moved,
        },
        "walk_accesses": soc.tile.vm.page_table.walk_accesses,
        "tlb_miss_series": len(series),
        "tlb_miss_series_sha256": _rows_digest(zip(series.times, series.values)),
    }
    if mem.l2 is not None:
        values["stats"]["l2"] = mem.l2.stats.snapshot()
        values["timelines"]["l2_port"] = _timeline_values(mem.l2.port.inner)
        values["bytes_moved"]["l2_port"] = mem.l2.port.bytes_moved
    return values


def _run_setup(name: str):
    """(soc, runtime) of one run case: a zoo model or a memory variant."""
    from repro.soc.components import SoCDesign
    from repro.soc.soc import SoC
    from repro.sw.runtime import Runtime

    model_name, design = _memory_variants().get(name, (name, {}))
    config = design.get("gemmini") or default_config()
    model = _compile(model_name, RUN_MODELS[model_name], config)
    soc = SoC(SoCDesign.homogeneous(**design))
    return soc, Runtime(soc.tile, model, schedule_cache=NULL_SCHEDULE_CACHE)


def run_values(name: str) -> dict:
    """One cold single-tile run of a zoo model or a memory variant."""
    soc, runtime = _run_setup(name)
    result = runtime.run()
    dma = soc.tile.accel.dma.stats
    l2 = soc.mem.l2.stats if soc.mem.l2 is not None else None
    return {
        "total_cycles": result.total_cycles,
        "macro_ops": result.macro_ops,
        "layers": len(result.layers),
        "layer_cycles_sha256": _rows_digest((layer.name, layer.cycles) for layer in result.layers),
        "l2_hits": l2.value("hits") if l2 is not None else None,
        "l2_misses": l2.value("misses") if l2 is not None else None,
        "dram_bytes": soc.mem.dram.bytes_moved,
        "tlb_hit_rate": soc.tile.accel.xlat.hit_rate_including_filters(),
        "dma_bytes_read": dma.value("bytes_read"),
        "dma_bytes_written": dma.value("bytes_written"),
        "memory": memory_values(soc),
    }


def trace_values() -> dict:
    """A :class:`TraceRecorder` recording of one cold squeezenet@32 run."""
    from repro.sim.trace import TraceRecorder

    soc, runtime = _run_setup("squeezenet")
    recorder = TraceRecorder(runtime)
    recorder.run()
    trace = recorder.build_trace()
    return {
        "fingerprint": trace.fingerprint.hex(),
        "total_cycles": trace.total_cycles,
        "accesses": len(trace.acc_t),
        "translations": len(trace.xl_t),
        "segments": trace.num_segments,
        "memory": memory_values(soc),
    }


def fig9_values() -> dict:
    """``run_fig9`` of squeezenet at 32 px on two cores: the multi-tile driver."""
    from repro.eval.experiments import run_fig9

    result = run_fig9(input_hw=32, core_counts=(2,), model="squeezenet")
    return {
        run.config_name: {
            "total_cycles": run.total_cycles,
            "cycles_by_kind": run.cycles_by_kind,
            "l2_miss_rate": run.l2_miss_rate,
        }
        for run in result.runs
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


#: the analytic case's design points: seeded ``gemmini_space(max_dim=64)``
#: samples plus the template default (the only BOTH-dataflow point)
ANALYTIC_POINTS = 128
ANALYTIC_SEED = 0


def _physical_values(config) -> dict:
    """Area rows, power, fmax and an energy report of one config."""
    from repro.physical.area import accelerator_area
    from repro.physical.energy import estimate_energy
    from repro.physical.power import power_mw
    from repro.physical.timing import max_frequency_ghz

    fmax = max_frequency_ghz(config)
    energy = estimate_energy(config, macs=10**9, cycles=1.5e7, dma_bytes=3 * 10**8,
                             dram_bytes=10**8, clock_ghz=fmax)
    return {
        "area_rows": [list(row) for row in accelerator_area(config).rows()],
        "area_boom_total": accelerator_area(config, cpu="boom").total,
        "fmax_ghz": fmax,
        "power_mw": power_mw(config),
        "power_mw_at_fmax": power_mw(config, frequency_ghz=fmax),
        "energy": {
            "array_mj": energy.array_mj,
            "sram_mj": energy.sram_mj,
            "dram_mj": energy.dram_mj,
            "static_mj": energy.static_mj,
            "total_mj": energy.total_mj,
            "macs": energy.macs,
            "cycles": energy.cycles,
        },
    }


def analytic_values() -> dict:
    """The analytic models: DSE metrics (per point and batched), the Fig. 3
    and Fig. 6 physical models, and the SJF service-cycle estimate."""
    import random

    from repro.core.config import (
        Dataflow,
        GemminiConfig,
        fp32_config,
        systolic_config,
        vector_config,
    )
    from repro.dse import (
        EvaluationSpec,
        conv_workload,
        evaluate_design,
        evaluate_design_batch,
        gemmini_space,
        model_workload,
    )
    from repro.eval.experiments import run_fig3
    from repro.models.zoo import model_names
    from repro.serve.cluster import estimate_service_cycles

    space = gemmini_space(max_dim=64)
    rng = random.Random(ANALYTIC_SEED)
    points = [space.sample(rng) for __ in range(ANALYTIC_POINTS)] + [{}]
    workloads = {
        workload.name: workload
        for workload in [conv_workload()]
        + [model_workload(name) for name in ("squeezenet", "resnet50", "bert")]
    }
    # mobilenetv2 is the only zoo model with depthwise layers
    workloads.update(
        (f"mobilenetv2@{hw}", model_workload("mobilenetv2", input_hw=hw)) for hw in (224, 32)
    )
    scalar, batched = {}, {}
    for label, workload in workloads.items():
        for cpu in ("rocket", "boom"):
            spec = EvaluationSpec(workload=workload, cpu=cpu)
            key = f"{label}/{cpu}"
            scalar[key] = _rows_digest(
                (e.point, e.config_summary, e.metrics)
                for e in (evaluate_design(p, spec) for p in points)
            )
            batched[key] = _rows_digest(
                (e.point, e.config_summary, e.metrics)
                for e in evaluate_design_batch(points, spec)
            )

    # run_fig3()'s design points: both extremes and the tiles in between
    configs = {
        "systolic": systolic_config(16),
        "vector": vector_config(16),
        **{f"tile{t}x{t}": default_config().with_geometry(16, t) for t in (2, 4, 8)},
        "default": default_config(),
        "fp32": fp32_config(),  # the only datapath wider than the int8 anchor
    }
    physical = {name: _physical_values(config) for name, config in configs.items()}
    fig3 = [
        [row.name, row.tile_shape, row.frequency_ghz, row.area_kum2, row.power_mw]
        for row in run_fig3().rows
    ]

    os_config = GemminiConfig(dataflow=Dataflow.OS).with_geometry(8)
    service = {}
    for name in model_names():
        tenant = TenantSpec(name="t", model=name)
        service[name] = {
            "default": estimate_service_cycles(tenant, default_config()),
            "os_8x8": estimate_service_cycles(tenant, os_config),
        }
    return {
        "evaluate_design_sha256": scalar,
        "evaluate_design_batch_sha256": batched,
        "physical": physical,
        "fig3_rows": fig3,
        "service_cycles": service,
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
    """Run one CLI command against a fresh ledger (and, for the commands
    that read one, a fresh schedule cache) in a temp dir; return the
    reproducible fields of the one record it writes."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.jsonl"
        argv = CLI_CASES[command] + ["--ledger", str(ledger)]
        if command == "dse":
            argv += ["--cache-dir", str(Path(tmp) / "dse-cache")]
        else:
            argv += ["--schedule-cache", str(Path(tmp) / "schedules.jsonl")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{command} exited {code}")
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    return {field: record[field] for field in LEDGER_FIELDS}


# ---------------------------------------------------------------------- #
# The matrix                                                              #
# ---------------------------------------------------------------------- #

CASES = (
    tuple(f"serve/{name}" for name in serve_cases())
    + tuple(f"run/{name}" for name in (*RUN_MODELS, *RUN_VARIANTS))
    + ("trace/squeezenet", "fig9/squeezenet_two_core", "tune/squeezenet", "dse/evolutionary", "analytic/models")
    + tuple(f"cli/{name}" for name in CLI_CASES)
)


def fingerprint(case: str) -> dict:
    """Run one case and return its readable values.

    Dispatch plans greedily: no case hands the library a schedule cache,
    and the CLI cases name a fresh, empty one.
    """
    kind, __, name = case.partition("/")
    if kind == "serve":
        profile, extra = serve_cases()[name]
        return serve_values(simulate_serving(profile, **extra))
    if kind == "run":
        return run_values(name)
    if kind == "trace":
        return trace_values()
    if kind == "fig9":
        return fig9_values()
    if kind == "tune":
        return tune_values()
    if kind == "dse":
        return dse_values()
    if kind == "analytic":
        return analytic_values()
    if kind == "cli":
        return cli_values(name)
    raise KeyError(case)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
