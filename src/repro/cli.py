"""Command-line interface: the generator and evaluator as a tool.

Exposes the common workflows without writing Python:

``gemmini-repro generate``
    Run the generator and print the ``gemmini_params.h`` header.
``gemmini-repro run MODEL``
    Compile and execute a zoo model on a full SoC; print the performance,
    energy and memory-system report.
``gemmini-repro area``
    Figure 6-style area breakdown for a configuration.
``gemmini-repro models``
    List the model zoo.
``gemmini-repro table1``
    Print the generator comparison matrix.
``gemmini-repro dse``
    Search the design space: pick a strategy, budget, objectives,
    constraints and workload; print the Pareto front and export it.
``gemmini-repro serve``
    Drive a multi-tile SoC with multi-tenant traffic and report SLO
    metrics (tail latency, goodput, fairness, violation rates).
    ``--design FILE`` serves on an arbitrary (heterogeneous) component
    design instead of the homogeneous config flags.
``gemmini-repro soc-spec``
    Validate and pretty-print a component-based SoC design JSON file
    (``--example`` emits a big/little starter spec).
``gemmini-repro tune``
    Auto-tune every matmul dispatch shape of the given zoo models into
    the persistent schedule cache; later ``run``/``serve``/``dse``
    invocations (``--schedule-cache`` or ``$REPRO_SCHEDULE_CACHE``)
    dispatch straight to the tuned schedules, never worse than greedy.
``gemmini-repro trace``
    Validate and summarise a ``--trace-out`` timeline: top spans by
    total/self time, queue-vs-service split per tile, cache hit ratio.
    ``--json`` emits the validator verdict + summary machine-readably;
    ``--diff A B`` aligns two traces by span stem and lane and reports
    total/self-time and count deltas.
``gemmini-repro history``
    List/filter/show the provenance-stamped run ledger every
    ``run``/``serve``/``dse``/``tune`` invocation and benchmark appends to.
``gemmini-repro compare RUN_A RUN_B``
    Metric deltas between two ledgered runs, with significance.
``gemmini-repro regress --baseline REF``
    Statistical regression gate: compare the ledger against a named
    baseline (a ledger file, a git rev or a run-id prefix) and exit 1
    when any metric significantly regresses.

Every stochastic subcommand (``run``/``dse``/``serve``) takes one
``--seed`` and prints the effective seed, so any output can be reproduced
from the command line alone.  ``run``/``serve``/``dse``/``tune`` also take
``--trace-out`` (Perfetto-loadable timeline), and all but ``tune`` take
``--metrics-out`` (streaming p50/p95/p99, goodput, utilisation
snapshots); ``serve --live-metrics N`` prints those snapshots while the
simulation runs.  Each such invocation also appends a provenance-stamped
record (git rev + dirty flag, python/numpy versions, host, config/workload
hashes, wall time, metrics summary) to the run ledger, one per model for
``tune`` — ``--ledger PATH`` moves it, ``--no-ledger`` or
``REPRO_LEDGER=off`` disables it; the tracer, the metric stream and the
ledger record share one run id, so every artifact of a run joins on it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import replace

from repro.core.config import default_config
from repro.core.generator import SoftwareParams, generate
from repro.eval.report import format_table
from repro.eval.tables import format_table_i
from repro.models import build_model, model_names
from repro.physical.area import accelerator_area
from repro.physical.energy import estimate_run_energy
from repro.physical.timing import max_frequency_ghz
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.cpu_reference import cpu_graph_cycles
from repro.sw.runtime import Runtime


def _config_from_args(args) -> "GemminiConfig":
    config = default_config()
    config = replace(
        config,
        mesh_rows=args.dim // config.tile_rows,
        mesh_cols=args.dim // config.tile_cols,
        sp_capacity_bytes=args.sp_kb * 1024,
        acc_capacity_bytes=args.acc_kb * 1024,
        has_im2col=not args.no_im2col,
    )
    return config


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=16, help="PE grid dimension")
    parser.add_argument("--sp-kb", type=int, default=256, help="scratchpad KB")
    parser.add_argument("--acc-kb", type=int, default=64, help="accumulator KB")
    parser.add_argument(
        "--no-im2col", action="store_true", help="omit the on-the-fly im2col block"
    )


def _add_model_size_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input-hw", type=int, default=224, help="CNN input size")
    parser.add_argument("--seq", type=int, default=128, help="BERT sequence length")


def _model_size(args, model: str) -> dict:
    """The ``build_model`` size kwargs ``--input-hw``/``--seq`` give ``model``."""
    return {"seq": args.seq} if model == "bert" else {"input_hw": args.input_hw}


#: snapshot keys the live console prints, in order, when present
_LIVE_KEYS = ("completed", "evaluations", "latency_ms_p50", "latency_ms_p99",
              "goodput_qps", "utilization", "front_size", "hypervolume")


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="run-ledger JSONL path (default: $REPRO_LEDGER or "
        ".repro-ledger/ledger.jsonl; REPRO_LEDGER=off disables)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true", help="do not append this run to the ledger"
    )


def _ledger_from_args(args):
    """The ledger the command appends to (or reads): ``--ledger`` beats the
    environment; ``--no-ledger`` yields the null object."""
    from repro.obs import NULL_LEDGER, RunLedger, ledger_from_env

    if getattr(args, "no_ledger", False):
        return NULL_LEDGER
    if getattr(args, "ledger", None):
        return RunLedger(args.ledger)
    return ledger_from_env()


def _read_ledger(args):
    """History/compare/regress read path: the ledger must exist."""
    ledger = _ledger_from_args(args)
    if not ledger or not ledger.path.exists():
        print(f"no ledger at {ledger.path} (run something with --ledger, "
              "or point --ledger/$REPRO_LEDGER at one)", file=sys.stderr)
        return None
    return ledger


# ---------------------------------------------------------------------- #
# The simulating commands' shared run plumbing (run / serve / dse / tune) #
# ---------------------------------------------------------------------- #


def _add_run_args(
    parser: argparse.ArgumentParser, metrics: bool = True, profile: bool = False,
    live: bool = False,
) -> None:
    """The options a :class:`_RunContext` reads: schedule cache, trace and
    (with ``metrics``) metrics artifacts, ledger; ``profile`` adds cProfile,
    ``live`` the streaming metrics console."""
    parser.add_argument(
        "--schedule-cache", default=None, metavar="PATH",
        help="tuned-schedule cache JSONL (default: $REPRO_SCHEDULE_CACHE or "
        ".repro-schedule-cache/schedules.jsonl; 'off' disables; "
        "pre-warm with `gemmini-repro tune`)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome Trace Event JSON timeline here "
        "(open in Perfetto or chrome://tracing; digest with `gemmini-repro trace`)",
    )
    if metrics:
        parser.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="write streaming metrics snapshots here (.csv -> CSV, else JSON)",
        )
    if live:
        parser.add_argument(
            "--live-metrics", type=int, default=None, metavar="N",
            help="print a streaming metrics line every N completed requests",
        )
    if profile:
        parser.add_argument(
            "--profile", action="store_true",
            help="run under cProfile and print the top-20 cumulative entries",
        )
        parser.add_argument(
            "--profile-out", default=None, metavar="PATH",
            help="dump raw cProfile pstats data to this file (implies profiling)",
        )
    _add_ledger_args(parser)
    parser.set_defaults(parser=parser, run_context=True)


class _RunContext:
    """One invocation of a simulating command, from run id to ledger record.

    Entering resolves ``--schedule-cache`` (exported to
    ``REPRO_SCHEDULE_CACHE`` so DSE worker processes inherit it) and
    installs it as the process default, so every dispatch site shares one
    stats-bearing cache; leaving restores both.  The tracer, the metric
    stream and the ledger record all carry :attr:`run_id`, so every
    artifact of a run joins on it.
    """

    def __init__(self, args) -> None:
        from repro.obs import new_run_id
        from repro.obs.metrics import NULL_METRICS
        from repro.obs.tracer import NULL_TRACER

        self.args = args
        self.command = args.command
        self.run_id = new_run_id(self.command)
        self.seed: int | None = None
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.ledger = _ledger_from_args(args)
        self.wall_s = 0.0

    def __enter__(self) -> "_RunContext":
        from repro.sw.schedule_cache import default_schedule_cache, set_default_schedule_cache

        self._saved_env = os.environ.get("REPRO_SCHEDULE_CACHE")
        if self.args.schedule_cache is not None:
            os.environ["REPRO_SCHEDULE_CACHE"] = self.args.schedule_cache
        self._saved_override = set_default_schedule_cache(None)  # re-resolve from env
        self.schedule_cache = default_schedule_cache()
        set_default_schedule_cache(self.schedule_cache)
        return self

    def __exit__(self, *exc) -> None:
        from repro.sw.schedule_cache import set_default_schedule_cache

        set_default_schedule_cache(self._saved_override)
        if self._saved_env is None:
            os.environ.pop("REPRO_SCHEDULE_CACHE", None)
        else:
            os.environ["REPRO_SCHEDULE_CACHE"] = self._saved_env

    def observe(
        self, seed: int, clock_ghz: float | None = None, every: int = 64, trace: bool = False
    ) -> None:
        """Stamp the run with ``seed`` and build the sinks asked for: a
        tracer on ``--trace-out`` (or ``trace``), timed in simulated cycles
        when the command has a clock and in wall seconds otherwise; a metric
        stream snapshotting every ``every`` events on ``--metrics-out`` or
        ``--live-metrics``."""
        from repro.obs.metrics import MetricStream
        from repro.obs.tracer import Tracer

        self.seed = seed
        if self.args.trace_out or trace:
            self.tracer = (
                Tracer.wall(run_id=self.run_id, seed=seed)
                if clock_ghz is None
                else Tracer.for_cycles(clock_ghz, run_id=self.run_id, seed=seed)
            )
        live = getattr(self.args, "live_metrics", None)
        if getattr(self.args, "metrics_out", None) or live:
            self.metrics = MetricStream(
                every=live or every,
                on_snapshot=self._print_snapshot if live else None,
                run_id=self.run_id,
                seed=seed,
            )

    def adopt(self, tracer, metrics, seed: int) -> None:
        """Continue a checkpointed run: keep its tracer and metric stream,
        and the run id they carry."""
        self.tracer, self.metrics, self.seed = tracer, metrics, seed
        self.run_id = next((sink.run_id for sink in (tracer, metrics) if sink), self.run_id)
        if getattr(self.args, "live_metrics", None):
            metrics.on_snapshot = self._print_snapshot

    def _print_snapshot(self, snap: dict) -> None:
        """The ``--live-metrics`` console: one line per metrics snapshot."""
        shown = " ".join(
            f"{key}={snap[key]:.4g}" if isinstance(snap[key], float) else f"{key}={snap[key]}"
            for key in _LIVE_KEYS
            if key in snap
        )
        print(f"[{self.command} t={snap.get('t', 0.0) * 1e3:.1f}ms] {shown}")

    @contextlib.contextmanager
    def timed(self):
        """Measure :attr:`wall_s` of the enclosed work, under cProfile when
        ``--profile`` (print the top 20 cumulative entries) or
        ``--profile-out PATH`` (dump raw pstats data for ``pstats.Stats``,
        snakeviz or gprof2dot) asks."""
        show = getattr(self.args, "profile", False)
        out = getattr(self.args, "profile_out", None)
        profiler = None
        if show or out:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s = time.perf_counter() - t0
            if profiler is not None:
                import pstats

                profiler.disable()
                stats = pstats.Stats(profiler)
                if out:
                    stats.dump_stats(out)
                    print(f"wrote {out}")
                if show:
                    print("\n--- cProfile: top 20 by cumulative time ---")
                    stats.sort_stats("cumulative").print_stats(20)

    def print_schedule_stats(self) -> None:
        cache = self.schedule_cache
        if cache and cache.stats.lookups:
            print(
                f"schedule cache: {cache.stats.hits} hits / {cache.stats.misses} misses "
                f"({len(cache)} tuned schedules at {cache.path})"
            )

    def export(self, **meta) -> None:
        """Write the ``--trace-out`` / ``--metrics-out`` artifacts, if asked for."""
        from repro.obs import export_metrics_csv, export_metrics_json, write_chrome_trace

        trace_out = self.args.trace_out
        metrics_out = getattr(self.args, "metrics_out", None)
        if trace_out and self.tracer:
            print(f"wrote {write_chrome_trace(self.tracer, trace_out)}")
        if metrics_out and self.metrics:
            if metrics_out.endswith(".csv"):
                print(f"wrote {export_metrics_csv(self.metrics, metrics_out)}")
            else:
                meta = {"command": self.command, "seed": self.seed, **meta,
                        "run_id": self.run_id}
                print(f"wrote {export_metrics_json(self.metrics, metrics_out, meta=meta)}")

    def record(
        self, name: str, *, workload: dict, metrics: dict, config=None, workload_key=None,
        label: str | None = None,
    ) -> None:
        """Append this run's ledger record and echo its id.

        ``config`` and ``workload_key`` (default: ``workload``) are hashed
        into ``config_hash``/``workload_hash``; ``label`` tags the echo of
        a run that writes several records."""
        from repro.eval.runner import config_hash

        record = self.ledger.record(
            self.command, name, run_id=self.run_id, seed=self.seed, wall_s=self.wall_s,
            config_hash=None if config is None else config_hash(config),
            workload_hash=config_hash(workload if workload_key is None else workload_key),
            workload=workload, metrics=metrics,
        )
        if self.ledger:
            tag = f" [{label}]" if label else ""
            print(f"ledger: {record.run_id}{tag} -> {self.ledger.path}")


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    generated = generate(config)
    print(generated.header)
    return 0


def cmd_models(args) -> int:
    for name in model_names():
        graph = build_model(name) if name != "bert" else build_model(name, seq=128)
        print(
            f"{name:12s} {graph.total_macs() / 1e9:6.2f} GMACs  "
            f"{graph.total_weight_bytes() / 1e6:6.1f} MB weights  "
            f"{len(graph.nodes)} nodes"
        )
    return 0


def cmd_run(args, run: _RunContext) -> int:
    config = _config_from_args(args)
    size = _model_size(args, args.model)
    graph = build_model(args.model, **size)
    soc = make_soc(gemmini=config, cpu=args.cpu)
    model = compile_graph(graph, SoftwareParams.from_config(config))

    # --metrics-out folds the layer spans into the streaming-metrics
    # document shape the serving engine emits, so it needs the tracer too.
    run.observe(args.seed, config.clock_ghz, trace=bool(args.metrics_out))
    tracer, metrics = run.tracer, run.metrics
    tracer.declare_lane(soc.tile.name, process="run", label=f"{soc.tile.name} [{args.model}]")
    with run.timed():
        result = Runtime(
            soc.tile, model, tracer=tracer, schedule_cache=run.schedule_cache
        ).run()

    if metrics:
        to_ms = 1.0 / (config.clock_ghz * 1e6)
        for event in tracer.events():
            if event[0] != "X":
                continue
            __, __, __, start, end, evargs = event
            metrics.observe("layer_ms", (end - start) * to_ms)
            metrics.mark("layers")
            if evargs and "kind" in evargs:
                metrics.mark(f"kind:{evargs['kind']}")
        metrics.tick(
            result.total_cycles * to_ms / 1e3, {"total_cycles": result.total_cycles}
        )

    print(f"model: {args.model} ({graph.total_macs() / 1e9:.2f} GMACs)")
    print(f"config: {config.describe()}")
    print(f"seed: {args.seed}")
    print(
        f"cycles: {result.total_cycles / 1e6:.2f}M -> "
        f"{result.fps(config.clock_ghz):.2f} inf/s at {config.clock_ghz} GHz"
    )
    rows = sorted(result.cycles_by_kind().items(), key=lambda kv: -kv[1])
    print(
        format_table(
            ["layer kind", "Mcycles", "share"],
            [
                (kind, f"{c / 1e6:.2f}", f"{100 * c / result.total_cycles:.1f}%")
                for kind, c in rows
            ],
        )
    )
    if args.baseline:
        baseline = cpu_graph_cycles(graph, soc.tile.cpu)
        print(f"speedup vs {soc.tile.cpu.name} baseline: {baseline / result.total_cycles:,.0f}x")
    energy = estimate_run_energy(soc, result)
    print(
        f"energy: {energy.total_mj:.2f} mJ/inference "
        f"({energy.tops_per_watt(config.clock_ghz):.2f} TOPS/W)"
    )
    print(
        f"memory: L2 miss {soc.mem.l2.miss_rate():.1%}, "
        f"DRAM {soc.mem.dram.bytes_moved / 1e6:.1f} MB, "
        f"TLB private hit {soc.tile.accel.xlat.hit_rate_including_filters():.1%}"
    )
    run.print_schedule_stats()
    run.export(model=args.model)
    stats = run.schedule_cache.stats
    run.record(
        args.model,
        config=config,
        workload={"model": args.model, **size},
        metrics={
            "total_cycles": result.total_cycles,
            "fps": result.fps(config.clock_ghz),
            "energy_mj": energy.total_mj,
            "tops_per_watt": energy.tops_per_watt(config.clock_ghz),
            "l2_miss_rate": soc.mem.l2.miss_rate(),
            "dram_bytes": soc.mem.dram.bytes_moved,
            "schedule_lookups": stats.lookups,
            "schedule_hits": stats.hits,
            "schedule_misses": stats.misses,
        },
    )
    return 0


def cmd_tune(args, run: _RunContext) -> int:
    """Auto-tune matmul schedules for zoo models into the schedule cache."""
    from repro.sw.tune import tune_model

    config = _config_from_args(args)
    cache = run.schedule_cache
    if not cache:
        print(
            "schedule cache is disabled (REPRO_SCHEDULE_CACHE=off); "
            "nothing to tune into",
            file=sys.stderr,
        )
        return 1
    models = list(args.models)
    if "all" in models:
        models = list(model_names())
    models = list(dict.fromkeys(models))

    run.observe(0)
    print(f"config: {config.describe()}")
    print(f"cache: {cache.path}")

    rows = []
    exit_code = 0
    for name in models:
        size = _model_size(args, name)
        graph = build_model(name, **size)
        model = compile_graph(graph, SoftwareParams.from_config(config))
        with run.timed():
            results = tune_model(
                model,
                config,
                cache=cache,
                verify_top_k=args.verify_top,
                force=args.force,
                tracer=run.tracer,
            )
        greedy_cycles = sum(r.greedy_cycles or 0.0 for r in results)
        tuned_cycles = sum(r.tuned_cycles or 0.0 for r in results)
        cached = sum(1 for r in results if r.cached)
        improved = sum(1 for r in results if r.improvement > 0)
        improvement_pct = (
            100.0 * (1.0 - tuned_cycles / greedy_cycles) if greedy_cycles else 0.0
        )
        rows.append((
            name, f"{len(results)}", f"{cached}", f"{improved}",
            f"{greedy_cycles / 1e6:.3f}", f"{tuned_cycles / 1e6:.3f}",
            f"{improvement_pct:+.2f}%", f"{run.wall_s:.1f}s",
        ))
        run.record(
            name,
            config=config,
            workload={"model": name, **size, "verify_top": args.verify_top},
            workload_key={"model": name, **size},
            metrics={
                "shapes_total": len(results),
                "shapes_tuned": len(results) - cached,
                "shapes_cached": cached,
                "shapes_improved": improved,
                "greedy_cycles_total": greedy_cycles,
                "tuned_cycles_total": tuned_cycles,
                "improvement_pct": improvement_pct,
            },
            label=name,
        )
        if tuned_cycles > greedy_cycles:
            exit_code = 1  # the never-worse contract was violated
    print(format_table(
        ["model", "shapes", "cached", "improved", "greedy Mcyc", "tuned Mcyc", "delta", "wall"],
        rows,
    ))
    print(f"cache now holds {len(cache)} tuned schedules")
    run.export()
    return exit_code


def cmd_area(args) -> int:
    config = _config_from_args(args)
    breakdown = accelerator_area(config, cpu=args.cpu)
    print(
        format_table(
            ["component", "area (um^2)", "share"],
            [
                (name, f"{um2:,.0f}", f"{pct:.1f}%")
                for name, um2, pct in breakdown.rows()
            ],
            title=config.describe(),
        )
    )
    print(f"total: {breakdown.total:,.0f} um^2")
    print(f"fmax: {max_frequency_ghz(config):.2f} GHz")
    return 0


def cmd_table1(args) -> int:
    print(format_table_i())
    return 0


def _example_design_json() -> str:
    """A runnable big/little starter spec for ``soc-spec --example``."""
    from repro.dse.space import point_to_design

    design = point_to_design({"components": (("big", 1), ("little", 2))})
    return design.to_json()


def cmd_soc_spec(args) -> int:
    import json
    from pathlib import Path

    from repro.soc.components import DesignError, SoCDesign

    if args.example:
        print(_example_design_json())
        return 0
    if not args.file:
        args.parser.error("soc-spec needs a design JSON file (or --example)")
    try:
        design = SoCDesign.from_json(Path(args.file).read_text())
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, DesignError, ValueError, TypeError, KeyError) as exc:
        print(f"invalid design: {exc}", file=sys.stderr)
        return 1
    print(design.describe())
    for component in design.tile_components:
        print(f"  tile class [{component.label}]: {component.count}x, "
              f"hash {component.config_hash}")
    cache = design.cache_component
    l2 = f"{cache.l2.size_bytes // 1024} KB L2" if cache.l2 is not None else "no L2"
    print(f"  memory: {l2}, {design.dram_component.dram.bytes_per_cycle:.0f} B/cyc DRAM")
    print(f"  tiles: {design.num_tiles} at {design.clock_ghz} GHz")
    print(f"  fleet area: {design.area_mm2():.2f} mm^2"
          + (f" (budget {design.area_budget_mm2} mm^2)" if design.area_budget_mm2 else ""))
    print(f"  fleet power: {design.power_mw():.1f} mW"
          + (f" (budget {design.power_budget_mw} mW)" if design.power_budget_mw else ""))
    if args.emit:
        print(design.to_json())
    return 0


def _traffic_from_args(args, parser_error) -> "TrafficProfile | None":
    """Build the optional DSE traffic profile from repeated --traffic specs."""
    from repro.dse import SERVING_METRICS
    from repro.serve import TrafficProfile, parse_tenant

    objectives = [n.strip() for n in args.objectives.split(",") if n.strip()]
    serving = [n for n in objectives if n in SERVING_METRICS]
    if not args.traffic:
        if serving:
            parser_error(
                f"objectives {serving} need a traffic profile; add at least one "
                "--traffic model=NAME,qps=...,requests=..."
            )
        return None
    if not serving:
        # A serving simulation per design point is expensive; don't pay for
        # metrics no objective (or constraint) will ever read.
        print(
            "note: --traffic ignored — no serving objective among "
            f"{objectives} (add e.g. p99_latency_ms or qps_per_watt)"
        )
        return None
    tenants = tuple(
        parse_tenant(text, default_name=f"tenant{i}") for i, text in enumerate(args.traffic)
    )
    return TrafficProfile(
        tenants=tenants,
        num_tiles=args.serve_tiles,
        scheduler=args.serve_scheduler,
        seed=args.seed,
        batch_size=args.serve_batch_size,
        batch_window_ms=args.serve_batch_window_ms,
    )


def cmd_dse(args, run: _RunContext) -> int:
    from repro.dse import (
        EvaluationSpec,
        Explorer,
        conv_workload,
        default_cache_dir,
        export_csv,
        export_json,
        front_table,
        gemmini_space,
        make_strategy,
        model_workload,
        parse_bound,
    )
    from repro.eval.runner import ExperimentRunner

    if args.workload == "conv":
        workload = conv_workload()
    else:
        workload = model_workload(args.workload, input_hw=args.input_hw, seq=args.seq)
    spec = EvaluationSpec(
        workload=workload,
        objectives=tuple(n.strip() for n in args.objectives.split(",") if n.strip()),
        fidelity=args.fidelity,
        traffic=_traffic_from_args(args, args.parser.error),
    )
    if args.mix:
        from repro.dse import mix_space

        if args.fidelity == "soc":
            args.parser.error("--mix searches whole fleets; only analytic fidelity")
        space = mix_space(tuple(args.mix), max_tiles=args.mix_max_tiles)
    else:
        space = gemmini_space(max_dim=args.max_dim)
    strategy_options = {}
    if args.fidelity == "analytic" and spec.traffic is None and args.strategy in (
        "grid", "random"
    ):
        # Coverage strategies' traces are invariant to the ask batch size;
        # bigger slabs amortise the vectorised evaluator better.
        strategy_options["batch_size"] = 64
    strategy = make_strategy(args.strategy, space, seed=args.seed, **strategy_options)
    bounds = tuple(parse_bound(text) for text in args.constraint)

    # DSE orchestration runs in real time: wall-clock tracer, one metrics
    # snapshot per generation (searches have few generations, each costly).
    run.observe(args.seed, every=1)
    cache_dir = args.cache_dir or default_cache_dir()
    with run.timed(), ExperimentRunner(
        max_workers=args.workers, cache=cache_dir, tracer=run.tracer
    ) as runner:
        explorer = Explorer(
            space, strategy, spec, budget=args.budget, bounds=bounds, runner=runner,
            tracer=run.tracer, metrics=run.metrics,
        )
        result = explorer.explore()
        stats = runner.stats()

    print(front_table(result, extra_metrics=("fmax_ghz", "throughput_gmacs")))
    print(
        f"\nevaluated {result.evaluations} points "
        f"({len(result.front)} on the front, {len(result.dominated)} dominated, "
        f"{len(result.infeasible)} infeasible), hypervolume {result.hypervolume:.6g}"
    )
    print(f"seed: {args.seed}")
    print(f"dse {stats}")
    if args.export_json:
        print(f"wrote {export_json(result, args.export_json)}")
    if args.export_csv:
        print(f"wrote {export_csv(result, args.export_csv)}")
    run.export(strategy=args.strategy)
    run.record(
        f"{args.strategy}:{args.workload}",
        workload={
            "strategy": args.strategy,
            "workload": args.workload,
            "objectives": list(spec.objectives),
            "budget": args.budget,
            "mix": list(args.mix),
            "fidelity": args.fidelity,
        },
        metrics={
            "evaluations": result.evaluations,
            "front_size": len(result.front),
            "dominated": len(result.dominated),
            "infeasible": len(result.infeasible),
            "hypervolume": result.hypervolume,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
        },
    )
    return 0 if result.front else 1


def cmd_serve(args, run: _RunContext) -> int:
    from repro.serve import (
        ServingSimulation,
        TrafficProfile,
        export_serve_csv,
        export_serve_json,
        load_trace_profile,
        parse_tenant,
        serve_table,
    )

    if args.horizon_hours is not None and args.horizon_ms is not None:
        args.parser.error("pass --horizon-ms or --horizon-hours, not both")

    if args.resume:
        from repro.serve.checkpoint import load_checkpoint

        ignored = [flag for flag, given in (
            ("--tenant", args.tenant), ("--trace", args.trace), ("--design", args.design),
            ("--no-replay", args.no_replay), ("--record-mode", args.record_mode),
            ("--horizon-ms", args.horizon_ms is not None),
            ("--horizon-hours", args.horizon_hours is not None),
        ) if given]
        if ignored:
            args.parser.error(
                f"--resume restores the checkpointed run; drop {'/'.join(ignored)}"
            )
        sim = load_checkpoint(args.resume)
        unobserved = [flag for flag, asked, sink in (
            ("--trace-out", args.trace_out, sim.tracer),
            ("--metrics-out", args.metrics_out, sim.metrics),
            ("--live-metrics", args.live_metrics, sim.metrics),
        ) if asked and not sink]
        if unobserved:
            args.parser.error(
                "the checkpointed run has no tracer/metric stream to continue; "
                f"drop {'/'.join(unobserved)}"
            )
        if args.checkpoint_every is not None:
            sim.checkpoint_every = args.checkpoint_every
        if sim.checkpoint_every is not None:
            sim.checkpoint_path = args.checkpoint_path or args.resume
        profile, design, config = sim.profile, sim.design, sim.gemmini
        run.adopt(sim.tracer, sim.metrics, profile.seed)
        print(f"resuming: {args.resume}")
    else:
        design = None
        if args.design:
            from pathlib import Path

            from repro.soc.components import SoCDesign

            design = SoCDesign.from_json(Path(args.design).read_text())
            if args.tiles not in (1, design.num_tiles):
                args.parser.error(
                    f"--tiles {args.tiles} contradicts the design's "
                    f"{design.num_tiles} tiles (omit --tiles with --design)"
                )
            args.tiles = design.num_tiles
        config = _config_from_args(args)
        horizon_ms = args.horizon_ms
        if args.horizon_hours is not None:
            horizon_ms = args.horizon_hours * 3_600_000.0
        profile_kwargs = dict(
            num_tiles=args.tiles,
            scheduler=args.scheduler,
            seed=args.seed,
            horizon_ms=horizon_ms,
            batch_size=args.batch_size,
            batch_window_ms=args.batch_window_ms,
        )
        if args.trace:
            profile = load_trace_profile(args.trace, **profile_kwargs)
        else:
            if not args.tenant:
                args.parser.error("serve needs at least one --tenant (or --trace FILE)")
            tenants = tuple(
                parse_tenant(text, default_name=f"tenant{i}")
                for i, text in enumerate(args.tenant)
            )
            profile = TrafficProfile(tenants=tenants, **profile_kwargs)

        clock_ghz = design.clock_ghz if design is not None else config.clock_ghz
        run.observe(profile.seed, clock_ghz)
        checkpoint_path = args.checkpoint_path
        if args.checkpoint_every is not None and checkpoint_path is None:
            checkpoint_path = "serve.ckpt"
        soc_kwargs = {"design": design} if design is not None else {"gemmini": config}
        sim = ServingSimulation(
            profile,
            replay=not args.no_replay,
            tracer=run.tracer,
            metrics=run.metrics,
            record_mode=args.record_mode or (
                "stream" if args.horizon_hours is not None else "exact"
            ),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=checkpoint_path,
            **soc_kwargs,
        )
    with run.timed():
        result = sim.run()

    print(f"seed: {profile.seed}")
    if design is not None:
        print(f"design: {design.describe()}")
    else:
        print(f"config: {config.describe()}")
    print(serve_table(result))
    report = result.report
    print(
        f"overall: p99 {report.overall.p99_ms:.2f} ms, "
        f"goodput {report.overall.goodput_qps:.1f} QPS, "
        f"fairness {report.fairness:.3f}, "
        f"{result.completed}/{result.issued} served "
        f"({result.replayed} trace-replayed)"
    )
    print(
        f"memory: L2 miss {result.l2_miss_rate:.1%}, "
        f"DRAM {result.dram_bytes / 1e6:.1f} MB over {report.makespan_ms:.1f} ms"
    )
    if result.checkpoints:
        print(f"checkpoints: {result.checkpoints} written to {sim.checkpoint_path}")
    run.print_schedule_stats()
    if args.export_json:
        print(f"wrote {export_serve_json(result, args.export_json)}")
    if args.export_csv:
        print(f"wrote {export_serve_csv(result, args.export_csv)}")
    run.export(scheduler=profile.scheduler)
    run.record(
        f"{profile.scheduler}:{'+'.join(spec.model for spec in profile.tenants)}",
        config=design if design is not None else config,
        workload={
            "tenants": [
                {"name": spec.name, "model": spec.model} for spec in profile.tenants
            ],
            "tiles": profile.num_tiles,
            "scheduler": profile.scheduler,
        },
        workload_key=profile,
        metrics={
            **report.overall.summary(),
            "fairness": report.fairness,
            "makespan_ms": report.makespan_ms,
            "l2_miss_rate": result.l2_miss_rate,
            "dram_bytes": result.dram_bytes,
            "issued": result.issued,
            "replayed": result.replayed,
            "peak_inflight": result.peak_inflight,
            "peak_pending": result.peak_pending,
            "schedule_lookups": run.schedule_cache.stats.lookups,
            "schedule_hits": run.schedule_cache.stats.hits,
        },
    )
    return 0 if result.completed else 1


def _load_validated_trace(path: str, as_json: bool):
    """Load + schema-check one trace file; (data, violations) or (None, ..)."""
    from repro.obs import load_trace, validate_chrome_trace

    try:
        data = load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None, [f"unreadable: {exc}"]
    violations = validate_chrome_trace(data)
    if violations and not as_json:
        print(f"{path}: INVALID trace ({len(violations)} violation(s))", file=sys.stderr)
        for violation in violations[:20]:
            print(f"  - {violation}", file=sys.stderr)
        if len(violations) > 20:
            print(f"  ... and {len(violations) - 20} more", file=sys.stderr)
    return data, violations


def cmd_trace(args) -> int:
    import json

    from repro.obs import (
        diff_traces,
        format_trace_diff,
        format_trace_summary,
        summarize_trace,
        trace_diff_to_dict,
    )

    if args.diff:
        if len(args.files) != 2:
            args.parser.error("trace --diff needs exactly two trace files (A B)")
        loaded = [_load_validated_trace(path, args.json) for path in args.files]
        if any(data is None or violations for data, violations in loaded):
            if args.json:
                print(json.dumps({
                    "valid": False,
                    "files": list(args.files),
                    "violations": {
                        path: v for path, (__, v) in zip(args.files, loaded) if v
                    },
                }, indent=2))
            return 1
        diff = diff_traces(loaded[0][0], loaded[1][0])
        if args.json:
            print(json.dumps(dict(
                trace_diff_to_dict(diff), valid=True, files=list(args.files),
            ), indent=2))
        else:
            print(format_trace_diff(diff, top=args.top))
        return 0

    if len(args.files) != 1:
        args.parser.error("trace takes one file (or two with --diff)")
    path = args.files[0]
    data, violations = _load_validated_trace(path, args.json)
    if args.json:
        doc = {"file": path, "valid": not violations, "violations": violations}
        if data is not None and not violations:
            doc["summary"] = summarize_trace(data).to_dict()
        print(json.dumps(doc, indent=2))
        return 1 if violations else 0
    if violations:
        return 1
    print(format_trace_summary(summarize_trace(data), top=args.top))
    return 0


def _record_row(record) -> tuple:
    """One ``history`` table row for a ledger record."""
    import datetime

    when = (
        datetime.datetime.fromtimestamp(record.ts).strftime("%Y-%m-%d %H:%M:%S")
        if record.ts
        else "-"
    )
    rev = record.git_rev[:9] if record.git_rev else "-"
    if record.provenance.get("git_dirty"):
        rev += "+dirty"
    headline = "-"
    for key in ("p99_ms", "total_cycles", "hypervolume", "wall_min_s"):
        if key in record.metrics:
            headline = f"{key}={record.metrics[key]:.6g}"
            break
    return (
        when,
        record.run_id,
        record.kind,
        record.name,
        "-" if record.seed is None else str(record.seed),
        rev,
        f"{record.wall_s:.3f}" if record.wall_s is not None else "-",
        headline,
    )


def cmd_history(args) -> int:
    import json

    ledger = _read_ledger(args)
    if ledger is None:
        return 1
    if args.show:
        try:
            record = ledger.find(args.show)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    records = ledger.history(kind=args.kind, name=args.name, limit=args.limit)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
        return 0
    if not records:
        print(f"ledger {ledger.path}: no matching records")
        return 0
    from repro.eval.report import format_table

    print(format_table(
        ["when", "run id", "kind", "name", "seed", "rev", "wall s", "headline"],
        [_record_row(r) for r in records],
        title=f"{ledger.path} ({len(records)} record(s), schema "
        f"{max(r.schema for r in records)})",
    ))
    return 0


def cmd_compare(args) -> int:
    import json

    from repro.obs import compare_records, format_regression_report

    ledger = _read_ledger(args)
    if ledger is None:
        return 1
    try:
        a = ledger.find(args.run_a)
        b = ledger.find(args.run_b)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()] if args.metrics else None
    report = compare_records(a, b, metrics=metrics, single_sample_rel=args.single_rel)
    if args.json:
        print(json.dumps(dict(
            report.to_dict(),
            run_a=a.to_dict(),
            run_b=b.to_dict(),
        ), indent=2))
        return 0
    for label, record in (("A", a), ("B", b)):
        rev = record.git_rev[:9] if record.git_rev else "?"
        print(f"{label}: {record.run_id} [{record.kind}/{record.name}] "
              f"seed={record.seed} rev={rev} wall={record.wall_s}")
    print()
    print(format_regression_report(report, verbose=True))
    return 0


def cmd_regress(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import RunLedger, detect_regressions, format_regression_report

    ledger = _read_ledger(args)
    if ledger is None:
        return 1
    records = ledger.records()
    if args.kind:
        records = [r for r in records if r.kind == args.kind]

    baseline_path = Path(args.baseline)
    if baseline_path.exists():
        baseline = RunLedger(baseline_path).records()
        if args.kind:
            baseline = [r for r in baseline if r.kind == args.kind]
        base_ids = {r.run_id for r in baseline}
        candidate = [r for r in records if r.run_id not in base_ids]
    else:
        # A git rev or run-id prefix *inside* the working ledger.
        def matches(r) -> bool:
            return (r.git_rev or "").startswith(args.baseline) or r.run_id.startswith(
                args.baseline
            )

        baseline = [r for r in records if matches(r)]
        candidate = [r for r in records if not matches(r)]
    if args.candidate:
        candidate = [
            r
            for r in candidate
            if (r.git_rev or "").startswith(args.candidate)
            or r.run_id.startswith(args.candidate)
        ]
    if not baseline:
        print(f"baseline {args.baseline!r}: no records — nothing to gate "
              "(first run against this baseline?)")
        return 0
    if not candidate:
        print("no candidate records to gate", file=sys.stderr)
        return 1

    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()] if args.metrics else None
    report = detect_regressions(
        baseline,
        candidate,
        metrics=metrics,
        last=args.last,
        noise_floor=args.noise_floor,
        single_sample_rel=args.single_rel,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        revs = sorted({(r.git_rev or "?")[:9] for r in baseline})
        print(f"baseline: {len(baseline)} record(s) at rev(s) {', '.join(revs)}")
        print(f"candidate: {len(candidate)} record(s)")
        print()
        print(format_regression_report(report, verbose=args.verbose))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemmini-repro",
        description="Gemmini reproduction: generate and evaluate DNN accelerators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="emit the params header")
    _add_config_args(p_generate)
    p_generate.set_defaults(func=cmd_generate)

    p_models = sub.add_parser("models", help="list the model zoo")
    p_models.set_defaults(func=cmd_models)

    p_run = sub.add_parser("run", help="run a model on a full SoC")
    p_run.add_argument("model", choices=model_names())
    _add_config_args(p_run)
    _add_model_size_args(p_run)
    p_run.add_argument("--cpu", choices=("rocket", "boom"), default="rocket")
    p_run.add_argument(
        "--baseline", action="store_true", help="also compute the CPU-only baseline"
    )
    p_run.add_argument("--seed", type=int, default=0, help="reproducibility seed (echoed)")
    _add_run_args(p_run, profile=True)
    p_run.set_defaults(func=cmd_run)

    p_tune = sub.add_parser(
        "tune",
        help="auto-tune matmul schedules into the persistent schedule cache",
    )
    p_tune.add_argument(
        "models",
        nargs="+",
        choices=tuple(model_names()) + ("all",),
        help="zoo models whose dispatch shapes to tune ('all' for the whole zoo)",
    )
    _add_config_args(p_tune)
    _add_model_size_args(p_tune)
    p_tune.add_argument(
        "--verify-top",
        type=int,
        default=4,
        help="cycle-accurately verify this many top analytic candidates "
        "(the greedy plan is always verified too, so tuned is never worse)",
    )
    p_tune.add_argument(
        "--force", action="store_true", help="re-tune shapes already in the cache"
    )
    _add_run_args(p_tune, metrics=False)
    p_tune.set_defaults(func=cmd_tune)

    p_area = sub.add_parser("area", help="area breakdown (Figure 6 style)")
    _add_config_args(p_area)
    p_area.add_argument("--cpu", choices=("rocket", "boom", "none"), default="rocket")
    p_area.set_defaults(func=cmd_area)

    p_table1 = sub.add_parser("table1", help="print the Table I matrix")
    p_table1.set_defaults(func=cmd_table1)

    p_spec = sub.add_parser(
        "soc-spec", help="validate and pretty-print a component SoC design JSON"
    )
    p_spec.add_argument("file", nargs="?", default=None, help="design JSON file")
    p_spec.add_argument(
        "--example",
        action="store_true",
        help="print a runnable big/little starter design instead of reading a file",
    )
    p_spec.add_argument(
        "--emit",
        action="store_true",
        help="also echo the validated design back as canonical JSON",
    )
    p_spec.set_defaults(func=cmd_soc_spec, parser=p_spec)

    p_dse = sub.add_parser("dse", help="search the design space (Pareto optimisation)")
    p_dse.add_argument(
        "--strategy",
        choices=("grid", "random", "evolutionary", "annealing"),
        default="evolutionary",
        help="search strategy",
    )
    p_dse.add_argument("--budget", type=int, default=50, help="max design points to evaluate")
    p_dse.add_argument("--seed", type=int, default=0, help="search RNG seed")
    p_dse.add_argument(
        "--workload",
        choices=("conv",) + tuple(model_names()),
        default="conv",
        help="matmul suite to score designs on (conv = one ResNet50 conv layer)",
    )
    _add_model_size_args(p_dse)
    p_dse.add_argument(
        "--objectives",
        default="latency_ms,area_mm2,power_mw",
        help="comma-separated objectives (see repro.dse.OBJECTIVES)",
    )
    p_dse.add_argument(
        "--constraint",
        action="append",
        default=[],
        metavar="METRIC<=VALUE",
        help="feasibility bound, e.g. area_mm2<=2 or fmax_ghz>=1 (repeatable)",
    )
    p_dse.add_argument("--max-dim", type=int, default=32, help="largest PE-grid edge in the space")
    p_dse.add_argument(
        "--mix",
        action="append",
        default=[],
        metavar="PRESET",
        help="search heterogeneous tile fleets over these presets "
        "(big | medium | little; repeatable) instead of single-accelerator "
        "geometry — points become whole SoC designs",
    )
    p_dse.add_argument(
        "--mix-max-tiles", type=int, default=4, help="--mix: most tiles in a fleet"
    )
    p_dse.add_argument(
        "--fidelity",
        choices=("analytic", "soc"),
        default="analytic",
        help="cost model: closed-form array model or full SoC simulation",
    )
    p_dse.add_argument("--workers", type=int, default=None, help="parallel evaluator processes")
    p_dse.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p_dse.add_argument("--export-json", default=None, help="write trace + front JSON here")
    p_dse.add_argument("--export-csv", default=None, help="write per-point CSV here")
    p_dse.add_argument(
        "--traffic",
        action="append",
        default=[],
        metavar="TENANT",
        help="serving tenant spec for the serving objectives, e.g. "
        "model=squeezenet,qps=100,requests=8,slo_ms=20 (repeatable)",
    )
    p_dse.add_argument(
        "--serve-tiles", type=int, default=1, help="SoC tiles in the serving cluster"
    )
    p_dse.add_argument(
        "--serve-scheduler",
        choices=("fcfs", "priority", "sjf", "rr", "batch"),
        default="fcfs",
        help="dispatch policy used when scoring serving objectives",
    )
    p_dse.add_argument(
        "--serve-batch-size", type=int, default=4, help="batch scheduler: batch size"
    )
    p_dse.add_argument(
        "--serve-batch-window-ms",
        type=float,
        default=1.0,
        help="batch scheduler: max hold time (wall-clock ms at each design's clock)",
    )
    _add_run_args(p_dse)
    p_dse.set_defaults(func=cmd_dse)

    p_serve = sub.add_parser(
        "serve", help="multi-tenant serving simulation with SLO metrics"
    )
    _add_config_args(p_serve)
    p_serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="SPEC",
        help="key=value tenant spec, e.g. model=resnet50,qps=40,requests=16,"
        "arrival=poisson,priority=1,slo_ms=50,input_hw=224 (repeatable); "
        "arrival kinds: poisson | bursty | closed (trace replay via --trace FILE)",
    )
    p_serve.add_argument("--trace", default=None, help="JSON request trace to replay")
    p_serve.add_argument(
        "--design",
        default=None,
        metavar="FILE",
        help="serve on this component-based SoC design JSON (see soc-spec "
        "--example) instead of the homogeneous --dim/--sp-kb/... flags",
    )
    p_serve.add_argument("--tiles", type=int, default=1, help="SoC tiles in the cluster")
    p_serve.add_argument(
        "--scheduler",
        choices=("fcfs", "priority", "sjf", "rr", "batch"),
        default="fcfs",
        help="dispatch policy",
    )
    p_serve.add_argument("--seed", type=int, default=0, help="traffic RNG seed")
    p_serve.add_argument(
        "--horizon-ms", type=float, default=None, help="stop issuing work at this time"
    )
    p_serve.add_argument(
        "--horizon-hours",
        type=float,
        default=None,
        help="long-horizon mode: stop issuing at this simulated wall-clock "
        "time; implies --record-mode stream (O(in-flight) memory)",
    )
    p_serve.add_argument(
        "--record-mode",
        choices=("exact", "stream"),
        default=None,
        help="per-request record retention: exact histograms + full request "
        "log (default) or streaming P2 latency sketches with no record list "
        "(default under --horizon-hours)",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a resumable checkpoint at the first quiescent point "
        "after every N completions",
    )
    p_serve.add_argument(
        "--checkpoint-path",
        default=None,
        metavar="FILE",
        help="checkpoint file (default serve.ckpt, or the --resume path)",
    )
    p_serve.add_argument(
        "--resume",
        default=None,
        metavar="FILE",
        help="load a checkpointed serving run and continue it to completion "
        "(the profile, design and tracer/metrics are in the checkpoint, so "
        "--tenant/--trace/--design/--no-replay/--record-mode/--horizon-* are rejected)",
    )
    p_serve.add_argument("--batch-size", type=int, default=4, help="batch scheduler: batch size")
    p_serve.add_argument(
        "--batch-window-ms", type=float, default=1.0, help="batch scheduler: max hold time"
    )
    p_serve.add_argument("--export-json", default=None, help="write the SLO report JSON here")
    p_serve.add_argument("--export-csv", default=None, help="write per-request CSV here")
    p_serve.add_argument(
        "--no-replay",
        action="store_true",
        help="force every request down the per-macro-op recording path "
        "(skip the trace record/replay fast path)",
    )
    _add_run_args(p_serve, profile=True, live=True)
    p_serve.set_defaults(func=cmd_serve)

    p_trace = sub.add_parser(
        "trace",
        help="validate, summarise or diff exported --trace-out timelines",
    )
    p_trace.add_argument(
        "files", nargs="+", metavar="FILE",
        help="Chrome Trace Event JSON written by --trace-out (two files with --diff)",
    )
    p_trace.add_argument(
        "--top", type=int, default=10, help="span families to show in the top table"
    )
    p_trace.add_argument(
        "--diff", action="store_true",
        help="diff two traces: per-stem span deltas and per-lane busy/queue deltas",
    )
    p_trace.add_argument(
        "--json", action="store_true",
        help="machine-readable output: validator verdict + summary (or diff)",
    )
    p_trace.set_defaults(func=cmd_trace, parser=p_trace)

    p_history = sub.add_parser(
        "history", help="list provenance-stamped run records from the ledger"
    )
    p_history.add_argument(
        "show", nargs="?", default=None, metavar="RUN_ID",
        help="show one record (unique run-id prefix) as full JSON",
    )
    p_history.add_argument(
        "--kind", default=None, help="filter: run | serve | dse | tune | bench | runner"
    )
    p_history.add_argument("--name", default=None, help="filter by record name")
    p_history.add_argument("--limit", type=int, default=20, help="most recent N records")
    p_history.add_argument("--json", action="store_true", help="emit records as JSON")
    _add_ledger_args(p_history)
    p_history.set_defaults(func=cmd_history)

    p_compare = sub.add_parser(
        "compare", help="metric deltas + significance between two ledger records"
    )
    p_compare.add_argument("run_a", metavar="RUN_A", help="baseline run-id prefix")
    p_compare.add_argument("run_b", metavar="RUN_B", help="candidate run-id prefix")
    p_compare.add_argument(
        "--metrics", default=None, help="comma-separated metric subset to compare"
    )
    p_compare.add_argument(
        "--single-rel", type=float, default=0.5,
        help="single-sample fallback: flag |relative change| above this",
    )
    p_compare.add_argument("--json", action="store_true", help="emit the report as JSON")
    _add_ledger_args(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_regress = sub.add_parser(
        "regress",
        help="statistical perf gate: exit 1 on significant regression vs a baseline",
    )
    p_regress.add_argument(
        "--baseline", required=True, metavar="REF",
        help="baseline ledger file, or a git-rev / run-id prefix within the ledger",
    )
    p_regress.add_argument(
        "--candidate", default=None, metavar="REF",
        help="restrict candidate records to this git-rev / run-id prefix",
    )
    p_regress.add_argument("--kind", default=None, help="gate only records of this kind")
    p_regress.add_argument(
        "--metrics", default=None, help="comma-separated metric subset to gate"
    )
    p_regress.add_argument(
        "--last", type=int, default=5, help="records per (kind, name) group per side"
    )
    p_regress.add_argument(
        "--noise-floor", type=float, default=0.05,
        help="ignore |relative change| below this even when the CI excludes 0",
    )
    p_regress.add_argument(
        "--single-rel", type=float, default=0.5,
        help="single-sample fallback: flag |relative change| above this",
    )
    p_regress.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_regress.add_argument("--verbose", action="store_true", help="print every delta row")
    _add_ledger_args(p_regress)
    p_regress.set_defaults(func=cmd_regress)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not getattr(args, "run_context", False):
        return args.func(args)
    with _RunContext(args) as run:
        return args.func(args, run)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
