"""Experiment runners reproducing every figure of the paper's evaluation.

Each runner builds the exact configuration the paper describes, executes it
on the simulator stack, and returns a result object holding measured values
alongside the paper's published reference points.  ``benchmarks/`` exposes
one pytest-benchmark per runner, which writes the comparison to
``benchmark_results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import (
    GemminiConfig,
    default_config,
    edge_config,
    systolic_config,
    vector_config,
)
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import MemorySystemConfig
from repro.mem.tlb import TLBConfig
from repro.models.zoo import build_model, model_size_kwargs
from repro.physical.area import AreaBreakdown, accelerator_area
from repro.physical.power import spatial_array_power_mw
from repro.physical.timing import max_frequency_ghz
from repro.sim.engine import EventLoop
from repro.soc.cpu import BOOM, ROCKET
from repro.soc.components import SoCDesign
from repro.soc.soc import SoC, make_soc
from repro.core.generator import SoftwareParams
from repro.sw.compiler import CompiledModel, compile_graph
from repro.sw.cpu_reference import cpu_graph_cycles
from repro.sw.runtime import Runtime, RunResult


# ===================================================================== #
# Figure 3: systolic vs vector spatial arrays                            #
# ===================================================================== #


@dataclass
class Fig3Row:
    name: str
    tile_shape: str
    frequency_ghz: float
    area_kum2: float
    power_mw: float


@dataclass
class Fig3Result:
    rows: list[Fig3Row]
    paper_systolic = (1.89, 120.0)  # GHz, kum^2
    paper_vector = (0.69, 67.0)
    paper_freq_ratio = 2.7
    paper_area_ratio = 1.8
    paper_power_ratio = 3.0

    def row(self, name: str) -> Fig3Row:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    @property
    def freq_ratio(self) -> float:
        return self.row("systolic").frequency_ghz / self.row("vector").frequency_ghz

    @property
    def area_ratio(self) -> float:
        return self.row("systolic").area_kum2 / self.row("vector").area_kum2

    @property
    def power_ratio(self) -> float:
        return self.row("systolic").power_mw / self.row("vector").power_mw


def run_fig3(dim: int = 16, include_intermediate: bool = True) -> Fig3Result:
    """Synthesise the two Figure 3 extremes (plus in-between points)."""
    points: list[tuple[str, GemminiConfig]] = [
        ("systolic", systolic_config(dim)),
        ("vector", vector_config(dim)),
    ]
    if include_intermediate:
        tile = 2
        while tile < dim:
            cfg = GemminiConfig(
                mesh_rows=dim // tile, mesh_cols=dim // tile,
                tile_rows=tile, tile_cols=tile,
            )
            points.append((f"tile{tile}x{tile}", cfg))
            tile *= 2
    rows = []
    for name, cfg in points:
        from repro.physical.area import spatial_array_area

        rows.append(
            Fig3Row(
                name=name,
                tile_shape=f"{cfg.tile_rows}x{cfg.tile_cols}",
                frequency_ghz=max_frequency_ghz(cfg),
                area_kum2=spatial_array_area(cfg) / 1000.0,
                power_mw=spatial_array_power_mw(cfg, frequency_ghz=0.5),
            )
        )
    return Fig3Result(rows=rows)


# ===================================================================== #
# Figure 4: TLB miss-rate trace over a ResNet50 inference                #
# ===================================================================== #


@dataclass
class Fig4Result:
    trace: list[tuple[float, float]]
    peak_miss_rate: float
    mean_miss_rate: float
    total_requests: int
    total_cycles: float
    paper_peak_range = (0.20, 0.35)  # "occasionally climbs to 20-30%"


def run_fig4(
    input_hw: int = 224,
    private_entries: int = 16,
    window: int = 2048,
) -> Fig4Result:
    """Profile the private TLB over one full ResNet50 inference."""
    cfg = default_config().with_im2col(True).with_tlb(
        TLBConfig(
            private_entries=private_entries,
            shared_entries=0,
            miss_rate_window=window,
        )
    )
    soc = make_soc(gemmini=cfg)
    model = _compile_for(soc, "resnet50", input_hw=input_hw)
    result = Runtime(soc.tile, model).run()
    # A fresh SoC ran only this model, so the TLB's totals are the run's.
    xlat = soc.tile.accel.xlat
    series = xlat.miss_window.series
    xlat.miss_window.flush(series.times[-1] if series.times else 0.0)
    values = series.values
    return Fig4Result(
        trace=list(zip(series.times, values)),
        peak_miss_rate=max(values) if values else 0.0,
        mean_miss_rate=sum(values) / len(values) if values else 0.0,
        total_requests=xlat.stats.value("requests"),
        total_cycles=result.total_cycles,
    )


# ===================================================================== #
# Figure 6: area breakdown                                               #
# ===================================================================== #


@dataclass
class Fig6Result:
    breakdown: AreaBreakdown
    paper_rows = {
        "spatial_array": (116_000.0, 11.3),
        "scratchpad": (544_000.0, 52.9),
        "accumulator": (146_000.0, 14.2),
        "cpu": (171_000.0, 16.6),
    }
    paper_total = 1_029_000.0


def run_fig6(config: GemminiConfig | None = None) -> Fig6Result:
    return Fig6Result(breakdown=accelerator_area(config or default_config(), cpu="rocket"))


# ===================================================================== #
# Figure 7: speedup over the CPU baselines, five DNNs                    #
# ===================================================================== #


@dataclass
class Fig7Row:
    model: str
    rocket_baseline_cycles: float
    boom_baseline_cycles: float
    accel_im2col_cycles: float = 0.0
    accel_cpu_im2col_rocket_cycles: float = 0.0
    accel_cpu_im2col_boom_cycles: float = 0.0

    @property
    def speedup_im2col(self) -> float:
        return self.rocket_baseline_cycles / self.accel_im2col_cycles

    @property
    def speedup_cpu_im2col_rocket(self) -> float:
        if not self.accel_cpu_im2col_rocket_cycles:
            return 0.0
        return self.rocket_baseline_cycles / self.accel_cpu_im2col_rocket_cycles

    @property
    def speedup_cpu_im2col_boom(self) -> float:
        if not self.accel_cpu_im2col_boom_cycles:
            return 0.0
        return self.rocket_baseline_cycles / self.accel_cpu_im2col_boom_cycles

    @property
    def boom_host_gain(self) -> float:
        """BOOM-host over Rocket-host speedup when the CPU does im2col."""
        if not self.accel_cpu_im2col_boom_cycles:
            return 0.0
        return self.accel_cpu_im2col_rocket_cycles / self.accel_cpu_im2col_boom_cycles

    def fps(self, clock_ghz: float = 1.0) -> float:
        return clock_ghz * 1e9 / self.accel_im2col_cycles


@dataclass
class Fig7Result:
    rows: list[Fig7Row]
    #: paper anchors: speedup over Rocket with the im2col unit, and FPS
    paper_speedups = {
        "resnet50": 2670.0,
        "squeezenet": 1760.0,
        "mobilenetv2": 127.0,
        "bert": 144.0,
    }
    paper_fps = {"resnet50": 22.8, "alexnet": 79.3, "mobilenetv2": 18.7}
    paper_boom_host_gain = 2.0

    def row(self, model: str) -> Fig7Row:
        for row in self.rows:
            if row.model == model:
                return row
        raise KeyError(model)


CNN_MODELS = ("resnet50", "alexnet", "squeezenet", "mobilenetv2")
ALL_MODELS = CNN_MODELS + ("bert",)


def run_fig7(
    models: tuple[str, ...] = ALL_MODELS,
    input_hw: int = 224,
    seq: int = 128,
    host_sweep: bool = True,
) -> Fig7Result:
    """Measure accelerator speedups against the in-order CPU baseline."""
    rows = []
    for name in models:
        graph = build_model(name, **model_size_kwargs(name, input_hw, seq))
        row = Fig7Row(
            model=name,
            rocket_baseline_cycles=cpu_graph_cycles(graph, ROCKET),
            boom_baseline_cycles=cpu_graph_cycles(graph, BOOM),
        )
        row.accel_im2col_cycles = _run_once(
            name, graph, default_config().with_im2col(True), cpu="rocket"
        ).total_cycles
        if host_sweep and name in CNN_MODELS:
            row.accel_cpu_im2col_rocket_cycles = _run_once(
                name, graph, default_config(), cpu="rocket"
            ).total_cycles
            row.accel_cpu_im2col_boom_cycles = _run_once(
                name, graph, default_config(), cpu="boom"
            ).total_cycles
        rows.append(row)
    return Fig7Result(rows=rows)


# ===================================================================== #
# Figure 8: TLB sizing sweep, with and without filter registers          #
# ===================================================================== #


@dataclass
class Fig8Point:
    private_entries: int
    shared_entries: int
    filter_registers: bool
    total_cycles: float
    private_hit_rate: float
    hit_rate_including_filters: float
    consecutive_same_read: float
    consecutive_same_write: float
    normalized_performance: float = 0.0


@dataclass
class Fig8Result:
    points: list[Fig8Point]
    paper_private_4_to_16_gain = 0.11   # up to 11% (Fig 8a)
    paper_shared_tlb_max_gain = 0.08    # never more than 8%
    paper_filtered_4_entry_gap = 0.02   # within 2% of max (Fig 8b)
    paper_min_private_hit_rate = 0.84
    paper_filtered_hit_rate = 0.90
    paper_consecutive_read = 0.87
    paper_consecutive_write = 0.83

    def point(self, private: int, shared: int, filters: bool) -> Fig8Point:
        for p in self.points:
            if (
                p.private_entries == private
                and p.shared_entries == shared
                and p.filter_registers == filters
            ):
                return p
        raise KeyError((private, shared, filters))

    def best_cycles(self) -> float:
        return min(p.total_cycles for p in self.points)


def run_fig8(
    private_sizes: tuple[int, ...] = (4, 8, 16, 32),
    shared_sizes: tuple[int, ...] = (0, 128, 512),
    filters: tuple[bool, ...] = (False, True),
    input_hw: int = 224,
    model: str = "resnet50",
) -> Fig8Result:
    """Sweep TLB sizes for the low-power edge configuration (Section V-A)."""
    points = []
    for use_filters in filters:
        for private in private_sizes:
            for shared in shared_sizes:
                cfg = edge_config(
                    private_tlb_entries=private,
                    shared_tlb_entries=shared,
                    filter_registers=use_filters,
                ).with_im2col(True)
                soc = make_soc(gemmini=cfg)
                compiled = _compile_for(soc, model, input_hw=input_hw)
                result = Runtime(soc.tile, compiled).run()
                xlat = soc.tile.accel.xlat
                points.append(
                    Fig8Point(
                        private_entries=private,
                        shared_entries=shared,
                        filter_registers=use_filters,
                        total_cycles=result.total_cycles,
                        private_hit_rate=1.0 - xlat.private_miss_rate(),
                        hit_rate_including_filters=xlat.hit_rate_including_filters(),
                        consecutive_same_read=xlat.consecutive_same_page_fraction(False),
                        consecutive_same_write=xlat.consecutive_same_page_fraction(True),
                    )
                )
    best = min(p.total_cycles for p in points)
    for p in points:
        p.normalized_performance = best / p.total_cycles
    return Fig8Result(points=points)


# ===================================================================== #
# Figure 9: SoC memory partitioning, single- and dual-core               #
# ===================================================================== #


@dataclass
class Fig9Run:
    config_name: str
    cores: int
    total_cycles: float
    cycles_by_kind: dict[str, float]
    l2_miss_rate: float


@dataclass
class Fig9Result:
    runs: list[Fig9Run]
    paper = {
        # (config, cores) -> {metric: paper value}
        ("BigSP", 1): {"conv_speedup": 1.10, "matmul_speedup": 1.01, "overall_best": True},
        ("BigSP", 2): {"conv_speedup": 1.08, "matmul_speedup": 1.03, "overall_speedup": 1.042},
        ("BigL2", 2): {"resadd_speedup": 1.22, "overall_speedup": 1.080, "miss_rate_drop": 0.071},
    }

    def run(self, config_name: str, cores: int) -> Fig9Run:
        for r in self.runs:
            if r.config_name == config_name and r.cores == cores:
                return r
        raise KeyError((config_name, cores))

    def speedup(self, config_name: str, cores: int, kind: str | None = None) -> float:
        base = self.run("Base", cores)
        other = self.run(config_name, cores)
        if kind is None:
            return base.total_cycles / other.total_cycles
        return base.cycles_by_kind.get(kind, 0.0) / max(1e-9, other.cycles_by_kind.get(kind, 0.0))


FIG9_CONFIGS = {
    # name -> (sp_bytes, acc_bytes, l2_bytes)
    "Base": (256 * 1024, 256 * 1024, 1 << 20),
    "BigSP": (512 * 1024, 512 * 1024, 1 << 20),
    "BigL2": (256 * 1024, 256 * 1024, 2 << 20),
}


def run_fig9(
    input_hw: int = 224,
    core_counts: tuple[int, ...] = (1, 2),
    model: str = "resnet50",
) -> Fig9Result:
    """Run the memory-partitioning case study (Section V-B)."""
    runs = []
    for cores in core_counts:
        for name, (sp_bytes, acc_bytes, l2_bytes) in FIG9_CONFIGS.items():
            gemmini = replace(
                default_config().with_im2col(True),
                sp_capacity_bytes=sp_bytes,
                acc_capacity_bytes=acc_bytes,
            )
            mem = MemorySystemConfig(
                l2=CacheConfig(size_bytes=l2_bytes, ways=8, line_bytes=64)
            )
            soc = SoC(SoCDesign.homogeneous(gemmini=gemmini, mem=mem, num_tiles=cores))
            runtimes = []
            for tile in soc.tiles:
                compiled = _compile_for(soc, model, input_hw=input_hw)
                runtimes.append(Runtime(tile, compiled, sync_per_layer=True))
            loop = EventLoop()
            for rt in runtimes:
                loop.add(rt.run_generator().__next__)
            loop.run()
            results: list[RunResult] = [rt.result for rt in runtimes]
            by_kind: dict[str, float] = {}
            for result in results:
                for kind, cycles in result.cycles_by_kind().items():
                    by_kind[kind] = by_kind.get(kind, 0.0) + cycles / len(results)
            runs.append(
                Fig9Run(
                    config_name=name,
                    cores=cores,
                    total_cycles=max(loop.finished.values()),
                    cycles_by_kind=by_kind,
                    l2_miss_rate=soc.l2_miss_rate(),
                )
            )
    return Fig9Result(runs=runs)


# ===================================================================== #
# Registry + parallel orchestration                                      #
# ===================================================================== #

#: Every figure runner, by the name used in reports, CI and caches.
EXPERIMENTS: dict[str, object] = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
}


def run_figures(
    names: tuple[str, ...] | list[str] | None = None,
    runner: "ExperimentRunner | None" = None,
    fig_kwargs: dict[str, dict] | None = None,
) -> dict[str, object]:
    """Run figure experiments through the parallel runner.

    ``names`` defaults to every registered figure; ``fig_kwargs`` maps a
    figure name to keyword arguments for its runner (e.g. reduced input
    resolution).  A caller-provided ``runner`` is reused (and its cache
    consulted); otherwise a fresh one with default workers is created for
    the call.
    """
    from repro.eval.runner import ExperimentRunner, ExperimentSpec

    chosen = tuple(names) if names is not None else tuple(EXPERIMENTS)
    unknown = [n for n in chosen if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown figure(s) {unknown}; known: {sorted(EXPERIMENTS)}")
    kwargs = fig_kwargs or {}
    # A typo'd fig_kwargs key would otherwise silently drop its overrides
    # and run a long simulation at the defaults.  Keys for registered but
    # unselected figures are allowed (shared kwargs dict, subset run).
    bad_kwargs = [k for k in kwargs if k not in EXPERIMENTS]
    if bad_kwargs:
        raise KeyError(
            f"fig_kwargs for unknown figure(s) {bad_kwargs}; known: {sorted(EXPERIMENTS)}"
        )
    specs = [
        ExperimentSpec.make(EXPERIMENTS[n], label=n, **kwargs.get(n, {})) for n in chosen
    ]
    owns_runner = runner is None
    active = runner if runner is not None else ExperimentRunner()
    hits0, misses0 = active.hits, active.misses
    try:
        results = active.run_specs(specs)
    finally:
        if owns_runner:
            active.close()
    if active.cache is not None:
        from repro.eval.runner import RunnerStats

        print(f"run_figures {RunnerStats(active.hits - hits0, active.misses - misses0)}")
    return dict(zip(chosen, results))


# ===================================================================== #
# Shared helpers                                                         #
# ===================================================================== #


def _compile_for(soc: SoC, model: str, input_hw: int = 224, seq: int = 128) -> CompiledModel:
    graph = build_model(model, **model_size_kwargs(model, input_hw, seq))
    return compile_graph(graph, SoftwareParams.from_config(soc.tile.accel.config))


def _run_once(name: str, graph, gemmini: GemminiConfig, cpu: str) -> RunResult:
    soc = make_soc(gemmini=gemmini, cpu=cpu)
    compiled = compile_graph(graph, SoftwareParams.from_config(gemmini))
    return Runtime(soc.tile, compiled).run()
