"""Multi-objective cost evaluation of design points.

The one evaluator, :func:`evaluate_design_batch`, combines the repo's
calibrated models into one typed :class:`Evaluation` per point.  Each
point becomes a validated :class:`~repro.core.config.GemminiConfig`, and a
batch of them becomes one :class:`~repro.dse.batch.ConfigColumns`: cycles
come from :func:`analytic_cycles` (the blocked-matmul cost
:func:`~repro.core.spatial_array.matmul_cycles`, or a full SoC run at
``fidelity="soc"``), achievable clock from :mod:`repro.physical.timing`,
area from :mod:`repro.physical.area`, power from
:mod:`repro.physical.power` and energy from :mod:`repro.physical.energy`,
each evaluated once over the whole batch.

Everything here is a frozen dataclass or a module-level function so an
evaluation can be shipped to a worker process and content-hashed into the
:class:`~repro.eval.runner.ExperimentRunner` result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace

import numpy as np

from repro.core.config import GemminiConfig
from repro.core.generator import SoftwareParams
from repro.core.spatial_array import matmul_cycles
from repro.dse.batch import ConfigColumns
from repro.dse.space import COMPONENTS_KEY, TILE_PRESETS, point_key, point_to_config
from repro.physical.area import accelerator_area
from repro.physical.energy import estimate_energy
from repro.physical.power import power_mw
from repro.physical.timing import max_frequency_ghz

__all__ = [
    "Objective",
    "OBJECTIVES",
    "SERVING_METRICS",
    "parse_objectives",
    "Workload",
    "conv_workload",
    "model_workload",
    "EvaluationSpec",
    "Evaluation",
    "analytic_cycles",
    "evaluate_design",
    "evaluate_design_batch",
]


# ---------------------------------------------------------------------- #
# Objectives                                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Objective:
    """One optimisation target: a metric name plus its direction."""

    name: str
    direction: str  # "min" | "max"
    unit: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError(f"objective {self.name!r}: direction must be min or max")

    def ascending(self, value: float) -> float:
        """Map to minimisation coordinates (lower is always better)."""
        return value if self.direction == "min" else -value


#: Every metric the evaluator produces, with its optimisation direction.
OBJECTIVES: dict[str, Objective] = {
    o.name: o
    for o in (
        Objective("cycles", "min", "cycles"),
        Objective("latency_ms", "min", "ms"),
        Objective("area_mm2", "min", "mm^2"),
        Objective("power_mw", "min", "mW"),
        Objective("energy_mj", "min", "mJ"),
        Objective("fmax_ghz", "max", "GHz"),
        Objective("throughput_gmacs", "max", "GMAC/s"),
        Objective("edp", "min", "mJ*ms"),
        # Serving objectives: scored by running the design under a traffic
        # profile (spec.traffic) through repro.serve's cluster engine.
        Objective("p99_latency_ms", "min", "ms"),
        Objective("goodput_qps", "max", "QPS"),
        Objective("qps_per_watt", "max", "QPS/W"),
        Objective("slo_violation_rate", "min", ""),
    )
}

#: Metrics that only exist when the spec carries a traffic profile.
SERVING_METRICS: tuple[str, ...] = (
    "p99_latency_ms",
    "goodput_qps",
    "qps_per_watt",
    "slo_violation_rate",
)


def parse_objectives(names: str | list[str] | tuple[str, ...]) -> tuple[Objective, ...]:
    """Resolve a comma-separated string (or sequence) of objective names."""
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    unknown = [n for n in names if n not in OBJECTIVES]
    if unknown:
        raise ValueError(f"unknown objective(s) {unknown}; known: {sorted(OBJECTIVES)}")
    if len(names) < 2:
        raise ValueError("multi-objective search needs at least two objectives")
    return tuple(OBJECTIVES[n] for n in names)


# ---------------------------------------------------------------------- #
# Workloads                                                               #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Workload:
    """A suite of matmuls the design is scored on.

    ``shapes[i]`` is an ``(M, K, N)`` matmul the array runs ``counts[i]``
    times (a depthwise layer is one per-channel shape run once per channel);
    ``model``/kwargs are retained so ``fidelity="soc"`` evaluations can
    rebuild and run the full network on a simulated SoC.
    """

    name: str
    shapes: tuple[tuple[int, int, int], ...]
    counts: tuple[int, ...]
    model: str | None = None
    model_kwargs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError(f"workload {self.name!r} has no matmul shapes")
        for m, k, n in self.shapes:
            if min(m, k, n) < 1:
                raise ValueError(f"workload {self.name!r}: bad shape {(m, k, n)}")
        if len(self.counts) != len(self.shapes) or min(self.counts) < 1:
            raise ValueError(f"workload {self.name!r}: needs one count >= 1 per shape")

    @property
    def total_macs(self) -> int:
        return sum(c * m * k * n for (m, k, n), c in zip(self.shapes, self.counts))

    @property
    def operand_bytes(self) -> int:
        """Bytes of A, B and C each matmul touches once (int8 operands/outputs)."""
        return sum(c * (m * k + k * n + m * n) for (m, k, n), c in zip(self.shapes, self.counts))


def conv_workload() -> Workload:
    """ResNet50 stage-1 3x3 convolution as an im2col matmul (the historic
    design_space_exploration.py example shape)."""
    return Workload(name="conv3x3", shapes=((3136, 576, 64),), counts=(1,))


def model_workload(name: str, input_hw: int = 224, seq: int = 128) -> Workload:
    """Every matmul-able layer of a zoo model, in plan order, as the
    compiler lowers it to the array
    (:attr:`~repro.sw.compiler.LayerPlan.array_matmul`): conv is
    ``(H_out*W_out, k*k*C_in, C_out)`` once, Gemm/MatMul map directly, and
    a depthwise convolution is ``(H_out*W_out, k*k, 1)`` once per channel.
    """
    from repro.models.zoo import build_model, model_size_kwargs
    from repro.sw.compiler import compile_graph

    kwargs = model_size_kwargs(name, input_hw, seq)
    # The array lowering reads no accelerator parameter.
    params = SoftwareParams.from_config(GemminiConfig())
    plans = compile_graph(build_model(name, **kwargs), params).plans
    shapes, counts = zip(*filter(None, (plan.array_matmul for plan in plans)))
    return Workload(
        name=name,
        shapes=shapes,
        counts=counts,
        model=name,
        model_kwargs=tuple(sorted(kwargs.items())),
    )


# ---------------------------------------------------------------------- #
# Evaluation                                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EvaluationSpec:
    """Everything needed to score a point, in picklable/hashable form."""

    workload: Workload = field(default_factory=conv_workload)
    objectives: tuple[str, ...] = ("latency_ms", "area_mm2", "power_mw")
    fidelity: str = "analytic"  # "analytic" | "soc"
    cpu: str = "none"  # host CPU included in the area account
    #: a :class:`repro.serve.TrafficProfile` — when set, the design is also
    #: run under this traffic and the SERVING_METRICS become available
    traffic: "object | None" = None

    def __post_init__(self) -> None:
        if self.fidelity not in ("analytic", "soc"):
            raise ValueError(f"fidelity must be 'analytic' or 'soc', got {self.fidelity!r}")
        parse_objectives(self.objectives)
        if self.fidelity == "soc" and self.workload.model is None:
            raise ValueError(
                f"workload {self.workload.name!r} carries no model; "
                "soc fidelity needs a zoo model workload"
            )
        serving = [n for n in self.objectives if n in SERVING_METRICS]
        if serving and self.traffic is None:
            raise ValueError(
                f"objectives {serving} are serving metrics; the spec needs a "
                "traffic profile (EvaluationSpec(traffic=TrafficProfile(...)))"
            )
        if self.traffic is not None and not hasattr(self.traffic, "tenants"):
            raise ValueError(
                f"traffic must be a repro.serve.TrafficProfile, got {type(self.traffic)}"
            )

    @property
    def objective_set(self) -> tuple[Objective, ...]:
        return parse_objectives(self.objectives)


@dataclass(frozen=True)
class Evaluation:
    """The scored result of one design point."""

    point: tuple[tuple[str, object], ...]  # sorted (axis, value) pairs
    config_summary: str
    metrics: tuple[tuple[str, float], ...]  # sorted (metric, value) pairs

    @property
    def point_dict(self) -> dict:
        return dict(self.point)

    @property
    def metric_dict(self) -> dict[str, float]:
        return dict(self.metrics)

    def metric(self, name: str) -> float:
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(f"evaluation has no metric {name!r}; has {[k for k, __ in self.metrics]}")

    def vector(self, objectives: tuple[Objective, ...]) -> tuple[float, ...]:
        """Objective values in minimisation coordinates (for domination)."""
        return tuple(o.ascending(self.metric(o.name)) for o in objectives)


def _soc_cycles_and_energy(config: GemminiConfig, spec: EvaluationSpec) -> tuple[float, float]:
    """Full-SoC run: measured cycles and energy for the workload's model."""
    from repro.core.generator import SoftwareParams
    from repro.models.zoo import build_model
    from repro.physical.energy import estimate_run_energy
    from repro.soc.soc import make_soc
    from repro.sw.compiler import compile_graph
    from repro.sw.runtime import Runtime

    graph = build_model(spec.workload.model, **dict(spec.workload.model_kwargs))
    soc = make_soc(gemmini=config)
    result = Runtime(soc.tile, compile_graph(graph, SoftwareParams.from_config(config))).run()
    return float(result.total_cycles), estimate_run_energy(soc, result).total_mj


def _serving_metrics(spec: EvaluationSpec, power: float, design) -> dict:
    """Run ``design`` under the spec's traffic profile (serve fidelity).

    The design's tiles are clocked at its achievable frequency, so a slower
    (larger/denser) design sees proportionally more arrival cycles between
    requests — tail latency and goodput trade off against area and power
    exactly the way the serving objectives need.

    Serving evaluations ride the macro-op trace record/replay fast path:
    after the first executions of each ``(tile, model)`` pair the remaining
    requests replay a recorded stream, which is what makes per-design-point
    traffic simulation affordable inside a search loop (``gemmini-repro dse
    --traffic ...``).
    """
    from repro.serve.cluster import simulate_serving

    result = simulate_serving(spec.traffic, design=design, replay=True)
    overall = result.report.overall
    watts = power / 1e3
    return {
        "p99_latency_ms": overall.p99_ms,
        "goodput_qps": overall.goodput_qps,
        "qps_per_watt": overall.goodput_qps / watts if watts > 0 else 0.0,
        "slo_violation_rate": overall.slo_violation_rate,
    }


def analytic_cycles(cols: ConfigColumns, workload: Workload) -> np.ndarray:
    """Closed-form cycles of ``workload`` on every design of ``cols``, one
    float64 per design: the sum over its shapes of ``count`` times the
    blocked-matmul cost (a BOTH-dataflow array runs WS), which is what the
    kernels charge for the same lowering.  The cycle model of DSE's
    analytic fidelity and of the SJF oracle
    (:func:`~repro.serve.cluster.estimate_service_cycles`)."""
    shapes = np.asarray(workload.shapes, dtype=np.int64)
    m, k, n = shapes.T[:, :, None]
    counts = np.asarray(workload.counts, dtype=np.int64)[:, None]
    # (shapes, designs) costs; every term is integral, so the sum is exact
    return (counts * matmul_cycles(cols, m, k, n)).sum(axis=0)


def _analytic_metrics(workload, cycles, fmax, area_um2, power, energy_mj) -> dict:
    """The 8 analytic metrics as per-design columns, keyed in sorted-name order."""
    seconds = cycles / (fmax * 1e9)
    latency_ms = seconds * 1e3
    return {
        "area_mm2": area_um2 / 1e6,
        "cycles": cycles,
        "edp": energy_mj * latency_ms,
        "energy_mj": energy_mj,
        "fmax_ghz": fmax,
        "latency_ms": latency_ms,
        "power_mw": power,
        "throughput_gmacs": workload.total_macs / seconds / 1e9,
    }


def evaluate_design(point: dict, spec: EvaluationSpec) -> Evaluation:
    """Score one point: ``evaluate_design_batch([point], spec)[0]``.

    Module-level so :class:`~repro.eval.runner.ExperimentRunner` can ship
    SoC and serving evaluations to worker processes one point at a time
    and cache results under a stable key.
    """
    return evaluate_design_batch([point], spec)[0]


# ---------------------------------------------------------------------- #
# Structural (component-mix) evaluation                                    #
# ---------------------------------------------------------------------- #


def _structural_rows(point: dict) -> "list[tuple[str, int, dict]]":
    """Split a structural point into per-tile-class sub-rows.

    Each mix entry becomes one plain (``point_to_config``-able) row: the
    preset's geometry overlaid by the point's shared axes — the same
    overlay :func:`~repro.dse.space.point_to_design` applies when
    materialising the fleet.
    """
    rest = {k: v for k, v in point.items() if k != COMPONENTS_KEY}
    return [
        (preset, count, {**TILE_PRESETS[preset], **rest})
        for preset, count in point[COMPONENTS_KEY]
    ]


def _component_spec(spec: EvaluationSpec) -> EvaluationSpec:
    """The per-tile-class sub-spec: the same workload without the traffic
    profile (serving is scored at fleet level, not per component)."""
    if spec.traffic is None:
        return spec
    return EvaluationSpec(workload=spec.workload, fidelity=spec.fidelity, cpu=spec.cpu)


def _aggregate_fleet(
    point: dict, parts: "list[tuple[str, int, Evaluation]]", spec: EvaluationSpec
) -> Evaluation:
    """Combine per-tile-class evaluations into one fleet evaluation.

    The model: one shared clock domain at the slowest component's fmax;
    the workload's latency is the fastest component's (a single inference
    runs on one tile); area and power sum over the fleet (power linearly
    re-clocked to the shared frequency); throughput assumes every tile
    streams the workload concurrently.  Under a traffic profile the whole
    fleet serves it at the shared clock and every request is free to land
    on any tile, so SJF's per-tile cost oracle — not a single global hint —
    decides big vs little placement.
    """
    fmax = min(evaluation.metric("fmax_ghz") for __, __, evaluation in parts)
    # stable min: ties resolve to the first (mix-order) component
    best = min(parts, key=lambda part: part[2].metric("cycles"))
    cycles = best[2].metric("cycles")
    seconds = cycles / (fmax * 1e9)
    latency_ms = seconds * 1e3
    area_mm2 = sum(count * e.metric("area_mm2") for __, count, e in parts)
    power = sum(
        count * e.metric("power_mw") * (fmax / e.metric("fmax_ghz"))
        for __, count, e in parts
    )
    energy_mj = best[2].metric("energy_mj")
    total_macs = spec.workload.total_macs
    throughput = (
        sum(
            count * total_macs * (fmax * 1e9) / e.metric("cycles")
            for __, count, e in parts
        )
        / 1e9
    )
    metrics = {
        "cycles": cycles,
        "latency_ms": latency_ms,
        "area_mm2": area_mm2,
        "power_mw": power,
        "energy_mj": energy_mj,
        "fmax_ghz": fmax,
        "throughput_gmacs": throughput,
        "edp": energy_mj * latency_ms,
    }
    if spec.traffic is not None:
        from repro.dse.space import point_to_design

        design = point_to_design(point, clock_ghz=fmax)
        metrics.update(_serving_metrics(spec, power, design))
    summary = " + ".join(f"{count}x[{e.config_summary}]" for __, count, e in parts)
    return Evaluation(
        point=tuple(sorted(point.items())),
        config_summary=summary,
        metrics=tuple(sorted(metrics.items())),
    )


# ---------------------------------------------------------------------- #
# The evaluator                                                           #
# ---------------------------------------------------------------------- #


def _evaluate_plain(points: "list[dict]", spec: EvaluationSpec) -> "list[Evaluation]":
    """Score single-accelerator points in one column pass.

    Each point is materialised (and validated) by :func:`point_to_config`;
    fmax, area, power and the analytic cycles and energy are numpy
    expressions over the configs' :class:`~repro.dse.batch.ConfigColumns`.
    Only the full-SoC runs (``fidelity="soc"``) and the serving
    simulations (a traffic profile) loop per point.
    """
    configs = [point_to_config(p) for p in points]
    cols = ConfigColumns.from_configs(configs)
    fmax = max_frequency_ghz(cols)
    area_um2 = accelerator_area(cols, cpu=spec.cpu).total
    dyn_power = power_mw(cols, frequency_ghz=fmax)

    workload = spec.workload
    if spec.fidelity == "soc":
        cycles, energy_mj = np.array([_soc_cycles_and_energy(c, spec) for c in configs]).T
    else:
        cycles = analytic_cycles(cols, workload)
        energy_mj = estimate_energy(
            cols,
            macs=workload.total_macs,
            cycles=cycles,
            dma_bytes=workload.operand_bytes,
            dram_bytes=workload.operand_bytes,
            clock_ghz=fmax,
        ).total_mj

    metrics = _analytic_metrics(workload, cycles, fmax, area_um2, dyn_power, energy_mj)
    names = tuple(metrics)
    # Pulled down to Python floats once per column, not once per point.
    rows = [tuple(zip(names, row)) for row in zip(*(c.tolist() for c in metrics.values()))]
    if spec.traffic is not None:
        from repro.soc.components import SoCDesign

        tiles = spec.traffic.num_tiles
        rows = [
            tuple(sorted({
                **dict(row),
                **_serving_metrics(spec, power, SoCDesign.homogeneous(
                    gemmini=dc_replace(config, clock_ghz=clock), num_tiles=tiles
                )),
            }.items()))
            for row, config, clock, power in zip(
                rows, configs, metrics["fmax_ghz"].tolist(), metrics["power_mw"].tolist()
            )
        ]
    # Assembling ~1e4 frozen dataclasses is a large share of the per-point
    # cost; bypassing the generated __init__ saves its 3
    # object.__setattr__ calls per instance.
    new = object.__new__
    cls = Evaluation
    out: list[Evaluation] = []
    for point, config, row in zip(points, configs, rows):
        evaluation = new(cls)
        evaluation.__dict__.update(
            point=tuple(sorted(point.items())),
            config_summary=config.describe(),
            metrics=row,
        )
        out.append(evaluation)
    return out


def evaluate_design_batch(points: "list[dict]", spec: EvaluationSpec) -> "list[Evaluation]":
    """Score a batch of points: the cost model every strategy optimises
    against, and the one DSE evaluator.

    Plain points are scored together by one column pass (see
    :func:`_evaluate_plain`).  Structural points (the ``components`` axis)
    describe whole heterogeneous fleets: each is split, in index order,
    into per-tile-class sub-rows; the unique sub-rows — one per tile class per
    shared-axis combination, however many fleets reference it — are scored
    in one more column pass under :func:`_component_spec`, and each fleet
    is then aggregated by :func:`_aggregate_fleet`.  A point scores the
    same alone as in any batch.  Module-level and pure-data in/out, so
    batches ship through :class:`~repro.eval.runner.ExperimentRunner`
    workers and cache under content-hash keys.
    """
    points = list(points)
    plain, structural = [], []
    for index, point in enumerate(points):
        (plain if point.get(COMPONENTS_KEY) is None else structural).append(index)
    out: "list[Evaluation]" = [None] * len(points)
    if plain:
        for index, evaluation in zip(plain, _evaluate_plain([points[i] for i in plain], spec)):
            out[index] = evaluation
    if structural:
        sub_rows: dict = {}  # row key -> row dict, insertion-ordered
        per_point: dict = {}  # point index -> [(preset, count, row key), ...]
        for index in structural:
            keyed = []
            for preset, count, row in _structural_rows(points[index]):
                key = point_key(row)
                sub_rows.setdefault(key, row)
                keyed.append((preset, count, key))
            per_point[index] = keyed
        scored = _evaluate_plain(list(sub_rows.values()), _component_spec(spec))
        row_evals = dict(zip(sub_rows, scored))
        for index, keyed in per_point.items():
            parts = [(preset, count, row_evals[key]) for preset, count, key in keyed]
            out[index] = _aggregate_fleet(points[index], parts, spec)
    return out
