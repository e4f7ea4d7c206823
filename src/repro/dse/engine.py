"""The Explorer: budgeted ask/tell search over a parameter space.

The explorer owns the evaluation budget and routes every batch a strategy
proposes through :class:`~repro.eval.runner.ExperimentRunner`, so design
points evaluate in parallel across cores and every result is content-hash
cached on disk — re-running a seeded search is served almost entirely
from cache, and enlarging the budget only pays for the new points.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

from repro.dse.objectives import (
    Evaluation,
    EvaluationSpec,
    evaluate_design,
    evaluate_design_batch,
    parse_objectives,
)
from repro.dse.pareto import (
    MetricBound,
    front_hypervolume,
    reference_point,
    split_front,
)
from repro.dse.space import ParamSpace, point_key, point_label
from repro.dse.strategies import Strategy
from repro.eval.runner import ExperimentRunner

__all__ = [
    "Explorer",
    "ExplorationResult",
    "METRIC_REFERENCE",
    "default_cache_dir",
    "shared_hypervolume",
]


def default_cache_dir() -> str:
    """Where DSE evaluations cache by default: ``$REPRO_CACHE_DIR`` if set
    (the knob the benchmark suite already honours), else ``.repro-cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"


#: Fixed, generous per-metric hypervolume reference bounds (natural units).
#: Using absolute anchors — instead of each run's own nadir — makes
#: hypervolume values deterministic and comparable across strategies,
#: seeds and budgets on the same objective set.  Values sit far outside
#: anything the template can reach (``max`` objectives get a floor of 0).
METRIC_REFERENCE: dict[str, float] = {
    "cycles": 1e10,
    "latency_ms": 1e3,
    "area_mm2": 100.0,
    "power_mw": 1e5,
    "energy_mj": 1e3,
    "fmax_ghz": 0.0,
    "throughput_gmacs": 0.0,
    "edp": 1e6,
    "p99_latency_ms": 1e4,
    "goodput_qps": 0.0,
    "qps_per_watt": 0.0,
    "slo_violation_rate": 1.0,
}


@dataclass
class ExplorationResult:
    """Everything one exploration produced, ready for export/plotting."""

    strategy: str
    seed: int
    budget: int
    spec: EvaluationSpec
    bounds: tuple[MetricBound, ...]
    trace: list[Evaluation]  # every evaluated point, in evaluation order
    front: list[Evaluation]  # feasible, mutually non-dominated
    dominated: list[Evaluation] = field(default_factory=list)
    infeasible: list[Evaluation] = field(default_factory=list)
    hypervolume: float = 0.0
    reference: tuple[float, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def objectives(self):
        return self.spec.objective_set

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _reference_for(spec: EvaluationSpec, trace: list[Evaluation]) -> tuple[float, ...]:
    """Fixed anchors where available, trace nadir for anything exotic."""
    objectives = spec.objective_set
    if all(o.name in METRIC_REFERENCE for o in objectives):
        return tuple(o.ascending(METRIC_REFERENCE[o.name]) for o in objectives)
    return reference_point(trace, objectives)


def shared_hypervolume(results: list[ExplorationResult]) -> list[float]:
    """Hypervolumes of several runs' fronts under one common reference —
    the fair way to compare strategies whose references would differ."""
    if not results:
        return []
    objectives = results[0].objectives
    refs = [r.reference or _reference_for(r.spec, r.trace) for r in results]
    common = tuple(max(ref[d] for ref in refs) for d in range(len(objectives)))
    return [front_hypervolume(r.front, objectives, common) for r in results]


class Explorer:
    """Drive one strategy against one evaluation spec under a budget."""

    def __init__(
        self,
        space: ParamSpace,
        strategy: Strategy,
        spec: EvaluationSpec | None = None,
        budget: int = 50,
        bounds: tuple[MetricBound, ...] | list[MetricBound] = (),
        runner: ExperimentRunner | None = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricStream | None" = None,
    ) -> None:
        from repro.obs.metrics import NULL_METRICS
        from repro.obs.tracer import NULL_TRACER

        if budget < 1:
            raise ValueError("budget must be >= 1")
        if strategy.space is not space:
            raise ValueError("strategy was built for a different space")
        self.space = space
        self.strategy = strategy
        self.spec = spec or EvaluationSpec()
        self.budget = budget
        self.bounds = tuple(bounds)
        self.runner = runner
        #: per-generation span/counter sink and live front-progress stream
        #: (no-op singletons when observability is off)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        unknown = [b.metric for b in self.bounds if b.metric not in _metric_names()]
        if unknown:
            raise ValueError(f"bounds on unknown metric(s) {unknown}")

    def explore(self) -> ExplorationResult:
        """Run ask → parallel cached evaluate → tell until the budget is
        spent or the strategy runs out of proposals."""
        objectives = parse_objectives(self.spec.objectives)
        self.strategy.bind(objectives, self.budget, self.bounds)
        tracer, metrics = self.tracer, self.metrics
        strategy_name = getattr(self.strategy, "name", type(self.strategy).__name__)
        tracer.declare_lane("search", process="dse", label=f"search [{strategy_name}]", sort=0)
        owns_runner = self.runner is None
        # A self-owned runner caches under the default directory so repeated
        # searches are incremental even through the plain Python API; pass a
        # runner explicitly to choose (or disable) the cache.  A self-owned
        # runner shares this explorer's tracer, so per-spec worker spans and
        # cache hit/miss counters land in the same timeline.
        runner = self.runner if self.runner is not None else ExperimentRunner(
            cache=default_cache_dir(), tracer=tracer
        )
        hits0, misses0 = runner.hits, runner.misses
        evaluate = functools.partial(evaluate_design, spec=self.spec)
        # Analytic proposals with no traffic profile go through the
        # vectorised evaluate_design_batch (still per-point content-hash
        # cached); SoC and serving evaluations stay on runner.map so each
        # expensive per-point simulation can fan out across worker processes.
        fast = self.spec.fidelity == "analytic" and self.spec.traffic is None

        trace: list[Evaluation] = []
        seen: dict[tuple, Evaluation] = {}
        generation = 0
        try:
            while len(seen) < self.budget:
                want = max(1, min(self.strategy.batch_size, self.budget - len(seen)))
                gen_start = tracer.now()
                points = self.strategy.ask(want)
                if not points:
                    break  # space (or reachable neighbourhood) exhausted
                new = [p for p in points if point_key(p) not in seen]
                if new:
                    labels = [point_label(p) for p in new]
                    if fast:
                        results = runner.map_batch(
                            evaluate_design_batch, new, label="dse",
                            labels=labels, spec=self.spec,
                        )
                    else:
                        results = runner.map(evaluate, new, label="dse", labels=labels)
                    for point, evaluation in zip(new, results):
                        seen[point_key(point)] = evaluation
                        trace.append(evaluation)
                self.strategy.tell([seen[point_key(p)] for p in points])
                if tracer or metrics:
                    # Front/hypervolume recomputation per generation is the
                    # expensive part of observing a search; only pay for it
                    # when someone is listening.
                    self._observe_generation(
                        generation, gen_start, len(new), trace, objectives, runner
                    )
                generation += 1
        finally:
            if owns_runner:
                runner.close()

        feasible, infeasible = [], []
        for e in trace:  # final (post-budget) partition
            (feasible if all(b.satisfied(e) for b in self.bounds) else infeasible).append(e)
        front, dominated = split_front(feasible, objectives)
        reference = _reference_for(self.spec, trace) if trace else ()
        hv = front_hypervolume(front, objectives, reference) if front else 0.0
        return ExplorationResult(
            strategy=getattr(self.strategy, "name", type(self.strategy).__name__),
            seed=self.strategy.seed,
            budget=self.budget,
            spec=self.spec,
            bounds=self.bounds,
            trace=trace,
            front=front,
            dominated=dominated,
            infeasible=infeasible,
            hypervolume=hv,
            reference=reference,
            cache_hits=runner.hits - hits0,
            cache_misses=runner.misses - misses0,
        )

    def _observe_generation(
        self,
        generation: int,
        start: float,
        evaluated: int,
        trace: list[Evaluation],
        objectives,
        runner: ExperimentRunner,
    ) -> None:
        """One generation's telemetry: a span on the search lane plus
        front-size / hypervolume counter samples and a metrics snapshot.

        Recomputes the running front over the whole trace, so callers only
        invoke this when a tracer or metric stream is actually attached.
        """
        feasible = [e for e in trace if all(b.satisfied(e) for b in self.bounds)]
        front, _ = split_front(feasible, objectives)
        reference = _reference_for(self.spec, trace) if trace else ()
        hv = front_hypervolume(front, objectives, reference) if front else 0.0
        now = self.tracer.now()
        self.tracer.complete(
            "search",
            f"gen[{generation}]",
            start,
            now,
            {
                "evaluated": evaluated,
                "evaluations": len(trace),
                "front_size": len(front),
                "hypervolume": hv,
            },
        )
        self.tracer.counter("search", "front_size", now, len(front))
        self.tracer.counter("search", "hypervolume", now, hv)
        self.tracer.counter("search", "evaluations", now, len(trace))
        metrics = self.metrics
        metrics.observe("gen_ms", (now - start) * 1e3)
        metrics.tick(
            now,
            {
                "generation": generation,
                "evaluations": len(trace),
                "front_size": len(front),
                "hypervolume": hv,
                "cache_hits": runner.hits,
                "cache_misses": runner.misses,
            },
        )


def _metric_names() -> set[str]:
    from repro.dse.objectives import OBJECTIVES

    return set(OBJECTIVES)
