"""SLO metrics: tail latency, goodput, fairness, violation rates.

Reports are built *online*: the cluster engine folds each retired
:class:`~repro.serve.request.RequestRecord` into a
:class:`ReportAccumulator` the moment the request completes, so the
latency digests exist mid-flight and never require the full record list.
Two digest modes share one report shape:

* **exact** (default) — each tenant's latencies land in a
  :class:`~repro.sim.stats.Histogram`; percentiles are exact.  This is
  the mode tests and parity gates compare bitwise.
* **stream** — latencies feed :class:`~repro.obs.metrics.LatencySketch`,
  a fixed-size digest of P² quantile estimators, so hour-long horizons
  with millions of requests hold O(tenants) metric state at a few-percent
  tail accuracy.

Rates are reported in wall-clock units (ms, QPS) using the accelerator's
reference clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import LatencySketch
from repro.serve.request import RequestRecord
from repro.serve.workload import TenantSpec
from repro.sim.stats import Histogram

__all__ = [
    "LatencySketch",
    "ReportAccumulator",
    "TenantMetrics",
    "ServeReport",
    "jain_fairness",
    "build_report",
]


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index over per-tenant allocations: 1 is perfectly
    fair, 1/n is maximally unfair.  Empty/zero allocations score 1.0."""
    if not values or all(v == 0 for v in values):
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares) if squares else 1.0


@dataclass
class TenantMetrics:
    """SLO metrics for one tenant (or the cluster-wide aggregate)."""

    tenant: str
    completed: int
    dropped: int  # issued but unserved at the horizon
    latency: Histogram | LatencySketch = field(repr=False)
    clock_ghz: float = 1.0
    span_cycles: float = 0.0  # simulated span rates are computed over
    slo_ms: float | None = None
    slo_met: int = 0
    queue_cycles_total: float = 0.0
    service_cycles_total: float = 0.0

    def _ms(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e6)

    @property
    def mean_ms(self) -> float:
        return self._ms(self.latency.mean)

    @property
    def p50_ms(self) -> float:
        return self._ms(self.latency.percentile(0.50))

    @property
    def p95_ms(self) -> float:
        return self._ms(self.latency.percentile(0.95))

    @property
    def p99_ms(self) -> float:
        return self._ms(self.latency.percentile(0.99))

    @property
    def max_ms(self) -> float:
        return self._ms(self.latency.max)

    @property
    def queue_mean_ms(self) -> float:
        return self._ms(self.queue_cycles_total / self.completed) if self.completed else 0.0

    @property
    def service_mean_ms(self) -> float:
        return self._ms(self.service_cycles_total / self.completed) if self.completed else 0.0

    @property
    def span_seconds(self) -> float:
        return self.span_cycles / (self.clock_ghz * 1e9)

    @property
    def throughput_qps(self) -> float:
        """Completed requests per simulated second."""
        return self.completed / self.span_seconds if self.span_cycles > 0 else 0.0

    @property
    def goodput_qps(self) -> float:
        """SLO-met requests per simulated second."""
        return self.slo_met / self.span_seconds if self.span_cycles > 0 else 0.0

    @property
    def slo_violation_rate(self) -> float:
        """Fraction of issued requests that missed the SLO or were dropped."""
        issued = self.completed + self.dropped
        if issued == 0:
            return 0.0
        return (issued - self.slo_met) / issued

    def summary(self) -> dict[str, float]:
        return {
            "completed": self.completed,
            "dropped": self.dropped,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
            "queue_mean_ms": self.queue_mean_ms,
            "service_mean_ms": self.service_mean_ms,
            "throughput_qps": self.throughput_qps,
            "goodput_qps": self.goodput_qps,
            "slo_violation_rate": self.slo_violation_rate,
        }


@dataclass
class ServeReport:
    """Cluster-wide SLO report: one entry per tenant plus the aggregate."""

    tenants: list[TenantMetrics]
    overall: TenantMetrics
    fairness: float  # Jain's index over per-tenant throughput
    makespan_cycles: float
    clock_ghz: float

    @property
    def makespan_ms(self) -> float:
        return self.makespan_cycles / (self.clock_ghz * 1e6)

    def tenant(self, name: str) -> TenantMetrics:
        for metrics in self.tenants:
            if metrics.tenant == name:
                return metrics
        raise KeyError(name)


class _TenantAccumulator:
    """Running SLO state of one tenant (or the cluster-wide aggregate)."""

    __slots__ = ("digest", "completed", "slo_met", "queue_total", "service_total")

    def __init__(self, name: str, exact: bool) -> None:
        cls = Histogram if exact else LatencySketch
        self.digest = cls(f"{name}.latency")
        self.completed = 0
        self.slo_met = 0
        self.queue_total = 0.0
        self.service_total = 0.0

    def observe(self, record: RequestRecord) -> None:
        self.digest.record(int(round(record.latency_cycles)))
        self.completed += 1
        if record.slo_met:
            self.slo_met += 1
        self.queue_total += record.queue_cycles
        self.service_total += record.service_cycles


class ReportAccumulator:
    """Builds a :class:`ServeReport` from retired records, one at a time.

    The event-driven cluster engine folds each completion in as it
    happens, so report state is O(tenants) and available mid-flight —
    there is no "wait for the merge to finish, then aggregate the record
    list" step.  ``exact=True`` (the default, and what :func:`build_report`
    uses) keeps exact histograms; ``exact=False`` swaps in
    :class:`~repro.obs.metrics.LatencySketch` digests for long-horizon runs that retire
    records without keeping them.
    """

    def __init__(
        self, tenants: tuple[TenantSpec, ...], clock_ghz: float, exact: bool = True
    ) -> None:
        self.tenants = tenants
        self.clock_ghz = clock_ghz
        self.exact = exact
        self._per_tenant = {t.name: _TenantAccumulator(t.name, exact) for t in tenants}
        self._overall = _TenantAccumulator("overall", exact)

    def observe(self, record: RequestRecord) -> None:
        """Fold one retired request into its tenant and the aggregate.

        The overall digest is fed directly rather than merged from the
        per-tenant ones at the end: exact histograms merge commutatively
        so the result is identical, and P² estimators cannot merge at all.
        """
        self._per_tenant[record.tenant].observe(record)
        self._overall.observe(record)

    def build(
        self, makespan_cycles: float, dropped: dict[str, int] | None = None
    ) -> ServeReport:
        """Freeze the running state into the SLO report."""
        dropped = dropped or {}

        def metrics(name: str, acc: _TenantAccumulator, slo_ms, drop) -> TenantMetrics:
            return TenantMetrics(
                tenant=name,
                completed=acc.completed,
                dropped=drop,
                latency=acc.digest,
                clock_ghz=self.clock_ghz,
                span_cycles=makespan_cycles,
                slo_ms=slo_ms,
                slo_met=acc.slo_met,
                queue_cycles_total=acc.queue_total,
                service_cycles_total=acc.service_total,
            )

        per_tenant = [
            metrics(t.name, self._per_tenant[t.name], t.slo_ms, dropped.get(t.name, 0))
            for t in self.tenants
        ]
        overall = metrics("overall", self._overall, None, sum(dropped.values()))
        return ServeReport(
            tenants=per_tenant,
            overall=overall,
            fairness=jain_fairness([m.throughput_qps for m in per_tenant]),
            makespan_cycles=makespan_cycles,
            clock_ghz=self.clock_ghz,
        )


def build_report(
    records: list[RequestRecord],
    tenants: tuple[TenantSpec, ...],
    clock_ghz: float,
    makespan_cycles: float,
    dropped: dict[str, int] | None = None,
) -> ServeReport:
    """Aggregate completion records into the SLO report (exact digests)."""
    accumulator = ReportAccumulator(tenants, clock_ghz, exact=True)
    for record in records:
        accumulator.observe(record)
    return accumulator.build(makespan_cycles, dropped)
