"""SLO metrics: tail latency, goodput, fairness, violation rates.

The cluster engine keeps every retired
:class:`~repro.serve.request.RequestRecord` and :func:`build_report` folds
them once, at the end of the run, into one exact
:class:`~repro.sim.stats.Histogram` of latencies per tenant (and one for
the aggregate), so every percentile is exact.

Rates are reported in wall-clock units (ms, QPS) using the accelerator's
reference clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.request import RequestRecord
from repro.serve.workload import TenantSpec
from repro.sim.stats import Histogram

__all__ = [
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
    latency: Histogram = field(repr=False)
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


def build_report(
    records: list[RequestRecord],
    tenants: tuple[TenantSpec, ...],
    clock_ghz: float,
    makespan_cycles: float,
    dropped: dict[str, int] | None = None,
) -> ServeReport:
    """Aggregate completion records into the SLO report (exact histograms).

    The queue/service sums are float sums, so ``records`` folds in the
    order given; the cluster engine passes them in retirement order.
    """
    dropped = dropped or {}
    by_tenant: dict[str, list[RequestRecord]] = {t.name: [] for t in tenants}
    for record in records:
        by_tenant[record.tenant].append(record)

    def metrics(name: str, rows: list[RequestRecord], slo_ms, drop: int) -> TenantMetrics:
        latency = Histogram(f"{name}.latency")
        queue_total = service_total = 0.0
        for record in rows:
            latency.record(int(round(record.latency_cycles)))
            queue_total += record.queue_cycles
            service_total += record.service_cycles
        return TenantMetrics(
            tenant=name,
            completed=len(rows),
            dropped=drop,
            latency=latency,
            clock_ghz=clock_ghz,
            span_cycles=makespan_cycles,
            slo_ms=slo_ms,
            slo_met=sum(record.slo_met for record in rows),
            queue_cycles_total=queue_total,
            service_cycles_total=service_total,
        )

    per_tenant = [
        metrics(t.name, by_tenant[t.name], t.slo_ms, dropped.get(t.name, 0)) for t in tenants
    ]
    overall = metrics("overall", records, None, sum(dropped.values()))
    return ServeReport(
        tenants=per_tenant,
        overall=overall,
        fairness=jain_fairness([m.throughput_qps for m in per_tenant]),
        makespan_cycles=makespan_cycles,
        clock_ghz=clock_ghz,
    )
