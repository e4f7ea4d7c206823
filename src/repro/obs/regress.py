"""Statistical regression detection over ledgered performance history.

Replaces hand-tuned per-bench thresholds with one paired comparison per
metric: ledger records (:mod:`repro.obs.ledger`) are grouped by
``(kind, name)``, each shared numeric metric becomes a baseline sample
set and a candidate sample set, and a metric *regresses* only when the
change is simultaneously

* **directionally worse** — every metric name resolves to a direction
  (latency/cycles/wall lower-is-better, goodput/hit-ratio higher-is-
  better; unrecognised metrics are reported but never gate),
* **statistically significant** — with >= 2 samples per side, the
  bootstrap confidence interval of the relative change of means excludes
  zero; with single samples (a fresh CI baseline) a conservative
  relative-change fallback applies instead, and
* **larger than the noise floor** — point estimates are best-of-N
  (min for lower-is-better metrics, max for higher), the standard
  benchmarking statistic for wall-clock noise.

``gemmini-repro regress --baseline REF`` renders the report and exits
nonzero when any metric regresses; ``compare RUN_A RUN_B`` reuses the
same machinery on two individual records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.ledger import RunRecord

__all__ = [
    "MetricDelta",
    "RegressionReport",
    "metric_direction",
    "bootstrap_rel_change_ci",
    "compare_samples",
    "compare_records",
    "detect_regressions",
    "format_regression_report",
]

#: substring -> direction; first match wins, so more specific fragments
#: (``violation`` before ``rate``) come first.  ``lower`` = smaller is
#: better, ``higher`` = larger is better.
_DIRECTION_RULES: tuple[tuple[str, str], ...] = (
    ("violation", "lower"),
    ("miss", "lower"),
    ("drop", "lower"),
    ("latency", "lower"),
    ("queue", "lower"),
    ("wall", "lower"),
    ("cycles", "lower"),
    ("makespan", "lower"),
    ("energy", "lower"),
    ("_ms", "lower"),
    ("p50", "lower"),
    ("p95", "lower"),
    ("p99", "lower"),
    ("goodput", "higher"),
    ("throughput", "higher"),
    ("qps", "higher"),
    ("fps", "higher"),
    ("speedup", "higher"),
    ("hit_rate", "higher"),
    ("hit_ratio", "higher"),
    ("fairness", "higher"),
    ("hypervolume", "higher"),
    ("replayed", "higher"),
)


def metric_direction(name: str) -> str | None:
    """``"lower"``/``"higher"`` when the metric has a better-direction,
    ``None`` for purely informational metrics (counts, sizes, seeds)."""
    lowered = name.lower()
    for fragment, direction in _DIRECTION_RULES:
        if fragment in lowered:
            return direction
    return None


def bootstrap_rel_change_ci(
    baseline: Sequence[float],
    candidate: Sequence[float],
    *,
    n_boot: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap CI of ``(mean(candidate) - mean(baseline)) / mean(baseline)``.

    Resamples both sides independently (the two sample sets come from
    different ledger entries, not paired observations).  Deterministic for
    a given seed, so CI reruns agree.
    """
    import numpy as np

    base = np.asarray(baseline, dtype=float)
    cand = np.asarray(candidate, dtype=float)
    if base.size == 0 or cand.size == 0:
        raise ValueError("bootstrap needs at least one sample per side")
    rng = np.random.default_rng(seed)
    base_means = base[rng.integers(0, base.size, size=(n_boot, base.size))].mean(axis=1)
    cand_means = cand[rng.integers(0, cand.size, size=(n_boot, cand.size))].mean(axis=1)
    denom = np.where(np.abs(base_means) > 1e-12, np.abs(base_means), 1e-12)
    rel = (cand_means - base_means) / denom
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(rel, [alpha, 1.0 - alpha])
    return float(low), float(high)


@dataclass
class MetricDelta:
    """Comparison of one metric between a baseline and a candidate group."""

    metric: str
    direction: str | None
    key: tuple[str, str] | None = None  # (kind, name) group, when grouped
    n_baseline: int = 0
    n_candidate: int = 0
    baseline: float = 0.0  # best-of-N point estimate
    candidate: float = 0.0
    rel_change: float = 0.0  # (candidate - baseline) / |baseline|
    ci_low: float | None = None  # bootstrap CI of the rel change of means
    ci_high: float | None = None
    significant: bool = False
    regressed: bool = False
    improved: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "key": list(self.key) if self.key else None,
            "direction": self.direction,
            "n_baseline": self.n_baseline,
            "n_candidate": self.n_candidate,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "rel_change": self.rel_change,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "significant": self.significant,
            "regressed": self.regressed,
            "improved": self.improved,
            "note": self.note,
        }


def compare_samples(
    metric: str,
    baseline: Sequence[float],
    candidate: Sequence[float],
    *,
    direction: str | None = None,
    key: tuple[str, str] | None = None,
    noise_floor: float = 0.05,
    single_sample_rel: float = 0.5,
    n_boot: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> MetricDelta:
    """Compare two sample sets of one metric.

    ``noise_floor`` is the minimum relative change that can ever count as
    significant (shields deterministic metrics whose bootstrap CI is a
    point); ``single_sample_rel`` is the fallback threshold when either
    side has only one sample and no interval can be estimated — a
    deliberately conservative default, because one CI wall-time sample
    proves very little.
    """
    baseline = [float(x) for x in baseline]
    candidate = [float(x) for x in candidate]
    if not baseline or not candidate:
        raise ValueError(f"metric {metric!r}: empty sample set")
    if direction is None:
        direction = metric_direction(metric)
    best = min if direction != "higher" else max
    base_pt, cand_pt = best(baseline), best(candidate)
    denom = abs(base_pt) if abs(base_pt) > 1e-12 else 1e-12
    rel = (cand_pt - base_pt) / denom

    delta = MetricDelta(
        metric=metric,
        direction=direction,
        key=key,
        n_baseline=len(baseline),
        n_candidate=len(candidate),
        baseline=base_pt,
        candidate=cand_pt,
        rel_change=rel,
    )
    if len(baseline) >= 2 and len(candidate) >= 2:
        low, high = bootstrap_rel_change_ci(
            baseline, candidate, n_boot=n_boot, confidence=confidence, seed=seed
        )
        delta.ci_low, delta.ci_high = low, high
        interval_excludes_zero = low > 0.0 or high < 0.0
        delta.significant = interval_excludes_zero and abs(rel) > noise_floor
        delta.note = f"bootstrap {confidence:.0%} CI [{low:+.1%}, {high:+.1%}]"
    else:
        delta.significant = abs(rel) > single_sample_rel
        delta.note = (
            f"single-sample fallback (threshold {single_sample_rel:.0%})"
            if min(len(baseline), len(candidate)) < 2
            else ""
        )
    if delta.significant and direction is not None:
        worse = rel > 0 if direction == "lower" else rel < 0
        delta.regressed = worse
        delta.improved = not worse
    return delta


@dataclass
class RegressionReport:
    """Every per-metric comparison plus the gate verdict."""

    deltas: list[MetricDelta] = field(default_factory=list)
    keys_compared: list[tuple[str, str]] = field(default_factory=list)
    keys_baseline_only: list[tuple[str, str]] = field(default_factory=list)
    keys_candidate_only: list[tuple[str, str]] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "deltas": [d.to_dict() for d in self.deltas],
            "keys_compared": [list(k) for k in self.keys_compared],
            "keys_baseline_only": [list(k) for k in self.keys_baseline_only],
            "keys_candidate_only": [list(k) for k in self.keys_candidate_only],
        }


def _group(records: Iterable[RunRecord]) -> dict[tuple[str, str], list[RunRecord]]:
    grouped: dict[tuple[str, str], list[RunRecord]] = {}
    for record in records:
        grouped.setdefault((record.kind, record.name), []).append(record)
    return grouped


def detect_regressions(
    baseline: Iterable[RunRecord],
    candidate: Iterable[RunRecord],
    *,
    metrics: Sequence[str] | None = None,
    last: int = 5,
    noise_floor: float = 0.05,
    single_sample_rel: float = 0.5,
    include_wall: bool = True,
    seed: int = 0,
) -> RegressionReport:
    """Gate candidate records against baseline records, per (kind, name).

    For every group key present on both sides, each numeric metric the two
    groups share is compared over the newest ``last`` samples per side.
    ``metrics`` restricts the comparison to the named metrics;
    ``include_wall`` folds each record's ``wall_s`` in as a metric (the
    thing CI bench history mostly gates on).  Keys present on only one
    side never gate — a new benchmark must not fail its first run.
    """
    base_groups = _group(baseline)
    cand_groups = _group(candidate)
    report = RegressionReport(
        keys_baseline_only=sorted(set(base_groups) - set(cand_groups)),
        keys_candidate_only=sorted(set(cand_groups) - set(base_groups)),
    )
    wanted = set(metrics) if metrics else None
    for key in sorted(set(base_groups) & set(cand_groups)):
        report.keys_compared.append(key)
        base_records = base_groups[key][-last:]
        cand_records = cand_groups[key][-last:]

        def samples(records: list[RunRecord], metric: str) -> list[float]:
            if metric == "wall_s":
                return [r.wall_s for r in records if r.wall_s is not None]
            return [r.metrics[metric] for r in records if metric in r.metrics]

        names: set[str] = set()
        for record in base_records + cand_records:
            names.update(record.metrics)
        if include_wall:
            names.add("wall_s")
        for metric in sorted(names):
            if wanted is not None and metric not in wanted:
                continue
            base_samples = samples(base_records, metric)
            cand_samples = samples(cand_records, metric)
            if not base_samples or not cand_samples:
                continue
            report.deltas.append(
                compare_samples(
                    metric,
                    base_samples,
                    cand_samples,
                    key=key,
                    noise_floor=noise_floor,
                    single_sample_rel=single_sample_rel,
                    seed=seed,
                )
            )
    return report


def compare_records(
    a: RunRecord,
    b: RunRecord,
    *,
    metrics: Sequence[str] | None = None,
    single_sample_rel: float = 0.5,
) -> RegressionReport:
    """Two-record comparison backing ``gemmini-repro compare A B``.

    Single samples per side, so significance uses the conservative
    fallback threshold only — honest about what two runs can prove.
    """
    report = RegressionReport(keys_compared=[(a.kind, a.name)])
    wanted = set(metrics) if metrics else None
    names = sorted(set(a.metrics) & set(b.metrics))
    if a.wall_s is not None and b.wall_s is not None:
        names.append("wall_s")
    for metric in names:
        if wanted is not None and metric not in wanted:
            continue
        xa = a.wall_s if metric == "wall_s" else a.metrics[metric]
        xb = b.wall_s if metric == "wall_s" else b.metrics[metric]
        report.deltas.append(
            compare_samples(
                metric, [xa], [xb],
                key=(a.kind, a.name),
                single_sample_rel=single_sample_rel,
            )
        )
    return report


def format_regression_report(report: RegressionReport, *, verbose: bool = False) -> str:
    """Human-readable report (``regress``/``compare`` stdout)."""
    # Lazy: eval imports sw.runtime, which imports repro.obs (cycle guard,
    # same as repro.obs.summary).
    from repro.eval.report import format_table

    parts: list[str] = []
    shown = [d for d in report.deltas if verbose or d.significant]
    if shown:
        rows = []
        for d in sorted(shown, key=lambda d: (not d.regressed, -abs(d.rel_change))):
            verdict = "REGRESSED" if d.regressed else ("improved" if d.improved else
                                                       ("significant" if d.significant else "-"))
            rows.append((
                "/".join(d.key) if d.key else "-",
                d.metric,
                f"{d.baseline:.6g}",
                f"{d.candidate:.6g}",
                f"{d.rel_change:+.1%}",
                f"{d.n_baseline}v{d.n_candidate}",
                verdict,
            ))
        parts.append(format_table(
            ["group", "metric", "baseline", "candidate", "change", "n", "verdict"],
            rows,
        ))
    if report.regressions:
        names = ", ".join(
            f"{'/'.join(d.key) if d.key else '?'}:{d.metric} ({d.rel_change:+.1%})"
            for d in report.regressions
        )
        parts.append(f"REGRESSION: {names}")
    else:
        compared = sum(1 for __ in report.deltas)
        parts.append(
            f"no significant regression ({compared} metric comparison(s) across "
            f"{len(report.keys_compared)} group(s), "
            f"{len(report.improvements)} improvement(s))"
        )
    if report.keys_candidate_only:
        keys = ", ".join("/".join(k) for k in report.keys_candidate_only[:8])
        parts.append(f"new (ungated) groups: {keys}")
    return "\n\n".join(parts)
