"""Trace diffing: where did the time go between two recorded runs.

Aligns two Chrome-trace documents (``--trace-out`` artifacts) by **span
stem** (``request[t0:3]`` folds into ``request``, matching
:mod:`repro.obs.summary`) and by **lane** (``(process, lane)`` track),
then reports per-stem count/total-time deltas and per-lane busy/queue
deltas (spans never nest, so a stem's total is all its own time).  The
complement of ``gemmini-repro regress``: the ledger says *that* p99
moved, the trace diff says *which spans* paid for it.  Backs ``gemmini-repro trace --diff A B``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.summary import TraceSummary, summarize_trace

__all__ = [
    "SpanDelta",
    "LaneDelta",
    "TraceDiff",
    "diff_traces",
    "diff_summaries",
    "format_trace_diff",
    "trace_diff_to_dict",
]


@dataclass
class SpanDelta:
    """One span stem across both traces (zeros where a side lacks it)."""

    stem: str
    count_a: int = 0
    count_b: int = 0
    total_us_a: float = 0.0
    total_us_b: float = 0.0

    @property
    def count_delta(self) -> int:
        return self.count_b - self.count_a

    @property
    def total_delta_us(self) -> float:
        return self.total_us_b - self.total_us_a

    @property
    def rel_total(self) -> float:
        """Relative total-time change; +inf-free (new stems read as +1)."""
        if self.total_us_a <= 0.0:
            return 1.0 if self.total_us_b > 0.0 else 0.0
        return (self.total_us_b - self.total_us_a) / self.total_us_a

    def to_dict(self) -> dict:
        return {
            "stem": self.stem,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "count_delta": self.count_delta,
            "total_us_a": self.total_us_a,
            "total_us_b": self.total_us_b,
            "total_delta_us": self.total_delta_us,
            "rel_total": self.rel_total,
        }


@dataclass
class LaneDelta:
    """One (process, lane) track across both traces."""

    process: str
    lane: str
    spans_a: int = 0
    spans_b: int = 0
    busy_us_a: float = 0.0
    busy_us_b: float = 0.0
    queue_us_a: float = 0.0
    queue_us_b: float = 0.0

    @property
    def busy_delta_us(self) -> float:
        return self.busy_us_b - self.busy_us_a

    @property
    def queue_delta_us(self) -> float:
        return self.queue_us_b - self.queue_us_a

    def to_dict(self) -> dict:
        return {
            "process": self.process,
            "lane": self.lane,
            "spans_a": self.spans_a,
            "spans_b": self.spans_b,
            "busy_us_a": self.busy_us_a,
            "busy_us_b": self.busy_us_b,
            "busy_delta_us": self.busy_delta_us,
            "queue_us_a": self.queue_us_a,
            "queue_us_b": self.queue_us_b,
            "queue_delta_us": self.queue_delta_us,
        }


@dataclass
class TraceDiff:
    """Everything ``trace --diff`` reports, as plain data."""

    run_a: str | None
    run_b: str | None
    spans: list[SpanDelta] = field(default_factory=list)
    lanes: list[LaneDelta] = field(default_factory=list)
    only_a: list[str] = field(default_factory=list)  # stems missing from B
    only_b: list[str] = field(default_factory=list)  # stems new in B

    def top_by_total_delta(self, n: int = 10) -> list[SpanDelta]:
        return sorted(self.spans, key=lambda d: -abs(d.total_delta_us))[:n]


def diff_summaries(a: TraceSummary, b: TraceSummary) -> TraceDiff:
    """Align two already-computed summaries stem-by-stem and lane-by-lane."""
    diff = TraceDiff(run_a=a.run_id, run_b=b.run_id)
    for stem in sorted(set(a.spans) | set(b.spans)):
        sa, sb = a.spans.get(stem), b.spans.get(stem)
        diff.spans.append(SpanDelta(
            stem=stem,
            count_a=sa.count if sa else 0,
            count_b=sb.count if sb else 0,
            total_us_a=sa.total_us if sa else 0.0,
            total_us_b=sb.total_us if sb else 0.0,
        ))
        if sa is None:
            diff.only_b.append(stem)
        elif sb is None:
            diff.only_a.append(stem)
    for key in sorted(set(a.lanes) | set(b.lanes)):
        la, lb = a.lanes.get(key), b.lanes.get(key)
        diff.lanes.append(LaneDelta(
            process=key[0],
            lane=key[1],
            spans_a=la.spans if la else 0,
            spans_b=lb.spans if lb else 0,
            busy_us_a=la.busy_us if la else 0.0,
            busy_us_b=lb.busy_us if lb else 0.0,
            queue_us_a=la.queue_us if la else 0.0,
            queue_us_b=lb.queue_us if lb else 0.0,
        ))
    return diff


def diff_traces(data_a: dict | list, data_b: dict | list) -> TraceDiff:
    """Diff two Chrome-trace documents (A = baseline, B = candidate)."""
    return diff_summaries(summarize_trace(data_a), summarize_trace(data_b))


def trace_diff_to_dict(diff: TraceDiff) -> dict:
    """Machine-readable form (``trace --diff --json``)."""
    return {
        "run_a": diff.run_a,
        "run_b": diff.run_b,
        "spans": [d.to_dict() for d in diff.spans],
        "lanes": [d.to_dict() for d in diff.lanes],
        "only_a": list(diff.only_a),
        "only_b": list(diff.only_b),
    }


def format_trace_diff(diff: TraceDiff, top: int = 10) -> str:
    """Render the diff as the tables ``trace --diff`` prints."""
    from repro.eval.report import format_table  # lazy: import-cycle guard

    parts: list[str] = []
    header = "trace diff"
    if diff.run_a or diff.run_b:
        header += f": {diff.run_a or '?'} -> {diff.run_b or '?'}"
    parts.append(header)

    ranked = diff.top_by_total_delta(top)
    if ranked:
        rows = [
            (
                d.stem,
                f"{d.count_a}->{d.count_b}",
                f"{d.total_us_a / 1e3:.3f}",
                f"{d.total_us_b / 1e3:.3f}",
                f"{d.total_delta_us / 1e3:+.3f}",
                f"{d.rel_total:+.1%}",
            )
            for d in ranked
        ]
        parts.append(format_table(
            ["span", "count", "A total ms", "B total ms", "Δtotal ms", "rel"],
            rows,
            title=f"top {len(ranked)} span stems by |total-time delta|",
        ))

    changed_lanes = [
        d for d in diff.lanes
        if d.busy_delta_us or d.queue_delta_us or d.spans_a != d.spans_b
    ]
    if changed_lanes:
        rows = [
            (
                d.process,
                d.lane,
                f"{d.spans_a}->{d.spans_b}",
                f"{d.busy_delta_us / 1e3:+.3f}",
                f"{d.queue_delta_us / 1e3:+.3f}",
            )
            for d in changed_lanes
        ]
        parts.append(format_table(
            ["process", "lane", "spans", "Δbusy ms", "Δqueue ms"],
            rows,
            title="changed lanes",
        ))

    if diff.only_a:
        parts.append(f"only in A: {', '.join(diff.only_a[:12])}")
    if diff.only_b:
        parts.append(f"only in B: {', '.join(diff.only_b[:12])}")
    if not diff.spans:
        parts.append("no spans in either trace")
    return "\n\n".join(parts)
