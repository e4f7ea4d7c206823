"""Trace summarisation: what a recorded run actually spent its time on.

Consumes an exported Chrome-trace document (the ``--trace-out`` artifact)
and reduces it to the questions a performance investigation starts with:

* **top spans** by total time (spans never nest, so a span's duration
  is all its own and the totals of one lane add up to its busy time),
* **queue vs service split per lane** — request spans carry their
  ``queue_ms`` in args, so each tile's track splits into time requests
  spent waiting versus executing,
* **cache effectiveness** — the runner's hit/miss counter series.

Span names aggregate by their stem: ``teamA[17]`` folds into ``teamA``,
``dse[dim=16]`` into ``dse``, so per-instance labels stay readable in
Perfetto while the summary stays per-kind.  Backs the ``gemmini-repro
trace`` subcommand.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SpanStats",
    "LaneStats",
    "TraceSummary",
    "summarize_trace",
    "load_trace",
    "format_trace_summary",
]

_INSTANCE_SUFFIX = re.compile(r"\[[^\]]*\]$")


def _stem(name: str) -> str:
    return _INSTANCE_SUFFIX.sub("", name)


@dataclass
class SpanStats:
    """Aggregate over every span sharing one name stem."""

    name: str
    count: int = 0
    total_us: float = 0.0
    max_us: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


@dataclass
class LaneStats:
    """Aggregate over one (process, lane) track."""

    process: str
    lane: str
    spans: int = 0
    busy_us: float = 0.0  # summed span time booked on this lane
    queue_us: float = 0.0  # summed queue_ms args of this lane's spans
    first_us: float = float("inf")
    last_us: float = 0.0

    @property
    def span_us(self) -> float:
        return max(0.0, self.last_us - self.first_us)

    @property
    def utilization(self) -> float:
        span = self.span_us
        return self.busy_us / span if span > 0 else 0.0


@dataclass
class TraceSummary:
    """Everything ``gemmini-repro trace`` prints, as plain data."""

    run_id: str | None
    seed: int | None
    events: int
    span_count: int
    spans: dict[str, SpanStats] = field(default_factory=dict)
    lanes: dict[tuple[str, str], LaneStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)  # final values
    instants: dict[str, int] = field(default_factory=dict)  # count per stem

    def top_by_total(self, n: int = 10) -> list[SpanStats]:
        return sorted(self.spans.values(), key=lambda s: -s.total_us)[:n]

    def to_dict(self) -> dict:
        """Machine-readable form (``gemmini-repro trace --json``)."""
        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "events": self.events,
            "span_count": self.span_count,
            "cache_hit_ratio": self.cache_hit_ratio(),
            "schedule_hit_ratio": self.schedule_hit_ratio(),
            "spans": {
                name: {
                    "count": s.count,
                    "total_us": s.total_us,
                    "mean_us": s.mean_us,
                    "max_us": s.max_us,
                }
                for name, s in self.spans.items()
            },
            "lanes": [
                {
                    "process": stats.process,
                    "lane": stats.lane,
                    "spans": stats.spans,
                    "busy_us": stats.busy_us,
                    "queue_us": stats.queue_us,
                    "utilization": stats.utilization,
                }
                for stats in self.lanes.values()
            ],
            "counters": dict(self.counters),
            "instants": dict(self.instants),
        }

    def cache_hit_ratio(self) -> float | None:
        """hits / (hits + misses) from the runner's counter series, if
        the trace recorded one."""
        hits = self.counters.get("cache_hits")
        misses = self.counters.get("cache_misses")
        if hits is None and misses is None:
            return None
        total = (hits or 0.0) + (misses or 0.0)
        return (hits or 0.0) / total if total else 0.0

    def schedule_hit_ratio(self) -> float | None:
        """hits / (hits + misses) of the schedule-cache dispatch counters
        (``schedule_hits`` / ``schedule_misses``), if the trace has them."""
        hits = self.counters.get("schedule_hits")
        misses = self.counters.get("schedule_misses")
        if hits is None and misses is None:
            return None
        total = (hits or 0.0) + (misses or 0.0)
        return (hits or 0.0) / total if total else 0.0


def summarize_trace(data: dict | list) -> TraceSummary:
    """Reduce one Chrome-trace document to a :class:`TraceSummary`.

    Reads the schema :func:`~repro.obs.export.validate_chrome_trace`
    enforces: spans are complete ``X`` events (``ts`` + ``dur``) that
    never overlap on a lane, so each span's duration counts once toward
    its stem's total and its lane's busy time.
    """
    events = data.get("traceEvents", []) if isinstance(data, dict) else data
    metadata = data.get("metadata", {}) if isinstance(data, dict) else {}
    summary = TraceSummary(
        run_id=metadata.get("run_id"),
        seed=metadata.get("seed"),
        events=len(events),
        span_count=0,
    )

    process_names: dict[int, str] = {}
    lane_names: dict[tuple[int, int], str] = {}
    for event in events:
        if event.get("ph") != "M":
            continue
        if event.get("name") == "process_name":
            process_names[event["pid"]] = event.get("args", {}).get("name", str(event["pid"]))
        elif event.get("name") == "thread_name":
            key = (event["pid"], event["tid"])
            lane_names[key] = event.get("args", {}).get("name", str(event["tid"]))

    def lane_stats(pid: int, tid: int) -> LaneStats:
        process = process_names.get(pid, str(pid))
        lane = lane_names.get((pid, tid), str(tid))
        key = (process, lane)
        stats = summary.lanes.get(key)
        if stats is None:
            stats = summary.lanes[key] = LaneStats(process=process, lane=lane)
        return stats

    for event in events:
        ph = event.get("ph")
        if ph == "X":
            start = float(event["ts"])
            duration = float(event.get("dur", 0.0))
            stem = _stem(event.get("name", "?"))
            stats = summary.spans.get(stem)
            if stats is None:
                stats = summary.spans[stem] = SpanStats(name=stem)
            stats.count += 1
            stats.total_us += duration
            stats.max_us = max(stats.max_us, duration)
            summary.span_count += 1
            lane = lane_stats(event.get("pid"), event.get("tid"))
            lane.spans += 1
            lane.busy_us += duration
            lane.first_us = min(lane.first_us, start)
            lane.last_us = max(lane.last_us, start + duration)
            queue_ms = (event.get("args") or {}).get("queue_ms")
            if isinstance(queue_ms, (int, float)):
                lane.queue_us += queue_ms * 1e3
        elif ph == "i":
            stem = _stem(event.get("name", "?"))
            summary.instants[stem] = summary.instants.get(stem, 0) + 1
        elif ph == "C":
            args = event.get("args") or {}
            for name, value in args.items():
                if isinstance(value, (int, float)):
                    summary.counters[name] = float(value)  # last sample wins
    return summary


def load_trace(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def format_trace_summary(summary: TraceSummary, top: int = 10) -> str:
    """Render the summary as the tables ``gemmini-repro trace`` prints."""
    # Lazy: eval imports sw.runtime, which imports repro.obs — importing the
    # table renderer at module scope would close that cycle.
    from repro.eval.report import format_table

    parts: list[str] = []
    header = f"trace: {summary.events} events, {summary.span_count} spans"
    if summary.run_id:
        header += f", run {summary.run_id}"
    if summary.seed is not None:
        header += f", seed {summary.seed}"
    parts.append(header)

    if summary.spans:
        rows = [
            (
                s.name,
                str(s.count),
                f"{s.total_us / 1e3:.3f}",
                f"{s.mean_us / 1e3:.3f}",
                f"{s.max_us / 1e3:.3f}",
            )
            for s in summary.top_by_total(top)
        ]
        parts.append(format_table(
            ["span", "count", "total ms", "mean ms", "max ms"],
            rows,
            title=f"top {min(top, len(summary.spans))} spans by total time",
        ))

    if summary.lanes:
        rows = []
        for (process, lane), stats in sorted(summary.lanes.items()):
            service_ms = stats.busy_us / 1e3
            queue_ms = stats.queue_us / 1e3
            total = service_ms + queue_ms
            rows.append((
                process,
                lane,
                str(stats.spans),
                f"{queue_ms:.3f}",
                f"{service_ms:.3f}",
                f"{100 * queue_ms / total:.1f}%" if total > 0 else "-",
                f"{stats.utilization:.1%}",
            ))
        parts.append(format_table(
            ["process", "lane", "spans", "queue ms", "service ms", "queue share", "util"],
            rows,
            title="queue vs service per lane",
        ))

    ratio = summary.cache_hit_ratio()
    if ratio is not None:
        hits = int(summary.counters.get("cache_hits", 0))
        misses = int(summary.counters.get("cache_misses", 0))
        parts.append(f"runner cache: {hits} hits / {misses} misses ({ratio:.0%} hit ratio)")
    sched_ratio = summary.schedule_hit_ratio()
    if sched_ratio is not None:
        hits = int(summary.counters.get("schedule_hits", 0))
        misses = int(summary.counters.get("schedule_misses", 0))
        parts.append(
            f"schedule cache: {hits} hits / {misses} misses "
            f"({sched_ratio:.0%} hit ratio)"
        )
    if summary.instants:
        shown = ", ".join(
            f"{name} x{count}" for name, count in sorted(summary.instants.items())
        )
        parts.append(f"instants: {shown}")
    return "\n\n".join(parts)
