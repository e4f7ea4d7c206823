"""Exporters: Chrome Trace Event Format JSON and flat metrics JSON/CSV.

The trace exporter shapes a :class:`~repro.obs.tracer.Tracer`'s raw events
into the Chrome Trace Event Format (the JSON ``chrome://tracing`` and
Perfetto load directly): every lane becomes one track (``tid``) inside its
process group (``pid``), and each lane's events are written in timestamp
order: every span as one complete ``X`` event (``ts`` + ``dur``), instants
as ``i`` and counters as ``C``.  Spans never nest, so a span is exactly
the event the tracer recorded.  :func:`validate_chrome_trace` is the
schema contract CI enforces on exported traces — every event carries
``ph``/``ts``/``pid``/``tid``, timestamps are monotone within a lane, and
a lane's spans have non-negative durations and never overlap.

Metrics exporters flatten a :class:`~repro.obs.metrics.MetricStream`'s
snapshot history (plus the final state) into one JSON document or a CSV
with one row per snapshot.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.obs.metrics import MetricStream
from repro.obs.tracer import Tracer

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_to_dict",
    "export_metrics_json",
    "export_metrics_csv",
]

#: process group every undeclared lane lands in
DEFAULT_PROCESS = "run"


def _lane_layout(tracer: Tracer, lanes_in_use: list[str]):
    """Assign (pid, tid) numbers: processes in declaration order, lanes
    ordered by (sort, declaration/first-use) within each process."""
    declared = tracer.lanes()
    processes: list[str] = []
    lane_meta: dict[str, tuple[str, str, int | None]] = {}
    for lane in list(declared) + [l for l in lanes_in_use if l not in declared]:
        if lane in lane_meta:
            continue
        process, label, sort = declared.get(lane, (DEFAULT_PROCESS, lane, None))
        lane_meta[lane] = (process, label, sort)
        if process not in processes:
            processes.append(process)
    pids = {process: i + 1 for i, process in enumerate(processes)}
    tids: dict[str, int] = {}
    for process in processes:
        mine = [lane for lane, meta in lane_meta.items() if meta[0] == process]
        mine.sort(key=lambda lane: (
            lane_meta[lane][2] if lane_meta[lane][2] is not None else 1 << 30,
            list(lane_meta).index(lane),
        ))
        for i, lane in enumerate(mine):
            tids[lane] = i + 1
    return lane_meta, pids, tids


def _lane_events(tracer: Tracer) -> dict[str, list[tuple]]:
    """Split the tracer's raw tuples per lane, keeping emission order."""
    per_lane: dict[str, list[tuple]] = {}
    for event in tracer.events():
        per_lane.setdefault(event[1], []).append(event)
    return per_lane


def _emit_lane(lane_events: list[tuple], scale: float, pid: int, tid: int) -> list[dict]:
    """Shape one lane's tuples into Chrome events, in timestamp order
    (a span sorts by its start; ties keep emission order)."""
    out: list[dict] = []
    for event in sorted(lane_events, key=lambda e: e[3]):
        ph, __, name, ts = event[:4]
        shaped: dict = {"name": name, "ph": ph, "ts": ts * scale, "pid": pid, "tid": tid}
        if ph == "X":
            shaped["dur"] = (event[4] - ts) * scale
            args = event[5]
        elif ph == "i":
            shaped["s"] = "t"
            args = event[4]
        else:
            args = {name: event[4]}
        if args:
            shaped["args"] = args
        out.append(shaped)
    return out


def to_chrome_trace(tracer: Tracer) -> dict:
    """The whole tracer as a Chrome Trace Event Format document."""
    per_lane = _lane_events(tracer)
    lane_meta, pids, tids = _lane_layout(tracer, list(per_lane))
    events: list[dict] = []
    for process, pid in pids.items():
        events.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
            "args": {"name": process},
        })
    for lane, (process, label, sort) in lane_meta.items():
        pid, tid = pids[process], tids[lane]
        events.append({
            "name": "thread_name", "ph": "M", "ts": 0, "pid": pid, "tid": tid,
            "args": {"name": label},
        })
        if sort is not None:
            events.append({
                "name": "thread_sort_index", "ph": "M", "ts": 0, "pid": pid,
                "tid": tid, "args": {"sort_index": sort},
            })
    for lane in lane_meta:
        if lane in per_lane:
            events.extend(
                _emit_lane(per_lane[lane], tracer.ts_scale, pids[lane_meta[lane][0]], tids[lane])
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "run_id": tracer.run_id,
            "seed": tracer.seed,
            "tool": "gemmini-repro",
        },
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Serialise the tracer to ``path`` (load in Perfetto / chrome://tracing)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(tracer)), encoding="utf-8")
    return path


#: every phase the exporter can emit (the validator rejects others)
_KNOWN_PHASES = {"X", "i", "C", "M"}

#: relative slack for a span that ends where the next begins: ``ts + dur``
#: of the first and ``ts`` of the second are scaled separately
_ROUNDING = 1e-9


def validate_chrome_trace(data: dict | list) -> list[str]:
    """Schema-check one exported trace; return violations (empty = valid).

    The CI contract: the document parses, every event carries ``ph``/
    ``ts``/``pid``/``tid``, timestamps never go backwards within a lane,
    and every ``X`` span has a non-negative ``dur`` and starts no earlier
    than the previous span on its lane ends (spans never nest or overlap).
    """
    events = data.get("traceEvents") if isinstance(data, dict) else data
    violations: list[str] = []
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        violations.append("trace contains no events")
    last_ts: dict[tuple, float] = {}
    span_end: dict[tuple, tuple[str, float]] = {}  # lane -> (name, end) of its last span
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            violations.append(f"event {i}: not an object")
            continue
        missing = [key for key in ("ph", "ts", "pid", "tid") if key not in event]
        if missing:
            violations.append(f"event {i}: missing {','.join(missing)}")
            continue
        ph, ts = event["ph"], event["ts"]
        if ph not in _KNOWN_PHASES:
            violations.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(ts, (int, float)) or ts < 0:
            violations.append(f"event {i}: bad ts {ts!r}")
            continue
        if ph == "M":
            continue  # metadata is timeless
        lane = (event["pid"], event["tid"])
        name = event.get("name")
        if ts < last_ts.get(lane, 0.0):
            violations.append(f"event {i} ({name!r}): ts {ts} goes backwards in lane {lane}")
        last_ts[lane] = max(last_ts.get(lane, 0.0), float(ts))
        if ph != "X":
            continue
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            violations.append(f"event {i} ({name!r}): bad dur {dur!r}")
            continue
        previous = span_end.get(lane)
        if previous is not None and ts < previous[1] - _ROUNDING * previous[1]:
            violations.append(
                f"event {i} ({name!r}): starts at {ts} before span {previous[0]!r} "
                f"ends at {previous[1]} in lane {lane}"
            )
        if previous is None or ts + dur > previous[1]:
            span_end[lane] = (name, ts + dur)
    return violations


# ---------------------------------------------------------------------- #
# Metrics export                                                          #
# ---------------------------------------------------------------------- #


def metrics_to_dict(stream: MetricStream, meta: dict | None = None) -> dict:
    """The stream as one JSON document: meta, snapshot series, final state.

    The stream's own ``run_id``/``seed`` stamp lands in ``meta`` (caller
    keys win), so metrics files join against ledger records and traces."""
    full_meta = dict(meta or {})
    full_meta.setdefault("run_id", stream.run_id)
    if stream.seed is not None:
        full_meta.setdefault("seed", stream.seed)
    return {
        "meta": full_meta,
        "snapshots": list(stream.snapshots),
        "final": stream.current(),
    }


def export_metrics_json(stream: MetricStream, path: str | Path, meta: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(metrics_to_dict(stream, meta), indent=2), encoding="utf-8")
    return path


def export_metrics_csv(stream: MetricStream, path: str | Path) -> Path:
    """One row per snapshot; the final state is the last row (t = blank)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = list(stream.snapshots) + [dict(stream.current(), t="")]
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path
