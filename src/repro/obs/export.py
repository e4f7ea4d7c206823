"""Exporters: Chrome Trace Event Format JSON and flat metrics JSON/CSV.

The trace exporter shapes a :class:`~repro.obs.tracer.Tracer`'s raw events
into the Chrome Trace Event Format (the JSON ``chrome://tracing`` and
Perfetto load directly): every lane becomes one track (``tid``) inside its
process group (``pid``), spans are emitted as balanced ``B``/``E`` pairs
in non-decreasing timestamp order per track, instants as ``i`` and
counters as ``C``.  :func:`validate_chrome_trace` is the schema contract
CI enforces on exported traces — every event carries ``ph``/``ts``/
``pid``/``tid``, begin/end are balanced per lane and timestamps are
monotone within a lane.

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
    """Shape one lane's tuples into ordered Chrome events.

    Spans become ``B``/``E`` pairs via a sweep over (start, -end)-sorted
    spans with an explicit open-span stack, which yields correct nesting
    for laminar span families (the only kind the instrumentation emits:
    every serial lane's spans are sequential or properly nested).
    Timestamps are clamped monotone per lane as a defensive invariant —
    the validator treats a backwards ``ts`` as a schema violation.
    """
    spans = [e for e in lane_events if e[0] == "X"]
    points = [e for e in lane_events if e[0] != "X"]
    spans.sort(key=lambda e: (e[3], -e[4]))
    points.sort(key=lambda e: e[3])

    out: list[dict] = []
    stack: list[tuple] = []  # ("X", lane, name, start, end, args)
    pi = 0
    last_ts = 0.0

    def push(ph: str, name: str, ts: float, args=None, value=None) -> None:
        nonlocal last_ts
        ts = ts * scale
        if ts < last_ts:
            ts = last_ts
        last_ts = ts
        event: dict = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": tid}
        if ph == "C":
            event["args"] = {name: value}
        elif ph == "i":
            event["s"] = "t"
            if args:
                event["args"] = args
        elif args:
            event["args"] = args
        out.append(event)

    def flush_points(until: float) -> None:
        nonlocal pi
        while pi < len(points) and points[pi][3] <= until:
            e = points[pi]
            if e[0] == "i":
                push("i", e[2], e[3], args=e[4])
            else:
                push("C", e[2], e[3], value=e[4])
            pi += 1

    for span in spans:
        __, __, name, start, end, args = span
        while stack and stack[-1][4] <= start:
            done = stack.pop()
            flush_points(done[4])
            push("E", done[2], done[4])
        flush_points(start)
        push("B", name, start, args=args)
        stack.append(span)
    while stack:
        done = stack.pop()
        flush_points(done[4])
        push("E", done[2], done[4])
    flush_points(float("inf"))
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
_KNOWN_PHASES = {"B", "E", "X", "i", "C", "M"}


def validate_chrome_trace(data: dict | list) -> list[str]:
    """Schema-check one exported trace; return violations (empty = valid).

    The CI contract: the document parses, every event carries ``ph``/
    ``ts``/``pid``/``tid``, begin/end events are balanced (stack-matched
    by name) per lane, and timestamps never go backwards within a lane.
    """
    events = data.get("traceEvents") if isinstance(data, dict) else data
    violations: list[str] = []
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        violations.append("trace contains no events")
    stacks: dict[tuple, list[str]] = {}
    last_ts: dict[tuple, float] = {}
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
        if ts < last_ts.get(lane, 0.0):
            violations.append(
                f"event {i} ({event.get('name')!r}): ts {ts} goes backwards in lane {lane}"
            )
        last_ts[lane] = max(last_ts.get(lane, 0.0), float(ts))
        if ph == "B":
            stacks.setdefault(lane, []).append(event.get("name", "?"))
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                violations.append(f"event {i}: E without matching B in lane {lane}")
            else:
                opened = stack.pop()
                name = event.get("name")
                if name is not None and name != opened:
                    violations.append(
                        f"event {i}: E named {name!r} closes span {opened!r} in lane {lane}"
                    )
    for lane, stack in stacks.items():
        if stack:
            violations.append(f"lane {lane}: {len(stack)} unclosed span(s): {stack[-3:]}")
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
