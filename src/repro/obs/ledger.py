"""Persistent run ledger: provenance-stamped performance history.

Every ``run``/``serve``/``dse`` invocation and every benchmark appends one
:class:`RunRecord` to an append-only JSONL ledger (``.repro-ledger/
ledger.jsonl`` by default, ``REPRO_LEDGER`` or ``--ledger PATH`` to move
it, ``REPRO_LEDGER=off`` to disable).  A record carries everything needed
to trust — and later retrain on — the numbers it holds: the run id and
seed (shared with the tracer and metric stream via
:func:`repro.obs.new_run_id`), the git revision and dirty flag,
interpreter and numpy versions, a host fingerprint, the config and
workload hashes, wall time, and the full metrics summary.

The ledger is the durable sample store behind ``gemmini-repro history``
(list/filter/show), ``compare`` (two-record metric deltas), ``regress``
(statistical gate against a named baseline, :mod:`repro.obs.regress`) —
and the training corpus the learned-surrogate fidelity tier will draw
(config, workload, metrics) samples from.

Durability contract (:mod:`repro.obs.jsonl`): one record is one line,
written with a single ``os.write`` on an ``O_APPEND`` descriptor under an
``flock`` (where available), so concurrent appends from
:class:`~repro.eval.runner.ExperimentRunner` worker processes never
interleave.  Reads skip and warn on corrupt lines (a truncated tail from a
killed process costs that one record, never the file).  Like the tracer
and metric stream, the disabled form is the :data:`NULL_LEDGER` null
object — call sites append unconditionally.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.obs import jsonl

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "RunLedger",
    "NullLedger",
    "NULL_LEDGER",
    "provenance",
    "default_ledger_path",
    "ledger_from_env",
    "merge_ledgers",
]

#: bump when a record's field layout changes incompatibly; readers keep
#: accepting every version they know how to interpret
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------- #
# Provenance                                                              #
# ---------------------------------------------------------------------- #


def _git(args: list[str]) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


@lru_cache(maxsize=1)
def provenance() -> dict[str, Any]:
    """The environment block stamped onto every record (cached per process).

    ``git_rev`` is ``None`` outside a checkout (installed package); the
    dirty flag covers tracked-file modifications only, which is exactly
    the "are these numbers reproducible from this rev" question.
    """
    rev = _git(["rev-parse", "HEAD"])
    dirty = None
    if rev is not None:
        status = _git(["status", "--porcelain", "--untracked-files=no"])
        dirty = bool(status) if status is not None else None
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "host": {
            "platform": platform.system(),
            "release": platform.release(),
            "machine": platform.machine(),
            "node": platform.node(),
            "cpus": os.cpu_count(),
        },
        "argv": list(sys.argv),
    }


def _numpy_version() -> str | None:
    try:
        import numpy

        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        return None


# ---------------------------------------------------------------------- #
# Records                                                                 #
# ---------------------------------------------------------------------- #


@dataclass
class RunRecord:
    """One ledgered run: who produced which numbers under which code."""

    run_id: str
    kind: str  # "run" | "serve" | "dse" | "bench" | "runner" | ...
    name: str  # model, tenant mix, strategy or benchmark name
    seed: int | None = None
    ts: float = 0.0  # unix seconds at record time
    wall_s: float | None = None
    config_hash: str | None = None
    workload_hash: str | None = None
    workload: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @property
    def git_rev(self) -> str | None:
        return self.provenance.get("git_rev")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "ts": self.ts,
            "wall_s": self.wall_s,
            "config_hash": self.config_hash,
            "workload_hash": self.workload_hash,
            "workload": self.workload,
            "metrics": self.metrics,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        """Tolerant decode: unknown keys are dropped, missing ones default,
        so a schema-2 reader can still list schema-1 history."""
        return cls(
            run_id=str(data.get("run_id", "?")),
            kind=str(data.get("kind", "?")),
            name=str(data.get("name", "?")),
            seed=data.get("seed"),
            ts=float(data.get("ts", 0.0) or 0.0),
            wall_s=data.get("wall_s"),
            config_hash=data.get("config_hash"),
            workload_hash=data.get("workload_hash"),
            workload=dict(data.get("workload") or {}),
            metrics={
                k: v
                for k, v in dict(data.get("metrics") or {}).items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
            provenance=dict(data.get("provenance") or {}),
            schema=int(data.get("schema", 1) or 1),
        )


# ---------------------------------------------------------------------- #
# Ledger                                                                  #
# ---------------------------------------------------------------------- #


def default_ledger_path() -> Path:
    """``$REPRO_LEDGER`` when it names a path, else ``.repro-ledger/
    ledger.jsonl`` under the working directory."""
    return jsonl.env_path("REPRO_LEDGER", Path(".repro-ledger") / "ledger.jsonl")


def ledger_from_env() -> "RunLedger | NullLedger":
    """The ambient ledger: honours ``REPRO_LEDGER`` (path or ``off``)."""
    if jsonl.env_disabled("REPRO_LEDGER"):
        return NULL_LEDGER
    return RunLedger(default_ledger_path())


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` lines, crash- and
    concurrency-safe by construction (see :mod:`repro.obs.jsonl`)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    # -- writing -------------------------------------------------------- #

    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record; returns it for chaining."""
        jsonl.append(self.path, record.to_dict())
        return record

    def record(
        self,
        kind: str,
        name: str,
        *,
        run_id: str | None = None,
        seed: int | None = None,
        wall_s: float | None = None,
        config_hash: str | None = None,
        workload_hash: str | None = None,
        workload: dict[str, Any] | None = None,
        metrics: dict[str, float] | None = None,
    ) -> RunRecord:
        """Build a fully stamped record (provenance, timestamp, run id)
        and append it — the one-call form every instrumented path uses."""
        from repro.obs import new_run_id

        return self.append(
            RunRecord(
                run_id=run_id or new_run_id(kind),
                kind=kind,
                name=name,
                seed=seed,
                ts=time.time(),
                wall_s=wall_s,
                config_hash=config_hash,
                workload_hash=workload_hash,
                workload=dict(workload or {}),
                metrics={
                    k: float(v)
                    for k, v in dict(metrics or {}).items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                },
                provenance=provenance(),
            )
        )

    # -- reading -------------------------------------------------------- #

    def records(self) -> list[RunRecord]:
        """Every readable record, oldest first.

        Unparsable lines are skipped with a warning naming the line; the
        common cause is a truncated tail from a writer killed mid-append,
        which must never take the rest of the history with it.
        """
        return jsonl.read(self.path, RunRecord.from_dict, "ledger")

    def history(
        self,
        kind: str | None = None,
        name: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Filtered view, newest last; ``limit`` keeps the newest N."""
        records = [
            r
            for r in self.records()
            if (kind is None or r.kind == kind) and (name is None or r.name == name)
        ]
        if limit is not None and limit >= 0:
            records = records[-limit:] if limit else []
        return records

    def find(self, run_id_prefix: str) -> RunRecord:
        """The unique record whose ``run_id`` starts with the prefix."""
        matches = [r for r in self.records() if r.run_id.startswith(run_id_prefix)]
        if not matches:
            raise KeyError(f"no ledger record matches run id {run_id_prefix!r}")
        if len({r.run_id for r in matches}) > 1:
            ids = sorted({r.run_id for r in matches})[:5]
            raise KeyError(
                f"run id prefix {run_id_prefix!r} is ambiguous: {', '.join(ids)}"
            )
        return matches[-1]

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())

    def __bool__(self) -> bool:
        """Truthiness == "appends will be kept" (mirrors the tracer)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r})"


class NullLedger(RunLedger):
    """The disabled ledger: appends vanish, reads are empty, falsy."""

    def __init__(self) -> None:
        super().__init__(os.devnull)

    def append(self, record: RunRecord) -> RunRecord:
        return record

    def record(self, kind: str, name: str, **kwargs: Any) -> RunRecord:
        return RunRecord(run_id="null", kind=kind, name=name)

    def records(self) -> list[RunRecord]:
        return []

    def __bool__(self) -> bool:
        return False


NULL_LEDGER = NullLedger()


def merge_ledgers(
    sources: Iterable[RunLedger | str | os.PathLike],
    dest: RunLedger | str | os.PathLike,
) -> int:
    """Append every record of ``sources`` into ``dest`` (dedup by run id);
    returns the number of records written.  Paths coerce to ledgers;
    missing source files contribute nothing.  CI uses this to fold a
    restored baseline artifact into the run's working ledger."""
    if not isinstance(dest, RunLedger):
        dest = RunLedger(dest)
    seen = {r.run_id for r in dest.records()}
    written = 0
    for source in sources:
        if not isinstance(source, RunLedger):
            source = RunLedger(source)
        for record in source.records():
            if record.run_id in seen:
                continue
            dest.append(record)
            seen.add(record.run_id)
            written += 1
    return written
