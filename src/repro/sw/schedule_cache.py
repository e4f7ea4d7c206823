"""Persistent cross-process schedule cache for tuned matmul tilings.

The compile path's analogue of the runner/trace caches: the auto-tuner
(:mod:`repro.sw.tune`) searches the tiling space per (matmul shape,
accelerator config) once and records the winner here; a run handed the
cache — ``TileKernels``/``Runtime``/``ServingSimulation``'s
``schedule_cache=`` argument, or the CLI's ``run``/``serve`` — dispatches
straight to the tuned schedule via an O(1) in-memory lookup and falls back
to the greedy heuristic on a miss (the SYS_ATL pattern: specialise hot
shapes, keep the generic path as the safety net).  A run handed no cache
plans greedily, as the paper's software stack does; nothing in the
library opens a cache on its own.

Storage is an append-only JSONL file.  The CLI resolves it once per
invocation: ``--schedule-cache PATH``, else ``REPRO_SCHEDULE_CACHE``
(:func:`schedule_cache_from_env`), else ``.repro-schedule-cache/
schedules.jsonl``; ``off`` selects the :data:`NULL_SCHEDULE_CACHE` null
object.  Appends and reads share the run ledger's JSONL primitive
(:mod:`repro.obs.jsonl`) — one record per line written with a single
``os.write`` on an ``O_APPEND`` descriptor under ``flock`` — so tuner
processes never interleave bytes, and reads skip corrupt lines.  Records
are keyed by a content hash of (shape, dtype, accelerator ``config_hash``,
double-buffer flag, tuner version); the last record per key wins, so
re-tuning simply appends.

Determinism contract: a cache instance loads its file once and serves
every lookup from memory, so one process sees one immutable schedule set
— same cache state in, bitwise-identical schedules (and therefore
simulated cycles) out.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.core.config import GemminiConfig
from repro.obs import jsonl
from repro.sw.tiling import MatmulTiling

__all__ = [
    "SCHEMA_VERSION",
    "TUNER_VERSION",
    "ScheduleKey",
    "ScheduleRecord",
    "ScheduleCacheStats",
    "ScheduleCache",
    "NullScheduleCache",
    "NULL_SCHEDULE_CACHE",
    "accel_config_hash",
    "schedule_key",
    "default_schedule_cache_path",
    "schedule_cache_from_env",
]

#: bump when the record layout changes incompatibly
SCHEMA_VERSION = 1

#: bump when the tuner's search space or scoring changes: old entries
#: stop matching (their key embeds the version) and shapes re-tune
TUNER_VERSION = 1


@lru_cache(maxsize=128)
def accel_config_hash(config: GemminiConfig) -> str:
    """Content hash of the accelerator's hardware identity (16 hex chars).

    Only the accelerator config participates — a schedule's validity and
    performance depend on the array geometry and memory capacities, not on
    which CPU or OS shares the tile — so one ``tune`` run warms every tile
    class built around the same accelerator.
    """
    payload = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ScheduleKey:
    """Identity of one tunable dispatch site."""

    m: int
    k: int
    n: int
    dtype: str
    config_hash: str
    double_buffer: bool = True
    tuner_version: int = TUNER_VERSION

    @property
    def digest(self) -> str:
        payload = json.dumps(
            {
                "m": self.m,
                "k": self.k,
                "n": self.n,
                "dtype": self.dtype,
                "config_hash": self.config_hash,
                "double_buffer": self.double_buffer,
                "tuner_version": self.tuner_version,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "dtype": self.dtype,
            "config_hash": self.config_hash,
            "double_buffer": self.double_buffer,
            "tuner_version": self.tuner_version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleKey":
        return cls(
            m=int(data["m"]),
            k=int(data["k"]),
            n=int(data["n"]),
            dtype=str(data.get("dtype", "int8")),
            config_hash=str(data.get("config_hash", "?")),
            double_buffer=bool(data.get("double_buffer", True)),
            tuner_version=int(data.get("tuner_version", 1)),
        )


def schedule_key(
    config: GemminiConfig, m: int, k: int, n: int, double_buffer: bool = True
) -> ScheduleKey:
    """The cache key the runtime dispatch and the tuner agree on."""
    return ScheduleKey(
        m=m,
        k=k,
        n=n,
        dtype=config.input_type.name,
        config_hash=accel_config_hash(config),
        double_buffer=double_buffer,
    )


@dataclass
class ScheduleRecord:
    """One tuned schedule plus the evidence it was worth recording."""

    key: ScheduleKey
    tiling: MatmulTiling
    tuned_cycles: float | None = None  # simulated cycles of the pick
    greedy_cycles: float | None = None  # simulated cycles of the greedy plan
    candidates: int = 0  # tilings enumerated
    verified: int = 0  # tilings simulated cycle-accurately
    ts: float = 0.0  # unix seconds at record time

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "digest": self.key.digest,
            "key": self.key.to_dict(),
            "tiling": self.tiling.to_dict(),
            "tuned_cycles": self.tuned_cycles,
            "greedy_cycles": self.greedy_cycles,
            "candidates": self.candidates,
            "verified": self.verified,
            "ts": self.ts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleRecord":
        return cls(
            key=ScheduleKey.from_dict(data["key"]),
            tiling=MatmulTiling.from_dict(data["tiling"]),
            tuned_cycles=data.get("tuned_cycles"),
            greedy_cycles=data.get("greedy_cycles"),
            candidates=int(data.get("candidates", 0) or 0),
            verified=int(data.get("verified", 0) or 0),
            ts=float(data.get("ts", 0.0) or 0.0),
        )


@dataclass
class ScheduleCacheStats:
    """Per-cache dispatch counters (hits == lookups on a warm run)."""

    lookups: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    def to_dict(self) -> dict:
        return {"lookups": self.lookups, "hits": self.hits, "misses": self.misses}


class ScheduleCache:
    """JSONL-backed schedule store with an in-memory lookup layer.

    The file is read once, lazily, on the first lookup; appends update the
    in-memory map too, so a tuner process sees its own writes.  Concurrent
    appends from other processes become visible to the next cache instance,
    never mid-run — which is what keeps a run's schedule choices
    deterministic.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.stats = ScheduleCacheStats()
        self._memory: dict[str, ScheduleRecord] | None = None

    # -- reading -------------------------------------------------------- #

    def _load(self) -> dict[str, ScheduleRecord]:
        if self._memory is None:
            records = jsonl.read(self.path, ScheduleRecord.from_dict, "schedule cache")
            # the last record per key wins
            self._memory = {record.key.digest: record for record in records}
        return self._memory

    def get(self, key: ScheduleKey) -> ScheduleRecord | None:
        """Uncounted record fetch (the tuner's already-tuned check)."""
        return self._load().get(key.digest)

    def lookup(self, key: ScheduleKey) -> MatmulTiling | None:
        """Dispatch-path lookup: counted in :attr:`stats`."""
        self.stats.lookups += 1
        record = self._load().get(key.digest)
        if record is None:
            return None
        self.stats.hits += 1
        return record.tiling

    # -- writing -------------------------------------------------------- #

    def put(self, record: ScheduleRecord) -> ScheduleRecord:
        """Durably append one record (ledger-style single flocked write)."""
        if not record.ts:
            record.ts = time.time()
        jsonl.append(self.path, record.to_dict())
        if self._memory is not None:
            self._memory[record.key.digest] = record
        return record

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._load())

    def __bool__(self) -> bool:
        """Truthiness == "lookups can ever hit" (mirrors tracer/ledger)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduleCache({str(self.path)!r})"


class NullScheduleCache(ScheduleCache):
    """The disabled cache: lookups miss without counting, puts vanish."""

    def __init__(self) -> None:
        super().__init__(os.devnull)

    def _load(self) -> dict[str, ScheduleRecord]:
        return {}

    def lookup(self, key: ScheduleKey) -> MatmulTiling | None:
        return None

    def put(self, record: ScheduleRecord) -> ScheduleRecord:
        return record

    def __bool__(self) -> bool:
        return False


NULL_SCHEDULE_CACHE = NullScheduleCache()


# ---------------------------------------------------------------------- #
# The CLI's resolver                                                      #
# ---------------------------------------------------------------------- #


def default_schedule_cache_path() -> Path:
    """``$REPRO_SCHEDULE_CACHE`` when it names a path, else
    ``.repro-schedule-cache/schedules.jsonl`` under the working directory."""
    return jsonl.env_path(
        "REPRO_SCHEDULE_CACHE", Path(".repro-schedule-cache") / "schedules.jsonl"
    )


def schedule_cache_from_env() -> ScheduleCache:
    """A fresh cache honouring ``REPRO_SCHEDULE_CACHE`` (path or ``off``)."""
    if jsonl.env_disabled("REPRO_SCHEDULE_CACHE"):
        return NULL_SCHEDULE_CACHE
    return ScheduleCache(default_schedule_cache_path())
