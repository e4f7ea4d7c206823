"""Append-only JSONL files: one record per line, safe under concurrent writers.

The durable store under the run ledger (:mod:`repro.obs.ledger`) and the
schedule cache (:mod:`repro.sw.schedule_cache`).  A record is serialised to
one ``\\n``-terminated line first, then written with a single ``os.write``
on an ``O_APPEND`` descriptor while holding an exclusive ``flock`` (where
the platform has one), so two processes never interleave bytes and a killed
writer leaves at most one truncated *final* line.  Reads skip and warn on
lines that do not decode, so such a tail costs one record, never the file.

Each store is located by an environment variable naming its path; one of
:data:`DISABLED` there switches the store off.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Callable, TypeVar

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = ["DISABLED", "env_path", "env_disabled", "append", "read"]

T = TypeVar("T")

#: environment values that mean "no store at all"
DISABLED = frozenset({"0", "off", "none", "disabled"})


def env_path(var: str, default: Path) -> Path:
    """``$var`` when it names a path, else ``default``."""
    value = os.environ.get(var, "").strip()
    if value and value.lower() not in DISABLED:
        return Path(value)
    return default


def env_disabled(var: str) -> bool:
    """True when ``$var`` switches the store off."""
    return os.environ.get(var, "").strip().lower() in DISABLED


def append(path: Path, record: dict[str, Any]) -> None:
    """Durably append ``record`` as one line (single flocked write)."""
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        locked = _lock(fd)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            if locked:
                _unlock(fd)
    finally:
        os.close(fd)


def read(path: Path, decode: Callable[[dict], T], label: str) -> list[T]:
    """Every line of ``path`` that decodes, in file order.

    A line that is not a JSON object, or that ``decode`` rejects with
    ``KeyError``/``TypeError``/``ValueError``, is skipped with a
    ``RuntimeWarning`` naming ``label``, the file and the line.  A missing
    file reads as empty.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    out: list[T] = []
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise TypeError("not a JSON object")
            out.append(decode(data))
        except (KeyError, TypeError, ValueError):
            tail = " (truncated final line?)" if i >= len(lines) - 2 else ""
            warnings.warn(
                f"{label} {path}: skipping corrupt line {i + 1}{tail}",
                RuntimeWarning,
                stacklevel=3,
            )
    return out


def _lock(fd: int) -> bool:
    if fcntl is None:
        return False
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
    except OSError:  # pragma: no cover - exotic filesystems without flock
        return False
    return True


def _unlock(fd: int) -> None:
    try:
        fcntl.flock(fd, fcntl.LOCK_UN)
    except OSError:  # pragma: no cover
        pass
