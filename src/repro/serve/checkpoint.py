"""Checkpoint/resume of long serving simulations.

The event engine parks every tile at a dispatch point (no macro-op
generator frames live, nothing in flight), which makes the whole
:class:`~repro.serve.cluster.ServingSimulation` — SoC state, scheduler
queue, pending arrivals, per-tenant RNG cursors, tile clocks, metric
estimators, partial records — one picklable object graph.  A checkpoint
is two pickle records, a schema stamp and then that graph, written
atomically (tmp file + ``os.replace``) so a kill mid-write never corrupts
the last good one.  The stamp is read first, by an unpickler that resolves
no class, so a checkpoint of another schema is refused with a schema error
before anything in it can name a class this version no longer has.

Resuming is :func:`load_checkpoint` followed by
:meth:`~repro.serve.cluster.ServingSimulation.run`: parked actors
re-enter the event heap at their saved ``(clock, tile index)`` positions,
so the continued schedule — and the final :class:`~repro.serve.metrics
.ServeReport` — is bitwise identical to the uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from repro.serve.cluster import ServingSimulation

__all__ = ["CHECKPOINT_SCHEMA", "save_checkpoint", "load_checkpoint"]

#: bump on any incompatible change to the pickled layout (2: the L2's sets
#: are keyed by line index, not by tag; 3: TLB entries and filter registers
#: hold real PPNs; 4: the schema stamp is its own first pickle record; 5:
#: dtypes hold a numpy-free storage handle, and the scratchpad, accumulator
#: and functional mesh build their arrays on first use)
CHECKPOINT_SCHEMA = 5


class _StampUnpickler(pickle.Unpickler):
    """Reads the schema stamp: plain data only, never a class lookup."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"schema stamp names {module}.{name}")


def _read_schema(fh) -> object:
    """The first record's ``schema``, or None if it is no schema stamp (a
    headerless pre-4 checkpoint's first record is the whole simulation)."""
    try:
        stamp = _StampUnpickler(fh).load()
    except (pickle.UnpicklingError, EOFError):
        return None
    return stamp.get("schema") if isinstance(stamp, dict) else None


def save_checkpoint(sim: ServingSimulation, path: str | Path) -> None:
    """Atomically write ``sim`` (parked at a barrier) to ``path``."""
    if any(actor.stream is not None for actor in sim._actors):
        raise RuntimeError("checkpoint outside a barrier: a tile stream is live")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump({"schema": CHECKPOINT_SCHEMA}, fh, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.dump(sim, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> ServingSimulation:
    """Load a checkpointed simulation, ready for ``run()`` to continue."""
    with open(path, "rb") as fh:
        schema = _read_schema(fh)
        if schema != CHECKPOINT_SCHEMA:
            found = "unstamped (pre-4)" if schema is None else schema
            raise ValueError(f"{path}: checkpoint schema {found} != {CHECKPOINT_SCHEMA}")
        try:
            sim = pickle.load(fh)
        except EOFError:
            raise ValueError(f"{path}: checkpoint holds no simulation") from None
    if not isinstance(sim, ServingSimulation):
        raise ValueError(f"{path}: checkpoint payload is not a ServingSimulation")
    return sim
