"""Checkpoint/resume of long serving simulations.

The event engine parks every tile at a dispatch point (no macro-op
generator frames live, nothing in flight), which makes the whole
:class:`~repro.serve.cluster.ServingSimulation` — SoC state, scheduler
queue, pending arrivals, per-tenant RNG cursors, tile clocks, metric
estimators, partial records — one picklable object graph.  A checkpoint
is that pickle plus a schema stamp, written atomically (tmp file +
``os.replace``) so a kill mid-write never corrupts the last good one.

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
#: hold real PPNs)
CHECKPOINT_SCHEMA = 3


def save_checkpoint(sim: ServingSimulation, path: str | Path) -> None:
    """Atomically write ``sim`` (parked at a barrier) to ``path``."""
    if any(actor.stream is not None for actor in sim._actors):
        raise RuntimeError("checkpoint outside a barrier: a tile stream is live")
    path = Path(path)
    payload = {"schema": CHECKPOINT_SCHEMA, "sim": sim}
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> ServingSimulation:
    """Load a checkpointed simulation, ready for ``run()`` to continue."""
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError(f"{path}: not a serving checkpoint")
    if payload["schema"] != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"{path}: checkpoint schema {payload['schema']} != {CHECKPOINT_SCHEMA}"
        )
    sim = payload["sim"]
    if not isinstance(sim, ServingSimulation):
        raise ValueError(f"{path}: checkpoint payload is not a ServingSimulation")
    return sim
