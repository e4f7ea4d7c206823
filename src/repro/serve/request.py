"""Requests and completion records: the unit of serving-simulation work.

A :class:`Request` is one inference a tenant wants executed; a
:class:`RequestRecord` is what the cluster engine writes once the request
has finished (or the horizon dropped it).  All times are cycles of the SoC
reference clock, matching :mod:`repro.sim.timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Identity of one compiled workload: (zoo model name, input_hw, seq).
ModelKey = tuple[str, int, int]


@dataclass(frozen=True)
class Request:
    """One pending inference request.  It carries no cost estimate: a
    cost-aware policy asks the scheduler's per-tile oracle
    (:meth:`~repro.serve.scheduler.Scheduler.cost_on`) when it picks."""

    tenant: str
    index: int  # per-tenant sequence number, 0-based
    model_key: ModelKey
    arrival: float  # cycles
    priority: int = 0  # larger = more important
    slo_cycles: float | None = None
    #: restrict execution to one tile (isolation/interference studies)
    pin_tile: int | None = None

    @property
    def model(self) -> str:
        return self.model_key[0]

    def runnable_on(self, tile_index: int) -> bool:
        return self.pin_tile is None or self.pin_tile == tile_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Request({self.tenant}#{self.index} {self.model} @{self.arrival:.0f})"


@dataclass(frozen=True)
class RequestRecord:
    """One completed request, as logged by the cluster engine."""

    tenant: str
    index: int
    model: str
    tile: int
    arrival: float  # cycles
    start: float  # cycles: dispatch onto the tile
    finish: float  # cycles: controller drained
    slo_cycles: float | None = None

    @property
    def queue_cycles(self) -> float:
        return self.start - self.arrival

    @property
    def service_cycles(self) -> float:
        return self.finish - self.start

    @property
    def latency_cycles(self) -> float:
        return self.finish - self.arrival

    @property
    def slo_met(self) -> bool:
        """True when the request finished within its SLO (or has none)."""
        return self.slo_cycles is None or self.latency_cycles <= self.slo_cycles

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "index": self.index,
            "model": self.model,
            "tile": self.tile,
            "arrival": self.arrival,
            "start": self.start,
            "finish": self.finish,
            "queue_cycles": self.queue_cycles,
            "service_cycles": self.service_cycles,
            "latency_cycles": self.latency_cycles,
            "slo_met": self.slo_met,
        }
