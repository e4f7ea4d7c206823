"""Traffic generation: per-tenant request streams over the model zoo.

A :class:`TenantSpec` declares one tenant's arrival process — open-loop
Poisson, bursty on/off, closed-loop clients, or explicit trace replay —
plus its model, priority and latency SLO.  A :class:`TrafficProfile`
bundles the tenants with the cluster shape (tile count, scheduler policy,
seed) into one frozen, picklable object, which is what the DSE cost model
hashes into the experiment cache.

Arrival generation is fully deterministic: each tenant derives its own
``random.Random`` from ``(profile seed, tenant name)``, so adding or
reordering tenants never perturbs another tenant's stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.serve.request import Request

__all__ = [
    "ARRIVAL_KINDS",
    "TenantSpec",
    "TrafficProfile",
    "ArrivalSource",
    "OpenLoopSource",
    "ClosedLoopSource",
    "make_source",
    "parse_tenant",
    "load_trace_profile",
]

ARRIVAL_KINDS = ("poisson", "bursty", "closed", "trace")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a model, an arrival process, and an SLO."""

    name: str
    model: str
    arrival: str = "poisson"  # one of ARRIVAL_KINDS
    rate_qps: float = 50.0  # open-loop arrival rate (poisson / bursty on-phase)
    num_requests: int = 16
    priority: int = 0
    slo_ms: float | None = None
    input_hw: int = 64  # CNN input resolution
    seq: int = 32  # BERT sequence length
    think_ms: float = 0.0  # closed-loop: delay between completion and re-issue
    concurrency: int = 1  # closed-loop: parallel clients
    burst_on_ms: float = 20.0  # bursty: on-phase length
    burst_off_ms: float = 20.0  # bursty: off-phase length
    trace_ms: tuple[float, ...] = ()  # trace: explicit arrival offsets
    pin_tile: int | None = None  # restrict to one tile (interference studies)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"tenant {self.name!r}: arrival must be one of {ARRIVAL_KINDS}, "
                f"got {self.arrival!r}"
            )
        if self.num_requests < 1:
            raise ValueError(f"tenant {self.name!r}: num_requests must be >= 1")
        if self.arrival in ("poisson", "bursty") and self.rate_qps <= 0:
            raise ValueError(f"tenant {self.name!r}: rate_qps must be positive")
        if self.arrival == "bursty" and (self.burst_on_ms <= 0 or self.burst_off_ms < 0):
            raise ValueError(f"tenant {self.name!r}: bad burst phase lengths")
        if self.arrival == "closed" and self.concurrency < 1:
            raise ValueError(f"tenant {self.name!r}: concurrency must be >= 1")
        if self.arrival == "trace" and not self.trace_ms:
            raise ValueError(f"tenant {self.name!r}: trace arrival needs trace_ms")
        if any(ms < 0 for ms in self.trace_ms):
            raise ValueError(f"tenant {self.name!r}: trace_ms offsets must be non-negative")
        if self.think_ms < 0:
            raise ValueError(f"tenant {self.name!r}: think_ms must be non-negative")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"tenant {self.name!r}: slo_ms must be positive")

    @property
    def model_key(self) -> tuple[str, int, int]:
        return (self.model, self.input_hw, self.seq)

    @property
    def total_requests(self) -> int:
        """Requests this tenant will issue over the whole run."""
        if self.arrival == "trace":
            return len(self.trace_ms)
        return self.num_requests


@dataclass(frozen=True)
class TrafficProfile:
    """A complete traffic scenario: tenants + cluster shape + seed."""

    tenants: tuple[TenantSpec, ...]
    num_tiles: int = 1
    scheduler: str = "fcfs"
    seed: int = 0
    horizon_ms: float | None = None
    #: batch-scheduler knobs (ignored by the other policies); the window is
    #: wall-clock ms, converted to cycles at the serving SoC's own clock
    batch_size: int = 4
    batch_window_ms: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("traffic profile needs at least one tenant")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be non-negative")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {sorted(names)}")
        if self.num_tiles < 1:
            raise ValueError("num_tiles must be >= 1")
        for tenant in self.tenants:
            if tenant.pin_tile is not None and not 0 <= tenant.pin_tile < self.num_tiles:
                raise ValueError(
                    f"tenant {tenant.name!r} pinned to tile {tenant.pin_tile}, "
                    f"but the cluster has {self.num_tiles} tile(s)"
                )
        if self.horizon_ms is not None and self.horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")

    @property
    def total_requests(self) -> int:
        return sum(t.total_requests for t in self.tenants)

    def with_seed(self, seed: int) -> "TrafficProfile":
        return replace(self, seed=seed)


# ---------------------------------------------------------------------- #
# Arrival sources                                                         #
# ---------------------------------------------------------------------- #


def _tenant_rng(seed: int, tenant: str) -> random.Random:
    # str seeds hash via SHA-512 inside random.Random — deterministic
    # across processes, unlike builtin hash().
    return random.Random(f"serve:{seed}:{tenant}")


def _cycles_per_ms(clock_ghz: float) -> float:
    return clock_ghz * 1e6


@dataclass
class ArrivalSource:
    """Base: turns one tenant spec into a *stream* of arrival times (cycles).

    The interface is pull-based: :meth:`next_arrival` yields the next
    pre-scheduled arrival (None once the stream is exhausted), so an
    engine holding one pending arrival per tenant keeps O(tenants) state
    however long the stream runs.

    Sources are checkpointable: :meth:`state_dict` captures the cursor and
    the seeded ``random.Random`` state, and :meth:`load_state` restores
    them onto a freshly built source so a resumed simulation continues the
    exact same arrival sequence.
    """

    spec: TenantSpec
    clock_ghz: float
    rng: random.Random = field(repr=False, default=None)

    #: cursor fields captured by state_dict (subclasses extend)
    _STATE_FIELDS = ("_pulled", "_followups")

    def __post_init__(self) -> None:
        self._pulled = 0  # pre-scheduled arrivals handed out so far
        self._followups = 0  # completion-triggered arrivals handed out

    @property
    def initial_total(self) -> int:
        """Size of the pre-scheduled arrival stream (known statically)."""
        raise NotImplementedError

    @property
    def issued(self) -> int:
        """Requests this source will have put into the world: the whole
        pre-scheduled stream (it exists whether or not the engine got to
        it) plus every completion-triggered follow-up actually handed out."""
        return self.initial_total + self._followups

    @property
    def remaining_initial(self) -> int:
        """Pre-scheduled arrivals not yet pulled (horizon-cut accounting)."""
        return self.initial_total - self._pulled

    def next_arrival(self) -> float | None:
        """Pull the next pre-scheduled arrival time, or None when done."""
        raise NotImplementedError

    def next_after_completion(self, finish: float) -> float | None:
        """Closed-loop hook: the next arrival triggered by a completion."""
        return None

    # -- checkpoint/resume ---------------------------------------------- #

    def state_dict(self) -> dict:
        """Cursor + RNG state, sufficient to resume the stream bitwise."""
        state = {name: getattr(self, name) for name in self._STATE_FIELDS}
        state["rng"] = self.rng.getstate() if self.rng is not None else None
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` onto a freshly built source."""
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name])
        if state.get("rng") is not None:
            self.rng.setstate(state["rng"])


class OpenLoopSource(ArrivalSource):
    """Poisson, bursty and trace tenants: arrivals independent of service.

    Times are generated one pull at a time — Poisson inter-arrival gaps
    accumulate, and the bursty on/off mapping is monotone in the on-time,
    so the streamed sequence is identical (value for value, in order) to
    the historical precomputed list.
    """

    _STATE_FIELDS = ArrivalSource._STATE_FIELDS + ("_on_time",)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._on_time = 0.0  # cumulative arrival clock (on-time for bursty)
        if self.spec.arrival == "trace":
            per_ms = _cycles_per_ms(self.clock_ghz)
            self._times = sorted(ms * per_ms for ms in self.spec.trace_ms)

    @property
    def initial_total(self) -> int:
        return self.spec.total_requests

    def next_arrival(self) -> float | None:
        spec = self.spec
        if self._pulled >= self.initial_total:
            return None
        index = self._pulled
        self._pulled += 1
        if spec.arrival == "trace":
            return self._times[index]
        per_ms = _cycles_per_ms(self.clock_ghz)
        mean_gap = per_ms * 1e3 / spec.rate_qps  # cycles between arrivals
        self._on_time += self.rng.expovariate(1.0 / mean_gap)
        t = self._on_time
        if spec.arrival == "bursty":
            # Arrivals are drawn in "on-time"; map onto the wall clock by
            # inserting the off-phase after every on-phase.  The map is
            # monotone, so streamed order equals sorted order.
            on = spec.burst_on_ms * per_ms
            off = spec.burst_off_ms * per_ms
            t = (t // on) * (on + off) + (t % on)
        return t


class ClosedLoopSource(ArrivalSource):
    """Closed-loop clients: each completion triggers the next request."""

    _STATE_FIELDS = ArrivalSource._STATE_FIELDS + ("_remaining",)

    def __post_init__(self) -> None:
        super().__post_init__()
        spec = self.spec
        self._initial = min(spec.concurrency, spec.num_requests)
        self._remaining = spec.num_requests - self._initial

    @property
    def initial_total(self) -> int:
        return self._initial

    def next_arrival(self) -> float | None:
        if self._pulled >= self._initial:
            return None
        self._pulled += 1
        return 0.0

    def next_after_completion(self, finish: float) -> float | None:
        if self._remaining <= 0:
            return None
        self._remaining -= 1
        self._followups += 1
        return finish + self.spec.think_ms * _cycles_per_ms(self.clock_ghz)


def make_source(spec: TenantSpec, seed: int, clock_ghz: float) -> ArrivalSource:
    cls = ClosedLoopSource if spec.arrival == "closed" else OpenLoopSource
    return cls(spec=spec, clock_ghz=clock_ghz, rng=_tenant_rng(seed, spec.name))


def requests_for(
    spec: TenantSpec,
    times: list[float],
    start_index: int = 0,
    cost_hint: float = 0.0,
    clock_ghz: float = 1.0,
) -> list[Request]:
    """Wrap arrival times into :class:`Request` objects for one tenant."""
    slo = spec.slo_ms * _cycles_per_ms(clock_ghz) if spec.slo_ms is not None else None
    return [
        Request(
            tenant=spec.name,
            index=start_index + i,
            model_key=spec.model_key,
            arrival=t,
            priority=spec.priority,
            slo_cycles=slo,
            cost_hint=cost_hint,
            pin_tile=spec.pin_tile,
        )
        for i, t in enumerate(times)
    ]


# ---------------------------------------------------------------------- #
# Parsing: CLI tenant specs and JSON traces                               #
# ---------------------------------------------------------------------- #

_TENANT_FIELDS = {
    "name": str,
    "model": str,
    "arrival": str,
    "qps": float,
    "requests": int,
    "priority": int,
    "slo_ms": float,
    "input_hw": int,
    "seq": int,
    "think_ms": float,
    "concurrency": int,
    "burst_on_ms": float,
    "burst_off_ms": float,
    "pin_tile": int,
}

_FIELD_RENAME = {"qps": "rate_qps", "requests": "num_requests"}


def parse_tenant(text: str, default_name: str | None = None) -> TenantSpec:
    """Parse a ``key=value,key=value`` tenant spec (the ``--tenant`` flag).

    Example: ``model=resnet50,qps=40,requests=16,slo_ms=50,priority=1``.
    """
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad tenant field {part!r} in {text!r}: expected key=value "
                f"with keys {sorted(_TENANT_FIELDS)}"
            )
        key, __, raw = part.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _TENANT_FIELDS:
            raise ValueError(f"unknown tenant field {key!r}; known: {sorted(_TENANT_FIELDS)}")
        kwargs[_FIELD_RENAME.get(key, key)] = _TENANT_FIELDS[key](raw.strip())
    if "model" not in kwargs:
        raise ValueError(f"tenant spec {text!r} needs model=<zoo name>")
    kwargs.setdefault("name", default_name or kwargs["model"])
    return TenantSpec(**kwargs)


def load_trace_profile(path: str | Path, **profile_kwargs) -> TrafficProfile:
    """Load a JSON request trace into a replayable :class:`TrafficProfile`.

    Format::

        {"tenants": [{"name": "teamA", "model": "resnet50",
                      "arrival_ms": [0.0, 4.2, 9.1], "slo_ms": 50,
                      "priority": 1, "input_hw": 224}, ...]}
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    tenants = []
    for entry in data["tenants"]:
        tenants.append(
            TenantSpec(
                name=entry.get("name", entry["model"]),
                model=entry["model"],
                arrival="trace",
                trace_ms=tuple(float(ms) for ms in entry["arrival_ms"]),
                priority=int(entry.get("priority", 0)),
                slo_ms=entry.get("slo_ms"),
                input_hw=int(entry.get("input_hw", 64)),
                seq=int(entry.get("seq", 32)),
                pin_tile=entry.get("pin_tile"),
            )
        )
    return TrafficProfile(tenants=tuple(tenants), **profile_kwargs)
