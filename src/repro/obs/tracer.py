"""Run-scoped tracing: spans, instant events and counters on named lanes.

One :class:`Tracer` belongs to one run (a serving simulation, a DSE
search, a single model execution) and is stamped with a ``run_id`` and the
run's seed, so every exported artifact can be traced back to the exact
command that produced it.  Instrumented code holds a tracer reference and
calls it unconditionally; when tracing is off the reference is the
:data:`NULL_TRACER` singleton, whose methods are empty — the disabled cost
is one no-op method call per event site, with no ``if enabled`` branches
sprinkled through the hot paths.

Timebases: every event records a raw timestamp in the tracer's own unit
(simulated cycles for the simulation tracers, wall-clock seconds for the
orchestration tracers) and ``ts_scale`` converts it to the microseconds
the Chrome Trace Event Format expects at export time
(:mod:`repro.obs.export`).  Use :meth:`Tracer.for_cycles` /
:meth:`Tracer.wall` rather than picking a scale by hand.

Lanes are plain strings; a lane maps to one Perfetto track (``tid``) and
its ``process`` groups lanes into track groups (``pid``) — tiles under the
serving process, tenants under traffic, workers under the runner.
"""

from __future__ import annotations

import time

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


def _default_run_id() -> str:
    # Lazy: the shared stamping helper lives in the package root (it also
    # stamps MetricStream snapshots and ledger records); importing it at
    # module scope would cycle through the package init.
    from repro.obs import new_run_id

    return new_run_id()


class Tracer:
    """Collects spans/instants/counters for one run.

    Events accumulate as plain tuples (one append per event) and are only
    shaped into Chrome Trace Event dictionaries at export time, keeping
    the in-flight cost of an enabled tracer to one tuple build per event.
    """

    __slots__ = ("run_id", "seed", "ts_scale", "enabled", "_epoch", "_events", "_lanes")

    def __init__(
        self,
        run_id: str | None = None,
        seed: int | None = None,
        ts_scale: float = 1.0,
    ) -> None:
        self.run_id = run_id if run_id is not None else _default_run_id()
        self.seed = seed
        #: multiplier taking raw timestamps to Chrome-trace microseconds
        self.ts_scale = ts_scale
        self.enabled = True
        self._epoch = time.time()
        #: ("X", lane, name, start, end, args) | ("i", lane, name, ts, args)
        #: | ("C", lane, name, ts, value)
        self._events: list[tuple] = []
        #: lane -> (process, label, sort) declared display metadata
        self._lanes: dict[str, tuple[str, str, int | None]] = {}

    # -- construction helpers ------------------------------------------- #

    @classmethod
    def for_cycles(
        cls, clock_ghz: float, run_id: str | None = None, seed: int | None = None
    ) -> "Tracer":
        """A tracer whose timestamps are simulated cycles at ``clock_ghz``
        (exported microseconds are simulated time, not wall time)."""
        return cls(run_id=run_id, seed=seed, ts_scale=1.0 / (clock_ghz * 1e3))

    @classmethod
    def wall(cls, run_id: str | None = None, seed: int | None = None) -> "Tracer":
        """A tracer whose timestamps are wall-clock seconds (see
        :meth:`now`) — for orchestration layers that run in real time."""
        return cls(run_id=run_id, seed=seed, ts_scale=1e6)

    def now(self) -> float:
        """Wall seconds since this tracer was created.

        Based on ``time.time()`` so timestamps measured inside worker
        *processes* (which cannot share a ``perf_counter`` origin) land on
        the same axis; microsecond-ish resolution is plenty for spans that
        represent whole experiment evaluations.
        """
        return time.time() - self._epoch

    def to_timeline(self, wall_seconds: float) -> float:
        """Map an absolute ``time.time()`` stamp onto this tracer's axis."""
        return wall_seconds - self._epoch

    # -- lanes ----------------------------------------------------------- #

    def declare_lane(
        self, lane: str, process: str = "run", label: str | None = None, sort: int | None = None
    ) -> None:
        """Attach display metadata to a lane (process group, label, order).

        Optional — an undeclared lane shows up under the default process
        with its key as the label; declaring twice keeps the first entry
        (the caller closest to the run start knows the layout best).
        """
        if lane not in self._lanes:
            self._lanes[lane] = (process, label or lane, sort)

    # -- events ---------------------------------------------------------- #

    def complete(
        self, lane: str, name: str, start: float, end: float, args: dict | None = None
    ) -> None:
        """One finished span on ``lane`` — the only span primitive (the
        simulators know both endpoints by the time anything is recorded).

        Spans never nest: a lane's spans must not overlap, so each exports
        as one Chrome ``X`` event and a lane's busy time is their sum."""
        self._events.append(("X", lane, name, start, end, args))

    def instant(self, lane: str, name: str, ts: float, args: dict | None = None) -> None:
        """A zero-duration marker (request arrival, cache hit, ...)."""
        self._events.append(("i", lane, name, ts, args))

    def counter(self, lane: str, name: str, ts: float, value: float) -> None:
        """One sample of a named counter series (queue depth, front size)."""
        self._events.append(("C", lane, name, ts, value))

    # -- introspection ---------------------------------------------------- #

    def events(self) -> list[tuple]:
        """The raw event tuples, in emission order (mainly for tests)."""
        return list(self._events)

    def span_count(self) -> int:
        return sum(1 for e in self._events if e[0] == "X")

    def lanes(self) -> dict[str, tuple[str, str, int | None]]:
        return dict(self._lanes)

    def __bool__(self) -> bool:
        """Truthiness == "is anyone listening"; lets a call site guard an
        *expensive argument computation* (never the event call itself)."""
        return self.enabled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer({self.run_id!r}, seed={self.seed}, events={len(self._events)})"


class NullTracer(Tracer):
    """The disabled tracer: every recording method is an empty body.

    A singleton (:data:`NULL_TRACER`) so instrumented code can keep an
    unconditional ``self.tracer.complete(...)`` on its hot path — the
    disabled overhead is one no-argument-evaluation method call, measured
    within noise of no instrumentation at all by ``benchmarks/bench_obs``.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(run_id="null")
        self.enabled = False

    def now(self) -> float:
        # Call sites pass ``tracer.now()`` as an event timestamp; skip the
        # clock read entirely when nobody is listening.
        return 0.0

    def declare_lane(self, lane, process="run", label=None, sort=None) -> None:
        pass

    def complete(self, lane, name, start, end, args=None) -> None:
        pass

    def instant(self, lane, name, ts, args=None) -> None:
        pass

    def counter(self, lane, name, ts, value) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_TRACER = NullTracer()
