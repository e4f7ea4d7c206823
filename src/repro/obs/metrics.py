"""Streaming metrics: percentiles and rates while a run is in flight.

A :class:`MetricStream` keeps one exact :class:`repro.sim.stats.Histogram`
per observed name, so the p50/p95/p99 it reports mid-run are the same
nearest-rank order statistics a post-hoc report computes from the same
samples.  A snapshot sorts each distribution's distinct values, so its
cost grows as O(n log n) in the values observed so far.

A stream periodically folds its histograms, counters and sums into
snapshot dictionaries (:meth:`MetricStream.tick`), giving live consoles
and the ``--metrics-out`` exporters a time series of in-flight metrics
instead of one end-of-run aggregate.  Like the tracer, the disabled form
is a no-op singleton (:data:`NULL_METRICS`), not a flag checked at every
call site.
"""

from __future__ import annotations

from repro.sim.stats import Histogram

__all__ = ["MetricStream", "NullMetricStream", "NULL_METRICS"]


class MetricStream:
    """Named histograms, counters and sums plus their snapshot history.

    * :meth:`observe` records into an exact value distribution (latency,
      queue delay): a snapshot's pNN is the nearest-rank order statistic
      of every value observed so far;
    * :meth:`mark` bumps a monotone event counter (completions, SLO hits);
    * :meth:`acc` accumulates a sum (busy cycles per tile);
    * :meth:`tick` freezes everything — plus caller-computed gauges like
      goodput — into one snapshot dict appended to :attr:`snapshots` and
      pushed to the optional ``on_snapshot`` live consumer.

    Units are the caller's; the stream never converts.  ``every`` is the
    tick cadence hint consumers like the serving engine use (snapshot
    every N completions).

    Streams are stamped like tracers: ``run_id``/``seed`` default through
    :func:`repro.obs.new_run_id` and ride into every exported metrics
    document, so a ``--metrics-out`` file joins against the run ledger
    (pass the same id to the tracer, the stream and the ledger record).
    """

    def __init__(
        self,
        every: int = 64,
        on_snapshot=None,
        run_id: str | None = None,
        seed: int | None = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if run_id is None:
            # Lazy: the shared stamping helper lives in the package root.
            from repro.obs import new_run_id

            run_id = new_run_id("metrics")
        self.run_id = run_id
        self.seed = seed
        self.every = every
        self.on_snapshot = on_snapshot
        self.distributions: dict[str, Histogram] = {}
        self.counters: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.snapshots: list[dict] = []

    def observe(self, name: str, value: float) -> None:
        dist = self.distributions.get(name)
        if dist is None:
            dist = self.distributions[name] = Histogram(name)
        dist.record(value)

    def mark(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def acc(self, name: str, amount: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + amount

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def due(self) -> bool:
        """True when ``every`` more events have been marked since the last
        tick (keyed on the ``completed`` counter by convention)."""
        return self.counters.get("completed", 0) % self.every == 0

    def current(self, extra: dict | None = None) -> dict:
        """The live view: every distribution's summary, flat, right now."""
        snap: dict = {}
        for name, value in self.counters.items():
            snap[name] = value
        for name, value in self.sums.items():
            snap[name] = value
        for name, dist in self.distributions.items():
            for key, value in dist.summary().items():
                snap[f"{name}_{key}"] = value
            snap[f"{name}_min"] = float(dist.min)
        if extra:
            snap.update(extra)
        return snap

    def tick(self, t: float, extra: dict | None = None) -> dict:
        """Record (and return) one snapshot stamped at time ``t``."""
        snap = {"t": t}
        snap.update(self.current(extra))
        self.snapshots.append(snap)
        if self.on_snapshot is not None:
            self.on_snapshot(snap)
        return snap

    def __bool__(self) -> bool:
        return True


class NullMetricStream(MetricStream):
    """The disabled stream: observation methods are empty bodies, so hot
    loops keep unconditional calls (mirror of :class:`NullTracer`)."""

    def __init__(self) -> None:
        super().__init__(run_id="null")

    def observe(self, name: str, value: float) -> None:
        pass

    def mark(self, name: str, n: int = 1) -> None:
        pass

    def acc(self, name: str, amount: float) -> None:
        pass

    def due(self) -> bool:
        return False

    def tick(self, t: float, extra: dict | None = None) -> dict:
        return {}

    def __bool__(self) -> bool:
        return False


NULL_METRICS = NullMetricStream()
