"""Streaming metrics: percentile/rate estimation while a run is in flight.

:class:`repro.sim.stats.Histogram` answers "what were the percentiles"
after a run; this module answers "what *are* they" during one.  The
:class:`P2Quantile` estimator (Jain & Chlamtac's P² algorithm) tracks one
quantile in O(1) memory per observation — five markers, no samples kept —
so a :class:`MetricStream` can report p50/p95/p99, goodput and utilisation
at any point of a simulation with millions of requests still to come.

A stream periodically folds its estimators into snapshot dictionaries
(:meth:`MetricStream.tick`), giving live consoles and the
``--metrics-out`` exporters a time series of in-flight metrics instead of
one end-of-run aggregate.  Like the tracer, the disabled form is a no-op
singleton (:data:`NULL_METRICS`), not a flag checked at every call site.
"""

from __future__ import annotations

__all__ = ["P2Quantile", "LatencySketch", "MetricStream", "NullMetricStream", "NULL_METRICS"]


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    Exact for the first five observations (they are kept sorted); from the
    sixth on, five markers track (min, p/2, p, (1+p)/2, max) heights and
    move by parabolic (or, degenerately, linear) interpolation.  Accuracy
    on unimodal latency-shaped distributions is a few percent — plenty for
    a live dashboard; the post-hoc Histogram remains the exact record.
    """

    __slots__ = ("p", "_q", "_n", "_count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        self.p = p
        self._q: list[float] = []  # marker heights
        self._n: list[float] = []  # marker positions (1-based)
        self._count = 0

    def observe(self, x: float) -> None:
        self._count += 1
        q, n = self._q, self._n
        if self._count <= 5:
            q.append(x)
            q.sort()
            if self._count == 5:
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
            return

        # Locate the cell and clamp the extremes.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0

        # Desired positions for (min, p/2, p, (1+p)/2, max).
        count = self._count
        p = self.p
        desired = (
            1.0,
            1.0 + (count - 1) * p / 2.0,
            1.0 + (count - 1) * p,
            1.0 + (count - 1) * (1.0 + p) / 2.0,
            float(count),
        )
        for i in (1, 2, 3):
            d = desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (d <= -1.0 and n[i - 1] - n[i] < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def count(self) -> int:
        return self._count

    def value(self) -> float:
        """The current estimate (exact below five observations)."""
        if self._count == 0:
            return 0.0
        if self._count < 5:
            # Nearest-rank on the sorted prefix, matching Histogram's
            # "smallest v with P(sample <= v) >= p" convention.
            rank = max(1, -(-self._count * self.p // 1))  # ceil
            return self._q[min(int(rank), self._count) - 1]
        return self._q[2]


#: default quantiles every observed distribution tracks
DEFAULT_QUANTILES = (0.50, 0.95, 0.99)


class LatencySketch:
    """A fixed-size value digest: exact count/mean/extrema + P² quantiles.

    The one streaming distribution: :class:`MetricStream` keeps one per
    observed name.  Offers the slice of :class:`~repro.sim.stats.Histogram`
    a reader needs (``record``/``mean``/``max``/``min``/``percentile``)
    while holding five markers per tracked quantile instead of one bucket
    per distinct value.  Exact below five observations (P² keeps the sorted
    prefix), a few percent on tail quantiles beyond.
    """

    __slots__ = ("name", "count", "total", "_min", "_max", "_quantiles")

    def __init__(self, name: str, quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self._min = None
        self._max = None
        self._quantiles = {p: P2Quantile(p) for p in quantiles}

    def record(self, value: float, weight: int = 1) -> None:
        for __ in range(weight):
            self.count += 1
            self.total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            for est in self._quantiles.values():
                est.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0

    def percentile(self, p: float) -> float:
        try:
            return self._quantiles[p].value()
        except KeyError:
            raise ValueError(
                f"streaming sketch tracks quantiles {tuple(self._quantiles)}, not {p}"
            ) from None

    def summary(self) -> dict[str, float]:
        """Flat snapshot fields: count/mean, then min/max/pNN once observed."""
        if not self.count:
            return {"count": 0.0, "mean": 0.0}
        out = {"count": float(self.count), "mean": self.mean, "min": self._min, "max": self._max}
        for p, est in self._quantiles.items():
            out[f"p{round(p * 100)}"] = est.value()
        return out


class MetricStream:
    """A named bundle of streaming estimators plus its snapshot history.

    * :meth:`observe` feeds a value distribution (latency, queue delay);
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
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
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
        self.quantile_ps = tuple(quantiles)
        self.every = every
        self.on_snapshot = on_snapshot
        self.distributions: dict[str, LatencySketch] = {}
        self.counters: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.snapshots: list[dict] = []

    def observe(self, name: str, value: float) -> None:
        dist = self.distributions.get(name)
        if dist is None:
            dist = self.distributions[name] = LatencySketch(name, self.quantile_ps)
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
        """The live view: every estimator's summary, flat, right now."""
        snap: dict = {}
        for name, value in self.counters.items():
            snap[name] = value
        for name, value in self.sums.items():
            snap[name] = value
        for name, dist in self.distributions.items():
            for key, value in dist.summary().items():
                snap[f"{name}_{key}"] = value
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
