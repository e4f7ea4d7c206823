"""Statistics primitives: counters, histograms, rate windows, time series.

Every architectural model exposes a :class:`StatsRegistry` so experiments can
pull hit rates, miss traces, and utilisation without the models knowing what
experiment they are part of.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence


class Counter:
    """A named monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """An exact histogram over numeric samples: one bucket per distinct
    value, so every percentile is an observed value (e.g. latency in whole
    cycles for serving reports, float milliseconds in a metric stream)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: dict[float, int] = {}
        self.total = 0
        self.count = 0

    def record(self, value: float, weight: int = 1) -> None:
        self.buckets[value] = self.buckets.get(value, 0) + weight
        self.total += value * weight
        self.count += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return max(self.buckets) if self.buckets else 0

    @property
    def min(self) -> float:
        return min(self.buckets) if self.buckets else 0

    def percentile(self, p: float) -> float:
        """Return the smallest value v with P(sample <= v) >= p."""
        return self.percentiles((p,))[0]

    def percentiles(self, ps: "Sequence[float]") -> list[float]:
        """Several percentiles over ONE sorted sweep of the buckets.

        Sorting the bucket keys dominates percentile cost, so answering
        ``(p50, p95, p99)`` with one sort instead of one per quantile makes
        the serving report's per-tenant digests ~3x cheaper.  ``ps`` need
        not be sorted; results come back in the order asked.
        """
        if any(not 0.0 <= p <= 1.0 for p in ps):
            raise ValueError("p must be in [0, 1]")
        if not self.buckets:
            return [0] * len(ps)
        ordered = sorted(range(len(ps)), key=lambda i: ps[i])
        out = [0] * len(ps)
        values = sorted(self.buckets)
        running = 0
        vi = 0
        for i in ordered:
            threshold = ps[i] * self.count
            while running < threshold and vi < len(values):
                running += self.buckets[values[vi]]
                vi += 1
            # vi now points one past the bucket that crossed the threshold
            # (or past the end for p == 0 edge: the smallest value wins).
            out[i] = values[max(0, vi - 1)] if threshold > 0 else values[0]
        return out

    def summary(self) -> dict[str, float]:
        """The distribution digest metric-stream snapshots are built from
        (all three quantiles answered by one :meth:`percentiles` sweep)."""
        p50, p95, p99 = self.percentiles((0.50, 0.95, 0.99))
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "max": float(self.max),
        }

    def reset(self) -> None:
        self.buckets.clear()
        self.total = 0
        self.count = 0


class TimeSeries:
    """An append-only series of (time, value) samples."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def reset(self) -> None:
        self.times.clear()
        self.values.clear()


class RateWindow:
    """Windowed event-rate tracker (e.g. TLB miss rate of recent requests).

    Records binary outcomes and emits the fraction of positive outcomes over
    each window of ``window`` events into a :class:`TimeSeries`.  This is the
    mechanism behind the paper's Figure 4 ("miss rate over recent requests").
    """

    def __init__(self, name: str, window: int = 256) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self.series = TimeSeries(name)
        self._hits_in_window = 0
        self._seen_in_window = 0

    def record(self, time: float, positive: bool, weight: int = 1) -> None:
        if weight < 0:
            raise ValueError("weight must be non-negative")
        # A weighted record can cross one or more window boundaries (e.g. a
        # burst of block accesses reported as one event); fold it in window
        # by window so every emitted rate covers exactly ``window`` events
        # instead of one rate over an oversized window.
        remaining = weight
        while remaining > 0:
            take = min(remaining, self.window - self._seen_in_window)
            if positive:
                self._hits_in_window += take
            self._seen_in_window += take
            remaining -= take
            if self._seen_in_window >= self.window:
                self.series.record(time, self._hits_in_window / self._seen_in_window)
                self._hits_in_window = 0
                self._seen_in_window = 0

    def record_each(self, times: Sequence[float], positive_at: Sequence[int]) -> None:
        """Record one unweighted outcome per event of ``times``, in order.

        The events at the increasing indices ``positive_at`` are positive,
        the rest negative.  Emits exactly what one :meth:`record` call per
        event emits: each full window's rate at its last event's time.  The
        work is per window and per positive, not per event, so a stream of
        rare positives (the translation pass's TLB misses) is cheap.
        """
        window = self.window
        seen = self._seen_in_window
        hits = self._hits_in_window
        counted = 0  # positives folded into emitted windows so far
        # The event that fills the pending window, then every window-th one.
        for last in range(window - seen - 1, len(times), window):
            upto = bisect_right(positive_at, last, counted)
            self.series.record(times[last], (hits + upto - counted) / window)
            hits = 0
            counted = upto
        self._hits_in_window = hits + len(positive_at) - counted
        self._seen_in_window = (seen + len(times)) % window

    def flush(self, time: float) -> None:
        """Emit a final partial window, if any events are pending."""
        if self._seen_in_window:
            self.series.record(time, self._hits_in_window / self._seen_in_window)
            self._hits_in_window = 0
            self._seen_in_window = 0

    def reset(self) -> None:
        self.series.reset()
        self._hits_in_window = 0
        self._seen_in_window = 0


@dataclass
class StatsRegistry:
    """A namespace of counters owned by one component."""

    owner: str = "stats"
    counters: dict[str, Counter] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def value(self, name: str) -> int:
        """Counter value, 0 if the counter was never touched."""
        counter = self.counters.get(name)
        return counter.value if counter else 0

    def ratio(self, numerator: str, denominator: str) -> float:
        den = self.value(denominator)
        return self.value(numerator) / den if den else 0.0

    def reset(self) -> None:
        for counter in self.counters.values():
            counter.reset()

    def snapshot(self) -> dict[str, int]:
        return {name: counter.value for name, counter in self.counters.items()}
