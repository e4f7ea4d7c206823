"""Statistics primitives: counter registries, histograms, rate windows,
time series.

Every architectural model exposes a :class:`StatsRegistry` so experiments can
pull hit rates, miss traces, and utilisation without the models knowing what
experiment they are part of.  A registry's counters are plain ints, and each
count a component keeps lives there once: the bus and DRAM byte counts are
their registries' ``bytes`` counters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Sequence


class Histogram:
    """An exact histogram over numeric samples: one bucket per distinct
    value, so every percentile is an observed value (e.g. latency in whole
    cycles for serving reports, float milliseconds in a metric stream)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: dict[float, int] = {}
        self.total = 0
        self.count = 0
        # The bucket keys in ascending order, as of the last
        # :meth:`_sorted_keys` call; keys only ever append to ``buckets``.
        self._sorted: list[float] = []

    def record(self, value: float, weight: int = 1) -> None:
        """Add ``weight`` (a non-negative count) samples of ``value``."""
        self.buckets[value] = self.buckets.get(value, 0) + weight
        self.total += value * weight
        self.count += weight

    def _sorted_keys(self) -> list[float]:
        """Every bucket key in ascending order.

        ``buckets`` keeps insertion order and never drops a key before
        :meth:`reset`, so the keys past the sorted prefix are exactly the
        ones recorded since the last call: they are sorted on their own and
        merged in, which Timsort does in one linear pass over two runs.
        """
        keys = self._sorted
        if len(keys) < len(self.buckets):
            keys += sorted(islice(self.buckets, len(keys), None))
            keys.sort()
        return keys

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return self._sorted_keys()[-1] if self.buckets else 0

    @property
    def min(self) -> float:
        return self._sorted_keys()[0] if self.buckets else 0

    def percentile(self, p: float) -> float:
        """Return the smallest value v with P(sample <= v) >= p."""
        return self.percentiles((p,))[0]

    def percentiles(self, ps: "Sequence[float]") -> list[float]:
        """Several percentiles over ONE running sum of the sorted buckets.

        ``ps`` need not be sorted; results come back in the order asked.
        Each is the first value whose running count reaches ``p * count``
        (the smallest value for ``p == 0``).  The sorted keys persist
        between calls, so a caller asking after every few records (a
        metric stream) pays for sorting only the new keys.
        """
        if any(not 0.0 <= p <= 1.0 for p in ps):
            raise ValueError("p must be in [0, 1]")
        if not self.buckets:
            return [0] * len(ps)
        values = self._sorted_keys()
        # Weights are non-negative, so the running counts never decrease.
        running = list(accumulate(map(self.buckets.__getitem__, values)))
        last = len(values) - 1
        out = []
        for p in ps:
            threshold = p * self.count
            i = bisect_left(running, threshold) if threshold > 0 else 0
            out.append(values[i if i < last else last])
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
        self._sorted.clear()
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
    """A namespace of int counters owned by one component.

    :meth:`add` creates a counter on its first call (even for 0) and
    :meth:`reset` zeroes counters without dropping them, so a snapshot
    lists every counter ever touched, in first-touch order.
    """

    owner: str = "stats"
    counters: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def value(self, name: str) -> int:
        """Counter value, 0 if the counter was never touched."""
        return self.counters.get(name, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        den = self.value(denominator)
        return self.value(numerator) / den if den else 0.0

    def reset(self) -> None:
        counters = self.counters
        for name in counters:
            counters[name] = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.counters)
