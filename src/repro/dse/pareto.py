"""Pareto machinery: domination, fronts, hypervolume, metric constraints.

All routines work on minimisation-coordinate vectors produced by
:meth:`repro.dse.objectives.Evaluation.vector`, so maximisation
objectives are already sign-flipped by the time they arrive here.

:func:`split_front` finds the front of a whole set in one sorted sweep;
:class:`ParetoArchive` is the online form of that sweep, keeping the front
of everything added so far at O(front) comparisons per point, so a search
loop pays for its new points rather than for the size of its history.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from repro.dse.objectives import Evaluation, Objective

__all__ = [
    "dominates",
    "split_front",
    "ParetoArchive",
    "nondominated_sort",
    "crowding_distance",
    "reference_point",
    "hypervolume",
    "front_hypervolume",
    "MetricBound",
    "parse_bound",
]


# ---------------------------------------------------------------------- #
# Domination                                                              #
# ---------------------------------------------------------------------- #


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` (minimisation: no worse in all
    dimensions and strictly better in at least one)."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def _on_front(vectors: Sequence[tuple[float, ...]]) -> list[bool]:
    """Which ``vectors`` no other vector dominates, in input order.

    A dominator is no worse in every dimension, so it sorts lexicographically
    before what it dominates; and every dominated vector is dominated by some
    front vector too (domination is transitive).  One sorted sweep that tests
    each vector against the front found so far is therefore exact, at
    O(n·front) instead of O(n²) comparisons.  Duplicates stay on the front:
    no vector strictly dominates its twin.
    """
    mask = [False] * len(vectors)
    front: list[tuple[float, ...]] = []
    for i in sorted(range(len(vectors)), key=vectors.__getitem__):
        v = vectors[i]
        if not any(dominates(f, v) for f in front):
            front.append(v)
            mask[i] = True
    return mask


def split_front(
    evaluations: Sequence[Evaluation], objectives: tuple[Objective, ...]
) -> tuple[list[Evaluation], list[Evaluation]]:
    """Partition into (non-dominated front, dominated rest), both in input order.

    Duplicate objective vectors all stay on the front (none strictly
    dominates its twin), which keeps the split deterministic.
    """
    mask = _on_front([e.vector(objectives) for e in evaluations])
    front = [e for e, keep in zip(evaluations, mask) if keep]
    rest = [e for e, keep in zip(evaluations, mask) if not keep]
    return front, rest


class ParetoArchive:
    """The non-dominated front of every evaluation added so far.

    Holds the same members, in the same (admission) order, as
    ``split_front(added)[0]``: a dominated point is dominated by some front
    member (domination is transitive), so testing a newcomer against the
    front alone is exact.  Duplicate vectors all stay, as in
    :func:`split_front`.  Each member's objective vector is computed once,
    on admission, and kept beside it in :attr:`vectors`.
    """

    def __init__(self, objectives: tuple[Objective, ...]) -> None:
        self.objectives = objectives
        self.front: list[Evaluation] = []
        self.vectors: list[tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self.front)

    def add(self, evaluation: Evaluation) -> bool:
        """Admit ``evaluation`` unless a front member dominates it, evicting
        the members it dominates; True if it joined the front."""
        v = evaluation.vector(self.objectives)
        le = operator.le
        # all(map(le, ...)) is "no worse everywhere"; != makes it strict.
        if any(all(map(le, f, v)) and f != v for f in self.vectors):
            return False
        evicted = [all(map(le, v, f)) and f != v for f in self.vectors]
        if any(evicted):
            self.front = [e for e, out in zip(self.front, evicted) if not out]
            self.vectors = [f for f, out in zip(self.vectors, evicted) if not out]
        self.front.append(evaluation)
        self.vectors.append(v)
        return True


def nondominated_sort(
    evaluations: Sequence[Evaluation], objectives: tuple[Objective, ...]
) -> list[list[Evaluation]]:
    """Successive Pareto fronts (NSGA-style rank 0, 1, 2, ...)."""
    remaining = list(evaluations)
    fronts: list[list[Evaluation]] = []
    while remaining:
        front, remaining = split_front(remaining, objectives)
        fronts.append(front)
    return fronts


def crowding_distance(
    front: Sequence[Evaluation],
    objectives: tuple[Objective, ...],
    vectors: Sequence[tuple[float, ...]] | None = None,
) -> dict[int, float]:
    """NSGA-II crowding distance, keyed by index into ``front``.

    Boundary points get infinity so selection always keeps the extremes.
    ``vectors`` are the members' objective vectors when the caller already
    holds them (a :class:`ParetoArchive` does); else they are computed.
    """
    n = len(front)
    distance = {i: 0.0 for i in range(n)}
    if n <= 2:
        return {i: float("inf") for i in range(n)}
    if vectors is None:
        vectors = [e.vector(objectives) for e in front]
    for d in range(len(objectives)):
        order = sorted(range(n), key=lambda i: vectors[i][d])
        lo, hi = vectors[order[0]][d], vectors[order[-1]][d]
        distance[order[0]] = distance[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for rank in range(1, n - 1):
            i = order[rank]
            gap = vectors[order[rank + 1]][d] - vectors[order[rank - 1]][d]
            distance[i] += gap / span
    return distance


# ---------------------------------------------------------------------- #
# Hypervolume                                                             #
# ---------------------------------------------------------------------- #


def reference_point(
    evaluations: Sequence[Evaluation],
    objectives: tuple[Objective, ...],
    margin: float = 0.1,
) -> tuple[float, ...]:
    """Nadir of the evaluated set pushed ``margin`` of each span outward,
    so every evaluated point contributes non-zero hypervolume."""
    if not evaluations:
        raise ValueError("need at least one evaluation for a reference point")
    vectors = [e.vector(objectives) for e in evaluations]
    ref = []
    for d in range(len(objectives)):
        values = [v[d] for v in vectors]
        span = max(values) - min(values)
        ref.append(max(values) + margin * span + 1e-12)
    return tuple(ref)


def hypervolume(vectors: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Dominated hypervolume of minimisation vectors w.r.t. ``reference``.

    Recursive objective slicing: exact in any dimension, O(n^d)-ish, fine
    for the front sizes a budgeted search produces.  Points not strictly
    better than the reference in every dimension contribute nothing.
    """
    ref = tuple(float(r) for r in reference)
    pts = [tuple(float(x) for x in v) for v in vectors if all(x < r for x, r in zip(v, ref))]
    return _hv(pts, ref)


def _hv(pts: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    # The sweeps below run over the distinct non-dominated points, sorted.
    unique = sorted(set(pts))
    pts = [v for v, keep in zip(unique, _on_front(unique)) if keep]
    if not pts:
        return 0.0
    if len(ref) == 1:
        return ref[0] - min(p[0] for p in pts)
    if len(ref) == 2:
        # Staircase sweep: ascending x gives descending y on a clean front.
        hv = 0.0
        prev_y = ref[1]
        for x, y in sorted(pts):
            if y < prev_y:
                hv += (ref[0] - x) * (prev_y - y)
                prev_y = y
        return hv
    # Slice along the last objective: between consecutive levels, the
    # dominated region is the (d-1)-dim hypervolume of the points already
    # at or below the slab floor.
    levels = sorted({p[-1] for p in pts})
    hv = 0.0
    for i, z in enumerate(levels):
        upper = levels[i + 1] if i + 1 < len(levels) else ref[-1]
        slab = upper - z
        hv += slab * _hv([p[:-1] for p in pts if p[-1] <= z], ref[:-1])
    return hv


def front_hypervolume(
    evaluations: Sequence[Evaluation],
    objectives: tuple[Objective, ...],
    reference: Sequence[float],
) -> float:
    return hypervolume([e.vector(objectives) for e in evaluations], reference)


# ---------------------------------------------------------------------- #
# Metric constraints (feasibility, not domination)                        #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class MetricBound:
    """A feasibility bound on one metric, e.g. area_mm2 <= 4.0."""

    metric: str
    op: str  # "<=" | ">="
    value: float

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError(f"bound op must be <= or >=, got {self.op!r}")

    def satisfied(self, evaluation: Evaluation) -> bool:
        measured = evaluation.metric(self.metric)
        return measured <= self.value if self.op == "<=" else measured >= self.value

    def violation(self, evaluation: Evaluation) -> float:
        """Relative overshoot (0 when satisfied) — a feasibility gradient
        annealing can descend even when everything seen violates bounds."""
        measured = evaluation.metric(self.metric)
        excess = measured - self.value if self.op == "<=" else self.value - measured
        return max(0.0, excess / max(abs(self.value), 1e-12))

    def __str__(self) -> str:
        return f"{self.metric} {self.op} {self.value:g}"


def parse_bound(text: str) -> MetricBound:
    """Parse ``"metric<=value"`` / ``"metric>=value"`` CLI constraints."""
    for op in ("<=", ">="):
        if op in text:
            metric, __, raw = text.partition(op)
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"bad bound value in {text!r}") from None
            metric = metric.strip()
            if not metric:
                raise ValueError(f"bad bound {text!r}: missing metric name")
            return MetricBound(metric=metric, op=op, value=value)
    raise ValueError(f"bad bound {text!r}: expected metric<=value or metric>=value")
