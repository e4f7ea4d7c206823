"""Pareto machinery: domination, fronts, hypervolume, bounds."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dse.objectives import Evaluation, parse_objectives
from repro.dse.pareto import (
    MetricBound,
    ParetoArchive,
    crowding_distance,
    dominates,
    hypervolume,
    nondominated_sort,
    parse_bound,
    reference_point,
    split_front,
)

OBJS = parse_objectives("latency_ms,area_mm2")
OBJS3 = parse_objectives("latency_ms,area_mm2,power_mw")


def make_eval(latency, area, power=1.0):
    metrics = (("area_mm2", float(area)), ("latency_ms", float(latency)), ("power_mw", float(power)))
    return Evaluation(point=(("id", f"{latency}/{area}/{power}"),), config_summary="t", metrics=metrics)


class TestDominates:
    def test_strict(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (2.0, 2.0))  # equal never dominates

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))


# Random evaluation sets for the property tests.
eval_sets = st.lists(
    st.tuples(
        st.floats(0.1, 100.0, allow_nan=False),
        st.floats(0.1, 100.0, allow_nan=False),
        st.floats(0.1, 100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=24,
)


class TestSplitFront:
    @given(eval_sets)
    def test_front_mutually_nondominated(self, values):
        """Property (satellite): no front member dominates another."""
        evals = [make_eval(*v) for v in values]
        front, __ = split_front(evals, OBJS3)
        vectors = [e.vector(OBJS3) for e in front]
        assert front
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                assert i == j or not dominates(a, b)

    @given(eval_sets)
    def test_discarded_points_are_dominated_and_dominate_nothing(self, values):
        """Property (satellite): every discarded point is dominated by a
        front member, and no discarded point dominates any front member."""
        evals = [make_eval(*v) for v in values]
        front, discarded = split_front(evals, OBJS3)
        fvs = [e.vector(OBJS3) for e in front]
        for d in discarded:
            dv = d.vector(OBJS3)
            assert any(dominates(f, dv) for f in fvs)
            assert not any(dominates(dv, f) for f in fvs)

    def test_ties_stay_on_front(self):
        evals = [make_eval(1, 1), make_eval(1, 1), make_eval(2, 2)]
        front, discarded = split_front(evals, OBJS)
        assert len(front) == 2 and len(discarded) == 1


def reference_split(vectors):
    """Brute-force front mask: test every vector against every other."""
    return [
        not any(dominates(u, v) for j, u in enumerate(vectors) if j != i)
        for i, v in enumerate(vectors)
    ]


def reference_hypervolume(vectors, ref):
    """Exact hypervolume by summing every cell of the coordinate grid that
    some vector (pairwise-filtered to the front) dominates."""
    pts = [v for v, keep in zip(vectors, reference_split(vectors)) if keep]
    pts = [v for v in pts if all(x < r for x, r in zip(v, ref))]
    axes = [sorted({p[d] for p in pts} | {ref[d]}) for d in range(len(ref))]
    total = 0.0
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        low = [axes[d][i] for d, i in enumerate(cell)]
        if any(all(p[d] <= low[d] for d in range(len(ref))) for p in pts):
            total += math.prod(axes[d][i + 1] - axes[d][i] for d, i in enumerate(cell))
    return total


# Small integer coordinates force ties in single dimensions and duplicates.
tied_vectors = st.lists(
    st.tuples(*(st.integers(0, 4).map(float) for __ in range(3))),
    min_size=0,
    max_size=16,
)


class TestAgainstPairwiseReference:
    @given(tied_vectors)
    def test_split_front_matches_pairwise(self, values):
        evals = [make_eval(*v) for v in values]
        front, rest = split_front(evals, OBJS3)
        mask = reference_split([e.vector(OBJS3) for e in evals])
        assert front == [e for e, keep in zip(evals, mask) if keep]
        assert rest == [e for e, keep in zip(evals, mask) if not keep]

    @given(tied_vectors, st.integers(2, 3))
    def test_hypervolume_matches_pairwise(self, values, dims):
        vectors = [v[:dims] for v in values]
        ref = (4.5,) * dims
        assert hypervolume(vectors, ref) == reference_hypervolume(vectors, ref)


OBJS4 = parse_objectives("latency_ms,area_mm2,power_mw,energy_mj")

# Sequences of 2-4-objective vectors on a small integer grid: per-dimension
# ties and exact duplicates are common.
archive_sequences = st.integers(2, 4).flatmap(
    lambda dims: st.tuples(
        st.just(dims),
        st.lists(
            st.tuples(*(st.integers(0, 3).map(float) for __ in range(dims))),
            min_size=0,
            max_size=30,
        ),
    )
)


def make_eval4(values):
    names = ("latency_ms", "area_mm2", "power_mw", "energy_mj")
    metrics = tuple(sorted(zip(names, values)))
    return Evaluation(point=(("v", values),), config_summary="t", metrics=metrics)


class TestParetoArchive:
    @given(archive_sequences)
    def test_front_after_every_add_matches_split_front(self, case):
        """The online front is the prefix's split_front: same members (by
        identity, so duplicates count), same input order, vectors alongside."""
        dims, values = case
        objectives = OBJS4[:dims]
        evals = [make_eval4(v) for v in values]
        archive = ParetoArchive(objectives)
        for n, evaluation in enumerate(evals, start=1):
            joined = archive.add(evaluation)
            expected = split_front(evals[:n], objectives)[0]
            assert [id(e) for e in archive.front] == [id(e) for e in expected]
            assert archive.vectors == [e.vector(objectives) for e in expected]
            assert joined == any(e is evaluation for e in expected)
            assert len(archive) == len(expected)

    def test_duplicates_stay_and_a_dominator_evicts_them_all(self):
        archive = ParetoArchive(OBJS)
        twins = [make_eval(2, 2), make_eval(2, 2)]
        assert all(archive.add(e) for e in twins)
        assert archive.add(make_eval(1, 3))
        assert archive.front == [*twins, make_eval(1, 3)]
        assert not archive.add(make_eval(3, 3))
        assert archive.add(make_eval(1, 1))
        assert archive.front == [make_eval(1, 1)]

    def test_crowding_takes_the_stored_vectors(self):
        archive = ParetoArchive(OBJS)
        for e in (make_eval(1, 5), make_eval(2, 4), make_eval(3, 3), make_eval(5, 1)):
            archive.add(e)
        assert crowding_distance(archive.front, OBJS, archive.vectors) == crowding_distance(
            archive.front, OBJS
        )


class TestNondominatedSort:
    def test_ranks_partition(self):
        evals = [make_eval(1, 3), make_eval(3, 1), make_eval(2, 2), make_eval(4, 4), make_eval(5, 5)]
        fronts = nondominated_sort(evals, OBJS)
        assert [len(f) for f in fronts] == [3, 1, 1]
        assert sum(len(f) for f in fronts) == len(evals)


class TestCrowding:
    def test_boundaries_infinite(self):
        front = [make_eval(1, 5), make_eval(2, 4), make_eval(3, 3), make_eval(5, 1)]
        crowd = crowding_distance(front, OBJS)
        assert crowd[0] == float("inf")
        assert crowd[3] == float("inf")
        assert 0 < crowd[1] < float("inf")


class TestHypervolume:
    def test_single_point_box(self):
        assert hypervolume([(1.0, 1.0)], (2.0, 2.0)) == pytest.approx(1.0)
        assert hypervolume([(1.0, 1.0, 1.0)], (2.0, 3.0, 4.0)) == pytest.approx(6.0)

    def test_staircase_union(self):
        # Two 1x... boxes overlapping in a 2x2 reference square.
        assert hypervolume([(0.0, 1.0), (1.0, 0.0)], (2.0, 2.0)) == pytest.approx(3.0)

    def test_points_outside_reference_contribute_nothing(self):
        assert hypervolume([(3.0, 3.0)], (2.0, 2.0)) == 0.0
        assert hypervolume([], (2.0, 2.0)) == 0.0

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([(1.0, 1.0)], (3.0, 3.0))
        assert hypervolume([(1.0, 1.0), (2.0, 2.0)], (3.0, 3.0)) == pytest.approx(base)

    @given(eval_sets)
    def test_monotone_in_set_inclusion(self, values):
        """Adding points never shrinks the hypervolume."""
        vectors = [tuple(v) for v in values]
        ref = tuple(max(v[d] for v in vectors) + 1.0 for d in range(3))
        partial = hypervolume(vectors[: len(vectors) // 2], ref)
        full = hypervolume(vectors, ref)
        assert full >= partial - 1e-9

    def test_3d_matches_inclusion_exclusion(self):
        a, b = (1.0, 2.0, 3.0), (3.0, 2.0, 1.0)
        ref = (4.0, 4.0, 4.0)
        va = (4 - 1) * (4 - 2) * (4 - 3)
        vb = (4 - 3) * (4 - 2) * (4 - 1)
        vab = (4 - 3) * (4 - 2) * (4 - 3)
        assert hypervolume([a, b], ref) == pytest.approx(va + vb - vab)


class TestReferencePoint:
    def test_pushed_past_nadir(self):
        evals = [make_eval(1, 2), make_eval(3, 1)]
        ref = reference_point(evals, OBJS)
        assert ref[0] > 3.0 and ref[1] > 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reference_point([], OBJS)


class TestMetricBound:
    def test_parse_and_satisfy(self):
        bound = parse_bound("area_mm2<=1.5")
        assert bound == MetricBound("area_mm2", "<=", 1.5)
        assert bound.satisfied(make_eval(1, 1.5))
        assert not bound.satisfied(make_eval(1, 2.0))

    def test_ge_bound(self):
        bound = parse_bound("latency_ms>=0.5")
        assert bound.satisfied(make_eval(0.5, 1))
        assert not bound.satisfied(make_eval(0.4, 1))

    def test_violation_gradient(self):
        bound = parse_bound("area_mm2<=2")
        assert bound.violation(make_eval(1, 2.0)) == 0.0
        assert bound.violation(make_eval(1, 3.0)) == pytest.approx(0.5)

    def test_bad_bounds_rejected(self):
        for text in ("area_mm2", "area_mm2<=x", "<=4", "area_mm2==4"):
            with pytest.raises(ValueError):
                parse_bound(text)
