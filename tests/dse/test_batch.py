"""Batched evaluation: a point scores the same alone as in any batch.

:func:`~repro.dse.objectives.evaluate_design_batch` is the one DSE
evaluator and :func:`~repro.dse.objectives.evaluate_design` is its batch of
one, so the bar is that scoring a batch is *indistinguishable* from scoring
each point alone: identical points, identical config summaries, and every
metric bitwise-equal (``==`` on every
:class:`~repro.dse.objectives.Evaluation`).  The golden ``analytic/models``
case pins the values themselves.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dtypes import FP32
from repro.dse import (
    EvaluationSpec,
    evaluate_design,
    evaluate_design_batch,
    gemmini_space,
    model_workload,
    point_to_config,
)


def assert_matches_alone(points, spec):
    alone = [evaluate_design(p, spec) for p in points]
    assert evaluate_design_batch(points, spec) == alone


class TestParity:
    def test_randomized_512_point_batch(self):
        """A randomized 512-point batch over the full example space matches
        per-point evaluation bitwise."""
        space = gemmini_space(max_dim=32)
        rng = random.Random(0)
        points = [space.sample(rng) for __ in range(512)]
        assert_matches_alone(points, EvaluationSpec())

    def test_model_workload_parity(self):
        """Multi-shape (whole-network) workloads vectorise over both the
        shape and the batch axis; parity must hold there too."""
        space = gemmini_space(max_dim=16)
        rng = random.Random(1)
        points = [space.sample(rng) for __ in range(32)]
        spec = EvaluationSpec(workload=model_workload("mobilenetv2", input_hw=96))
        assert_matches_alone(points, spec)

    def test_os_dataflow_and_cpu_parity(self):
        """OS drains and a host CPU in the area account must match."""
        points = [
            {"dim": 8, "tile": 2, "sp_kb": 128, "acc_kb": 32, "sp_banks": 2,
             "acc_banks": 1, "dataflow": "OS", "has_im2col": True},
            {"dim": 16, "tile": 1, "sp_kb": 256, "acc_kb": 64, "sp_banks": 4,
             "acc_banks": 2, "dataflow": "WS", "has_im2col": False},
        ]
        assert_matches_alone(points, EvaluationSpec(cpu="rocket"))

    def test_partial_points_use_config_defaults(self):
        """Missing axes default exactly like point_to_config({})."""
        assert_matches_alone(
            [{}, {"dim": 8}, {"dataflow": "BOTH"}], EvaluationSpec()
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_points_property(self, seed):
        """Hypothesis sweep: any sampled sub-batch matches per-point
        evaluation on all 8 analytic metrics."""
        space = gemmini_space(max_dim=32)
        rng = random.Random(seed)
        points = [space.sample(rng) for __ in range(1 + seed % 7)]
        assert_matches_alone(points, EvaluationSpec())

    def test_empty_batch(self):
        assert evaluate_design_batch([], EvaluationSpec()) == []

    def test_single_point(self):
        space = gemmini_space(max_dim=8)
        point = space.sample(random.Random(3))
        spec = EvaluationSpec()
        [batched] = evaluate_design_batch([point], spec)
        assert batched == evaluate_design(point, spec)


class TestFallbacks:
    def test_unsupported_key_falls_back_to_scalar(self):
        """Points carrying raw GemminiConfig keys evaluate like any other."""
        points = [
            {"dim": 8, "clock_ghz": 0.5},
            {"dim": 16},
        ]
        spec = EvaluationSpec()
        batch = evaluate_design_batch(points, spec)
        assert batch == [evaluate_design(p, spec) for p in points]

    def test_config_keys_mix_with_space_points(self):
        """Space points, a raw config key and an fp32 datapath share one
        batch: each scores as it does alone, and every summary is its
        config's own ``describe()``."""
        space = gemmini_space(max_dim=32)
        rng = random.Random(5)
        points = [space.sample(rng) for __ in range(6)] + [
            {"dim": 8, "clock_ghz": 0.5},
            {"dim": 8, "input_type": FP32, "acc_type": FP32},
        ]
        spec = EvaluationSpec()
        batch = evaluate_design_batch(points, spec)
        assert batch == [evaluate_design(p, spec) for p in points]
        for point, evaluation in zip(points, batch):
            assert evaluation.config_summary == point_to_config(point).describe()
        # the wider datapath is what the physical models see
        assert batch[-1].metric("area_mm2") > evaluate_design({"dim": 8}, spec).metric("area_mm2")

    def test_invalid_point_raises_the_scalar_error(self):
        """Every point is validated by point_to_config, so a bad point in a
        batch raises exactly what it raises alone."""
        bad_geometry = {"dim": 8, "tile": 3}  # tile does not divide dim
        with pytest.raises(Exception) as batch_err:
            evaluate_design_batch([{"dim": 8}, bad_geometry], EvaluationSpec())
        with pytest.raises(Exception) as scalar_err:
            evaluate_design(bad_geometry, EvaluationSpec())
        assert type(batch_err.value) is type(scalar_err.value)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_invalid_capacity_raises_the_scalar_error(self):
        bad_banks = {"dim": 16, "sp_kb": 256, "sp_banks": 3}  # not a power of two
        with pytest.raises(ValueError, match="power of two"):
            evaluate_design_batch([bad_banks], EvaluationSpec())

    def test_traffic_spec_falls_back_to_scalar(self):
        """Serving objectives run a cluster simulation per point; a batch
        of one must still match a per-point evaluation."""
        from repro.serve import TenantSpec, TrafficProfile

        traffic = TrafficProfile(
            tenants=(
                TenantSpec(
                    name="t", model="squeezenet", input_hw=32,
                    rate_qps=300.0, num_requests=2, slo_ms=5.0,
                ),
            ),
            num_tiles=1,
            seed=0,
        )
        spec = EvaluationSpec(
            objectives=("p99_latency_ms", "area_mm2"), traffic=traffic
        )
        point = {"dim": 8, "tile": 1, "sp_kb": 64, "acc_kb": 16,
                 "sp_banks": 1, "acc_banks": 1, "dataflow": "WS", "has_im2col": False}
        [batched] = evaluate_design_batch([point], spec)
        assert batched == evaluate_design(point, spec)
        assert batched.metric("p99_latency_ms") > 0


class TestExplorerIntegration:
    def test_default_explorer_matches_scalar_evaluator(self):
        """End to end: every point the default explorer evaluates (in
        batches) equals evaluate_design on that point, and the front is the
        non-dominated subset of those evaluations."""
        from repro.dse import Explorer, make_strategy
        from repro.dse.pareto import split_front
        from repro.eval.runner import ExperimentRunner

        space = gemmini_space(max_dim=8)
        spec = EvaluationSpec()
        with ExperimentRunner(max_workers=1, cache=None) as runner:
            result = Explorer(
                space, make_strategy("evolutionary", space, seed=0), spec,
                budget=16, runner=runner,
            ).explore()
        assert result.evaluations == 16
        scalar = [evaluate_design(dict(e.point), spec) for e in result.trace]
        assert list(result.trace) == scalar
        front, __ = split_front(scalar, result.objectives)
        assert [e.point for e in result.front] == [e.point for e in front]
