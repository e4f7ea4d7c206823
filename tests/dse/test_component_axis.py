"""Structural (component-mix) design-space axes and fleet evaluation."""

import pytest

from repro.dse import (
    COMPONENTS_KEY,
    TILE_PRESETS,
    ComponentAxis,
    EvaluationSpec,
    Explorer,
    SpaceError,
    evaluate_design,
    evaluate_design_batch,
    make_strategy,
    mix_space,
    point_label,
    point_to_config,
    point_to_design,
)


def mix(*pairs):
    return {COMPONENTS_KEY: tuple(pairs)}


class TestComponentAxis:
    def test_enumerates_all_mixes_in_range(self):
        axis = ComponentAxis(presets=("big", "little"), min_tiles=1, max_tiles=2)
        totals = [sum(c for __, c in m) for m in axis.choices]
        assert set(totals) == {1, 2}
        assert (("big", 1), ("little", 1)) in axis.choices
        assert len(axis.choices) == 5  # b1 b2 l1 l2 b1+l1

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpaceError, match="preset"):
            ComponentAxis(presets=("big", "huge"))

    def test_presets_materialise(self):
        for name, preset in TILE_PRESETS.items():
            config = point_to_config(dict(preset))
            assert config.dim == preset["dim"], name

    def test_mix_space_operators_work(self):
        space = mix_space(("big", "little"), max_tiles=3)
        points = list(space.points())
        assert len(points) == 9
        sampled = space.sample(__import__("random").Random(0))
        assert space.is_valid(sampled)
        assert all(space.is_valid(n) for n in space.neighbors(points[0]))

    def test_point_label_formats_mixes(self):
        label = point_label(mix(("big", 2), ("little", 1)))
        assert label == "components=big*2+little*1"


class TestPointToDesign:
    def test_builds_heterogeneous_design(self):
        design = point_to_design(mix(("big", 1), ("little", 2)))
        assert design.num_tiles == 3
        dims = [c.gemmini.dim for c in design.expand()]
        assert dims == [32, 8, 8]

    def test_shared_axes_overlay_every_tile(self):
        point = {**mix(("big", 1), ("little", 1)), "dataflow": "OS"}
        design = point_to_design(point)
        assert all(c.gemmini.dataflow.name == "OS" for c in design.tiles)

    def test_clock_override(self):
        design = point_to_design(mix(("little", 1)), clock_ghz=1.5)
        assert design.clock_ghz == 1.5

    def test_plain_point_rejected(self):
        with pytest.raises(SpaceError, match="point_to_config"):
            point_to_design({"dim": 16})
        with pytest.raises(SpaceError, match="point_to_design"):
            point_to_config(mix(("big", 1)))


class TestStructuralEvaluation:
    def test_fleet_metrics_aggregate(self):
        spec = EvaluationSpec()
        little = evaluate_design(mix(("little", 1)), spec)
        pair = evaluate_design(mix(("little", 2)), spec)
        both = evaluate_design(mix(("big", 1), ("little", 1)), spec)
        # area and throughput scale with count; latency tracks the fastest
        assert pair.metric("area_mm2") == pytest.approx(2 * little.metric("area_mm2"))
        assert pair.metric("throughput_gmacs") == pytest.approx(
            2 * little.metric("throughput_gmacs")
        )
        assert pair.metric("latency_ms") == pytest.approx(little.metric("latency_ms"))
        assert both.metric("latency_ms") < little.metric("latency_ms")
        assert both.metric("area_mm2") > little.metric("area_mm2")

    def test_batch_matches_scalar_exactly(self):
        spec = EvaluationSpec()
        points = list(mix_space(("big", "little"), max_tiles=3).points())
        points.append({"dim": 16, "tile": 1, "sp_kb": 256, "acc_kb": 64,
                       "sp_banks": 4, "acc_banks": 2, "dataflow": "WS",
                       "has_im2col": False})
        scalar = [evaluate_design(p, spec) for p in points]
        batch = evaluate_design_batch(points, spec)
        for s, b in zip(scalar, batch):
            assert s.point == b.point
            assert s.config_summary == b.config_summary
            for (ks, vs), (kb, vb) in zip(s.metrics, b.metrics):
                assert ks == kb
                assert vs == pytest.approx(vb, rel=1e-9)

    def test_fleet_under_traffic_scores_alone_as_in_mixed_batch(self):
        """Serving metrics of a fleet come from its own simulation, and its
        sub-rows are scored without the traffic profile, so a structural
        point scores the same alone as next to plain points and fleets."""
        from repro.serve import TenantSpec, TrafficProfile

        traffic = TrafficProfile(
            tenants=(
                TenantSpec(name="t", model="squeezenet", input_hw=32,
                           rate_qps=300.0, num_requests=2, slo_ms=5.0),
            ),
            num_tiles=1,
            seed=0,
        )
        spec = EvaluationSpec(objectives=("p99_latency_ms", "area_mm2"), traffic=traffic)
        fleet = mix(("big", 1), ("little", 2))
        points = [{"dim": 8}, mix(("little", 1)), fleet]
        [alone] = evaluate_design_batch([fleet], spec)
        assert evaluate_design_batch(points, spec)[2] == alone
        assert alone.metric("p99_latency_ms") > 0

    def test_explorer_produces_front_over_mixes(self):
        space = mix_space(("big", "little"), max_tiles=2)
        explorer = Explorer(
            space,
            make_strategy("grid", space),
            EvaluationSpec(objectives=("latency_ms", "area_mm2")),
            budget=space.size(),
        )
        result = explorer.explore()
        assert result.evaluations == 5
        assert result.front  # a non-empty Pareto front over fleet mixes
        labels = {point_label(e.point_dict) for e in result.front}
        assert "components=little*1" in labels  # area anchor
        assert any("big" in label for label in labels)  # latency anchor
