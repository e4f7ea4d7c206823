"""Physical-model tests: calibration anchors and design-space monotonicity."""

from dataclasses import replace

import pytest

from repro.core.config import (
    GemminiConfig,
    default_config,
    fp32_config,
    systolic_config,
    vector_config,
)
from repro.physical.area import accelerator_area, pipeline_register_count, spatial_array_area
from repro.physical.power import power_mw, spatial_array_power_mw
from repro.physical.technology import INTEL_22FFL, TSMC_16FF
from repro.physical.timing import max_frequency_ghz


class TestFigure3Anchors:
    """The model must reproduce the paper's synthesis points exactly."""

    def test_systolic_frequency(self):
        assert max_frequency_ghz(systolic_config(16)) == pytest.approx(1.89, rel=0.01)

    def test_vector_frequency(self):
        assert max_frequency_ghz(vector_config(16)) == pytest.approx(0.69, rel=0.01)

    def test_systolic_area(self):
        area = spatial_array_area(systolic_config(16))
        assert area == pytest.approx(120_000, rel=0.01)

    def test_vector_area(self):
        area = spatial_array_area(vector_config(16))
        assert area == pytest.approx(67_000, rel=0.01)

    def test_power_ratio_3x(self):
        p_sys = spatial_array_power_mw(systolic_config(16))
        p_vec = spatial_array_power_mw(vector_config(16))
        assert p_sys / p_vec == pytest.approx(3.0, rel=0.01)

    def test_freq_ratio_2_7x(self):
        ratio = max_frequency_ghz(systolic_config(16)) / max_frequency_ghz(vector_config(16))
        assert ratio == pytest.approx(2.7, rel=0.02)


class TestFigure6Anchors:
    def test_breakdown_matches_paper(self):
        breakdown = accelerator_area(default_config(), cpu="rocket")
        assert breakdown.scratchpad == pytest.approx(544_000, rel=0.01)
        assert breakdown.accumulator == pytest.approx(146_000, rel=0.01)
        assert breakdown.cpu == pytest.approx(171_000, rel=0.01)
        assert breakdown.total == pytest.approx(1_029_000, rel=0.02)

    def test_percentages_match_paper(self):
        breakdown = accelerator_area(default_config(), cpu="rocket")
        assert 100 * breakdown.fraction("scratchpad") == pytest.approx(52.9, abs=1.0)
        assert 100 * breakdown.fraction("accumulator") == pytest.approx(14.2, abs=0.5)
        assert 100 * breakdown.fraction("cpu") == pytest.approx(16.6, abs=0.5)
        assert 100 * breakdown.fraction("spatial_array") == pytest.approx(11.3, abs=1.0)

    def test_srams_dominate(self):
        """Paper: SRAMs alone are 67.1% of the accelerator's area."""
        b = accelerator_area(default_config(), cpu="rocket")
        accel_only = b.total - b.cpu
        assert (b.scratchpad + b.accumulator) / accel_only > 0.60

    def test_rows_iterate_components(self):
        rows = accelerator_area(default_config()).rows()
        names = [r[0] for r in rows]
        assert names == ["spatial_array", "scratchpad", "accumulator", "cpu", "uncore"]
        assert sum(r[2] for r in rows) == pytest.approx(100.0)


class TestDesignSpaceBehaviour:
    def test_intermediate_tilings_interpolate(self):
        freqs = []
        areas = []
        for tile in (1, 2, 4, 8, 16):
            cfg = GemminiConfig(
                mesh_rows=16 // tile, mesh_cols=16 // tile,
                tile_rows=tile, tile_cols=tile,
            )
            freqs.append(max_frequency_ghz(cfg))
            areas.append(spatial_array_area(cfg))
        assert freqs == sorted(freqs, reverse=True)  # bigger tiles: slower clock
        assert areas == sorted(areas, reverse=True)  # bigger tiles: less area

    def test_area_scales_with_pes(self):
        small = spatial_array_area(systolic_config(8))
        big = spatial_array_area(systolic_config(32))
        assert big > 4 * small  # 16x the PEs

    def test_register_count(self):
        assert pipeline_register_count(systolic_config(16)) == 16 * 15 * 2 + 32
        assert pipeline_register_count(vector_config(16)) == 32

    def test_fp32_wider_datapath_larger_and_slower(self):
        int8 = default_config()
        fp32 = fp32_config()
        assert spatial_array_area(fp32) > spatial_array_area(int8)
        assert max_frequency_ghz(fp32) < max_frequency_ghz(int8)

    def test_bigger_sram_bigger_area(self):
        base = accelerator_area(default_config())
        big = accelerator_area(replace(default_config(), sp_capacity_bytes=512 * 1024))
        assert big.scratchpad == pytest.approx(2 * base.scratchpad)

    def test_unknown_cpu_rejected(self):
        with pytest.raises(ValueError):
            accelerator_area(default_config(), cpu="cortex")

    def test_power_includes_sram(self):
        total = power_mw(default_config(), frequency_ghz=1.0)
        array = spatial_array_power_mw(default_config(), frequency_ghz=1.0)
        assert total > array

    def test_power_scales_with_frequency(self):
        low = power_mw(default_config(), frequency_ghz=0.5)
        high = power_mw(default_config(), frequency_ghz=1.0)
        assert high == pytest.approx(2 * low)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            spatial_array_power_mw(default_config(), frequency_ghz=0)


class TestTechnologyScaling:
    def test_tsmc16_denser_and_faster(self):
        cfg = systolic_config(16)
        assert spatial_array_area(cfg, TSMC_16FF) < spatial_array_area(cfg, INTEL_22FFL)
        assert max_frequency_ghz(cfg, TSMC_16FF) > max_frequency_ghz(cfg, INTEL_22FFL)

    def test_scaled_preserves_ratios(self):
        sys_cfg = systolic_config(16)
        vec_cfg = vector_config(16)
        ratio_22 = spatial_array_area(sys_cfg, INTEL_22FFL) / spatial_array_area(
            vec_cfg, INTEL_22FFL
        )
        ratio_16 = spatial_array_area(sys_cfg, TSMC_16FF) / spatial_array_area(
            vec_cfg, TSMC_16FF
        )
        assert ratio_16 == pytest.approx(ratio_22)
