"""Tests for the energy model."""

import pytest

from repro.core.config import default_config, systolic_config, vector_config
from repro.core.generator import SoftwareParams
from repro.physical.energy import (
    EnergyReport,
    estimate_energy,
    estimate_run_energy,
    mac_energy_pj,
)
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.runtime import Runtime


class TestMacEnergy:
    def test_positive(self):
        assert mac_energy_pj(default_config()) > 0

    def test_systolic_more_per_mac_than_vector(self):
        """Pipeline registers triple the array power (Figure 3)."""
        assert mac_energy_pj(systolic_config()) == pytest.approx(
            3.0 * mac_energy_pj(vector_config()), rel=0.01
        )


class TestEstimate:
    def test_breakdown_sums(self):
        report = estimate_energy(
            default_config(), macs=10**9, cycles=10**7, dma_bytes=10**8, dram_bytes=10**8
        )
        assert report.total_mj == pytest.approx(
            report.array_mj + report.sram_mj + report.dram_mj + report.static_mj
        )

    def test_monotone_in_activity(self):
        base = estimate_energy(default_config(), 10**9, 10**7, 10**8, 10**8)
        more_macs = estimate_energy(default_config(), 2 * 10**9, 10**7, 10**8, 10**8)
        more_dram = estimate_energy(default_config(), 10**9, 10**7, 10**8, 2 * 10**8)
        assert more_macs.total_mj > base.total_mj
        assert more_dram.dram_mj == pytest.approx(2 * base.dram_mj)

    def test_dram_costlier_per_byte_than_sram(self):
        report = estimate_energy(default_config(), 0, 10**6, 10**8, 10**8)
        assert report.dram_mj > report.sram_mj / 3  # per-byte: 20 vs 3*1.2 pJ

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            estimate_energy(default_config(), -1, 1, 1, 1)

    def test_rows_percentages(self):
        report = estimate_energy(default_config(), 10**9, 10**7, 10**8, 10**8)
        rows = report.rows()
        assert sum(pct for __, __v, pct in rows) == pytest.approx(100.0)

    def test_tops_per_watt_sane(self):
        """int8 accelerators in 22nm land in the ~0.1-30 TOPS/W range."""
        report = estimate_energy(
            default_config(), macs=4 * 10**9, cycles=4 * 10**7,
            dma_bytes=6 * 10**7, dram_bytes=8 * 10**7,
        )
        assert 0.1 < report.tops_per_watt(1.0) < 30.0

    def test_zero_run(self):
        report = EnergyReport(0, 0, 0, 0, macs=0, cycles=0)
        assert report.tops_per_watt() == 0.0


class TestRunEnergy:
    def test_end_to_end(self):
        from tests.sw.test_runtime import tiny_cnn

        cfg = default_config().with_im2col(True)
        soc = make_soc(gemmini=cfg)
        model = compile_graph(tiny_cnn(32), SoftwareParams.from_config(cfg))
        result = Runtime(soc.tile, model).run()
        report = estimate_run_energy(soc, result)
        assert report.total_mj > 0
        assert report.macs == sum(layer.macs for layer in result.layers)

    def test_bigger_input_more_energy(self):
        from tests.sw.test_runtime import tiny_cnn

        cfg = default_config().with_im2col(True)

        def energy(hw):
            soc = make_soc(gemmini=cfg)
            model = compile_graph(tiny_cnn(hw), SoftwareParams.from_config(cfg))
            result = Runtime(soc.tile, model).run()
            return estimate_run_energy(soc, result).total_mj

        assert energy(64) > energy(16)
