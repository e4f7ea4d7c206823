"""Energy estimation: joules per inference from run statistics.

Combines the calibrated power model (Figure 3's switching-energy anchors)
with the performance simulator's activity counters — MACs executed, DMA
bytes moved, DRAM bytes transferred — into a per-run energy estimate and
the efficiency metrics (TOPS/W-class numbers) accelerator papers report.

Per-operation energies are derived from the Figure 3 power calibration at
500 MHz: one PE consumes ``pe_power_mw`` while active, i.e.
``pe_power_mw / 500 MHz`` joules per MAC-cycle.  Memory energies use
standard per-byte constants for on-chip SRAM and LPDDR-class DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GemminiConfig
from repro.physical.area import lowest, pipeline_register_count
from repro.physical.power import power_mw
from repro.physical.technology import INTEL_22FFL, Technology

#: on-chip SRAM access energy, picojoules per byte (22nm-class)
SRAM_PJ_PER_BYTE = 1.2
#: DRAM access energy, picojoules per byte (LPDDR4-class, interface incl.)
DRAM_PJ_PER_BYTE = 20.0
#: static/leakage + clock-tree power as a fraction of peak dynamic
STATIC_FRACTION = 0.15


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one run, in millijoules; arrays for a batch."""

    array_mj: float
    sram_mj: float
    dram_mj: float
    static_mj: float
    macs: int
    cycles: float

    @property
    def total_mj(self) -> float:
        return self.array_mj + self.sram_mj + self.dram_mj + self.static_mj

    def tops_per_watt(self, clock_ghz: float = 1.0) -> float:
        """Achieved int8 TOPS/W over this run (2 ops per MAC)."""
        if self.total_mj <= 0 or self.cycles <= 0:
            return 0.0
        seconds = self.cycles / (clock_ghz * 1e9)
        watts = self.total_mj * 1e-3 / seconds
        tops = 2 * self.macs / seconds / 1e12
        return tops / watts

    def rows(self) -> list[tuple[str, float, float]]:
        total = self.total_mj or 1.0
        return [
            (name, value, 100.0 * value / total)
            for name, value in (
                ("spatial array", self.array_mj),
                ("local SRAM", self.sram_mj),
                ("DRAM", self.dram_mj),
                ("static/clock", self.static_mj),
            )
        ]


def mac_energy_pj(config: GemminiConfig, tech: Technology = INTEL_22FFL) -> float:
    """Energy of one MAC including its share of pipeline-register switching."""
    # Power calibration point: whole-array power at 500 MHz while streaming.
    array_mw = (
        config.num_pes * tech.pe_power_mw
        + pipeline_register_count(config) * tech.reg_power_mw
    )
    # mW at 500 MHz -> pJ per cycle; one cycle does num_pes MACs at peak.
    pj_per_cycle = array_mw * 1e-3 / 500e6 * 1e12
    return pj_per_cycle / config.num_pes


def estimate_energy(
    config: GemminiConfig,
    macs: int,
    cycles: float,
    dma_bytes: int,
    dram_bytes: int,
    clock_ghz: float = 1.0,
    tech: Technology = INTEL_22FFL,
) -> EnergyReport:
    """Energy estimate from raw activity counters.

    For a batch of config columns, ``cycles`` and ``clock_ghz`` may be
    per-design arrays; the counters are workload-wide.
    """
    if min(macs, dma_bytes, dram_bytes) < 0 or lowest(cycles) < 0:
        raise ValueError("activity counters must be non-negative")
    array_mj = macs * mac_energy_pj(config, tech) * 1e-9
    # Every DMA byte is written to and later read from a local SRAM, and
    # streamed through the array's operand registers once more.
    sram_mj = dma_bytes * 3 * SRAM_PJ_PER_BYTE * 1e-9
    dram_mj = dram_bytes * DRAM_PJ_PER_BYTE * 1e-9
    # Static burn scales with runtime at the configured clock.
    static_mj = (
        STATIC_FRACTION
        * power_mw(config, frequency_ghz=clock_ghz, tech=tech)
        * 1e-3
        * (cycles / (clock_ghz * 1e9))
        * 1e3
    )
    return EnergyReport(
        array_mj=array_mj,
        sram_mj=sram_mj,
        dram_mj=dram_mj,
        static_mj=static_mj,
        macs=macs,
        cycles=cycles,
    )


def estimate_run_energy(soc, result, tech: Technology = INTEL_22FFL) -> EnergyReport:
    """Energy of one :class:`~repro.sw.runtime.RunResult` on its SoC tile."""
    tile = soc.tile
    config = tile.accel.config
    dma = tile.accel.dma.stats
    dma_bytes = dma.value("bytes_read") + dma.value("bytes_written")
    macs = sum(layer.macs for layer in result.layers)
    return estimate_energy(
        config,
        macs=macs,
        cycles=result.total_cycles,
        dma_bytes=dma_bytes,
        dram_bytes=soc.mem.dram.bytes_moved,
        clock_ghz=config.clock_ghz,
        tech=tech,
    )
