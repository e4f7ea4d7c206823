"""Power model: dynamic power of the spatial array and local SRAMs.

Calibrated to Figure 3's observation that at equal frequency the fully
pipelined (systolic) 256-PE array consumes 3.0x the power of the
combinational (vector) array — the pipeline registers dominate switching
energy.
"""

from __future__ import annotations

from repro.core.config import GemminiConfig
from repro.physical.area import lowest, pipeline_register_count
from repro.physical.technology import INTEL_22FFL, Technology

_CALIBRATION_GHZ = 0.5


def spatial_array_power_mw(
    config: GemminiConfig,
    frequency_ghz: float = _CALIBRATION_GHZ,
    tech: Technology = INTEL_22FFL,
) -> float:
    """Dynamic power of the PE grid + pipeline registers, mW."""
    if lowest(frequency_ghz) <= 0:
        raise ValueError("frequency must be positive")
    pes = config.num_pes * tech.pe_power_mw
    regs = pipeline_register_count(config) * tech.reg_power_mw
    return (pes + regs) * (frequency_ghz / _CALIBRATION_GHZ)


def power_mw(
    config: GemminiConfig,
    frequency_ghz: float = _CALIBRATION_GHZ,
    tech: Technology = INTEL_22FFL,
) -> float:
    """Accelerator dynamic power: array + local SRAM switching, mW.

    ``frequency_ghz`` may be a per-design array for a batch of columns (the
    DSE evaluator clocks each design at its own fmax).
    """
    sram_kb = (config.sp_capacity_bytes + config.acc_capacity_bytes) / 1024.0
    sram = sram_kb * tech.sram_power_mw_per_kb * (frequency_ghz / _CALIBRATION_GHZ)
    return spatial_array_power_mw(config, frequency_ghz, tech) + sram
