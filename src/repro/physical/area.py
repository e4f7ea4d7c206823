"""Area model: per-component breakdown of one generated accelerator.

Reproduces Figure 6's decomposition (spatial array / scratchpad /
accumulator / host CPU / uncore) at any design point of the template.

Every model in :mod:`repro.physical` takes either one
:class:`~repro.core.config.GemminiConfig` (plain floats out) or the
:class:`~repro.dse.batch.ConfigColumns` built from a batch of them (numpy
arrays out, one entry per design) through the same arithmetic, so the DSE
evaluator's columns score each design exactly as its config does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GemminiConfig
from repro.core.dtypes import is_array
from repro.physical.technology import INTEL_22FFL, Technology


def width_scale(config: GemminiConfig) -> float:
    """Datapath width relative to the int8 calibration anchor, at least 1."""
    scale = config.input_bits / 8.0
    if is_array(scale):
        import numpy as np

        return np.maximum(1.0, scale)
    return max(1.0, scale)


def lowest(value: float) -> float:
    """A number itself, or a column's smallest entry (for range checks).

    Plain numbers skip numpy: the per-design callers pay no numpy call.
    """
    return value.min() if is_array(value) else value


def pipeline_register_count(config: GemminiConfig) -> int:
    """Pipeline register stations in the two-level array.

    One station per PE-row crossing of each inter-tile column boundary and
    per PE-column crossing of each inter-tile row boundary, plus the edge
    (input/output shifter) stations.
    """
    dim = config.dim
    return dim * (config.mesh_rows - 1) + dim * (config.mesh_cols - 1) + 2 * dim


@dataclass(frozen=True)
class AreaBreakdown:
    """Component areas in um^2 (Figure 6's table); arrays for a batch."""

    spatial_array: float
    scratchpad: float
    accumulator: float
    cpu: float
    uncore: float

    @property
    def total(self) -> float:
        return self.spatial_array + self.scratchpad + self.accumulator + self.cpu + self.uncore

    def fraction(self, component: str) -> float:
        return getattr(self, component) / self.total

    def rows(self) -> list[tuple[str, float, float]]:
        """(name, um^2, percent) rows, Figure 6 style."""
        return [
            (name, getattr(self, name), 100.0 * self.fraction(name))
            for name in ("spatial_array", "scratchpad", "accumulator", "cpu", "uncore")
        ]


def spatial_array_area(config: GemminiConfig, tech: Technology = INTEL_22FFL) -> float:
    """Area of the PE grid plus its pipeline registers, um^2."""
    pes = config.num_pes * tech.pe_area_um2
    regs = pipeline_register_count(config) * tech.pipeline_reg_area_um2
    # Wider datapaths scale the MAC area (int8 is the calibration anchor).
    return pes * width_scale(config) + regs


def accelerator_area(
    config: GemminiConfig,
    cpu: str = "rocket",
    tech: Technology = INTEL_22FFL,
) -> AreaBreakdown:
    """Full-system area breakdown for one accelerator + host CPU."""
    if cpu not in tech.cpu_area_um2:
        raise ValueError(f"unknown CPU {cpu!r}; known: {sorted(tech.cpu_area_um2)}")
    return AreaBreakdown(
        spatial_array=spatial_array_area(config, tech),
        scratchpad=config.sp_capacity_bytes * tech.sp_sram_um2_per_byte,
        accumulator=config.acc_capacity_bytes * tech.acc_sram_um2_per_byte,
        cpu=tech.cpu_area_um2[cpu],
        uncore=tech.uncore_area_um2,
    )
