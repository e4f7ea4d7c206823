"""Struct-of-arrays config columns: the DSE evaluator's input layout.

:meth:`ConfigColumns.from_configs` turns validated
:class:`~repro.core.config.GemminiConfig` objects (one per design point,
from :func:`~repro.dse.space.point_to_config`) into one column per
parameter the analytic models read, each a numpy array over the whole
batch, so the cost pipeline scores every candidate in a handful of
vectorised expressions.  The columns carry the attribute names of
``GemminiConfig``, so the same functions take either:
:func:`~repro.physical.timing.max_frequency_ghz`,
:func:`~repro.physical.area.accelerator_area`,
:func:`~repro.physical.power.power_mw`,
:func:`~repro.physical.energy.estimate_energy` and
:func:`~repro.core.spatial_array.matmul_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import GemminiConfig

__all__ = ["ConfigColumns"]


@dataclass(frozen=True)
class ConfigColumns:
    """One model-read config parameter per column, one design per row."""

    dim: np.ndarray  # int64: PE-grid edge (grid is dim x dim)
    tile_rows: np.ndarray  # int64: combinational tile edge (the ripple chain)
    mesh_rows: np.ndarray  # int64: pipelined tile-grid rows
    mesh_cols: np.ndarray  # int64: pipelined tile-grid columns
    sp_capacity_bytes: np.ndarray  # int64
    acc_capacity_bytes: np.ndarray  # int64
    input_bits: np.ndarray  # int64
    os_dataflow: np.ndarray  # bool: GemminiConfig.os_dataflow

    @classmethod
    def from_configs(cls, configs: Sequence[GemminiConfig]) -> "ConfigColumns":
        """Columnise ``configs`` (already validated by ``GemminiConfig``)."""
        if not configs:
            raise ValueError("ConfigColumns needs at least one config")
        rows = [
            (
                c.dim,
                c.tile_rows,
                c.mesh_rows,
                c.mesh_cols,
                c.sp_capacity_bytes,
                c.acc_capacity_bytes,
                c.input_bits,
            )
            for c in configs
        ]
        ints = np.asarray(rows, dtype=np.int64).T
        return cls(
            *ints,
            os_dataflow=np.asarray([c.os_dataflow for c in configs], dtype=bool),
        )

    @property
    def num_pes(self) -> np.ndarray:
        return self.dim * self.dim
