"""Struct-of-arrays config columns: the batched evaluator's input layout.

:func:`build_columns` turns a list of design points (the plain
``{axis: value}`` dicts a :class:`~repro.dse.space.ParamSpace` produces)
into one :class:`ConfigColumns` — a column per architectural parameter,
each a numpy array over the whole batch — so the analytic cost pipeline
can score every candidate in a handful of vectorised expressions instead
of one Python object at a time.  The columns expose the attribute names of
:class:`~repro.core.config.GemminiConfig` the models read, so the same
functions take either: :func:`~repro.physical.timing.max_frequency_ghz`,
:func:`~repro.physical.area.accelerator_area`,
:func:`~repro.physical.power.power_mw` and
:func:`~repro.physical.energy.estimate_energy`.  Blocked-matmul cycles
come from :func:`~repro.core.spatial_array.matmul_cost_batch`, the column
form of :meth:`~repro.core.spatial_array.SpatialArrayModel.matmul_cost`
(one shared integer core).

The column layout understands exactly the axes :func:`point_to_config`
maps onto the template geometry (``dim``/``tile``, the KB-denominated
memory axes, banks, ``dataflow``, ``has_im2col``); any other key means the
point needs the full :class:`~repro.core.config.GemminiConfig` machinery,
and :exc:`UnsupportedPoint` tells the evaluator to fall back to the scalar
path.  Validation mirrors ``GemminiConfig.__post_init__`` — an invalid
point raises the exact exception the scalar path would, by materialising
the first offender through :func:`point_to_config`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Dataflow
from repro.dse.space import point_to_config

__all__ = [
    "ConfigColumns",
    "UnsupportedPoint",
    "SUPPORTED_KEYS",
    "build_columns",
    "group_by_components",
]


class UnsupportedPoint(Exception):
    """A point uses keys the column layout cannot represent (scalar path)."""


def group_by_components(points: list[dict]) -> dict:
    """Group point indices by their component signature (the structural mix).

    Points without a ``components`` axis land under the ``None`` key — they
    are single-accelerator points and columnise directly.  Points sharing a
    mix signature share their per-preset sub-configs, so the batched
    evaluator scores each unique tile class once per group instead of once
    per fleet (the structural analogue of the struct-of-arrays fast path).
    """
    from repro.dse.space import COMPONENTS_KEY

    groups: dict = {}
    for index, point in enumerate(points):
        mix = point.get(COMPONENTS_KEY)
        key = None if mix is None else tuple(mix)
        groups.setdefault(key, []).append(index)
    return groups


#: Point keys the batched evaluator understands (the gemmini_space axes).
SUPPORTED_KEYS = frozenset(
    {"dim", "tile", "sp_kb", "acc_kb", "sp_banks", "acc_banks", "dataflow", "has_im2col"}
)

#: Fixed datatypes of the supported column layout (int8 inputs, int32
#: accumulators — the template defaults; points cannot override dtypes).
_INPUT_BITS = 8
_ACC_BITS = 32
_DTYPE_LABEL = "int8/int32"


@dataclass(frozen=True)
class ConfigColumns:
    """One architectural parameter per column, one batch entry per row."""

    dim: np.ndarray  # int64: PE-grid edge (grid is dim x dim)
    tile_rows: np.ndarray  # int64: combinational tile edge
    mesh_rows: np.ndarray  # int64: dim // tile (pipelined tile grid edge)
    sp_capacity_bytes: np.ndarray  # int64
    acc_capacity_bytes: np.ndarray  # int64
    sp_banks: np.ndarray  # int64
    acc_banks: np.ndarray  # int64
    has_im2col: np.ndarray  # bool
    os_dataflow: np.ndarray  # bool: OS after resolving BOTH -> WS
    input_bits: np.ndarray  # int64 (all 8 in the supported layout)
    dataflow_names: tuple[str, ...]  # raw enum names, for describe_all()

    # Square template: the column layout only materialises square geometry.
    @property
    def tile_cols(self) -> np.ndarray:
        return self.tile_rows

    @property
    def mesh_cols(self) -> np.ndarray:
        return self.mesh_rows

    @property
    def num_pes(self) -> np.ndarray:
        return self.dim * self.dim

    def __len__(self) -> int:
        return int(self.dim.shape[0])

    def describe_all(self) -> list[str]:
        """Every entry's describe line (one pass, list-backed for speed)."""
        dims = self.dim.tolist()
        meshes = self.mesh_rows.tolist()
        tiles = self.tile_rows.tolist()
        sp_kb = (self.sp_capacity_bytes // 1024).tolist()
        acc_kb = (self.acc_capacity_bytes // 1024).tolist()
        spb = self.sp_banks.tolist()
        accb = self.acc_banks.tolist()
        im2col = self.has_im2col.tolist()
        return [
            f"{d}x{d} PEs ({me}x{me} tiles of {t}x{t}), {df}, {_DTYPE_LABEL}, "
            f"sp={sk}KB/{sb}b, acc={ak}KB/{ab}b, im2col={'y' if im else 'n'}"
            for d, me, t, df, sk, sb, ak, ab, im in zip(
                dims, meshes, tiles, self.dataflow_names, sp_kb, spb, acc_kb, accb, im2col
            )
        ]


_DATAFLOW_NAMES = frozenset(Dataflow.__members__)


def build_columns(points: list[dict]) -> ConfigColumns:
    """Columnise ``points``, validating exactly like the scalar path.

    Raises :exc:`UnsupportedPoint` when any point carries a key outside
    :data:`SUPPORTED_KEYS` (the caller falls back to per-point
    :func:`~repro.dse.objectives.evaluate_design`); invalid but supported
    points re-raise the scalar path's own exception.
    """
    if not points:
        raise ValueError("build_columns needs at least one point")
    for point in points:
        if not SUPPORTED_KEYS.issuperset(point):
            raise UnsupportedPoint(
                f"point keys {sorted(set(point) - SUPPORTED_KEYS)} are outside the "
                f"batched column layout (supported: {sorted(SUPPORTED_KEYS)})"
            )

    # One pass over the batch builds every column (hot path: this runs per
    # proposal batch inside the explorer loop).  Defaults mirror
    # ``point_to_config({})`` == ``GemminiConfig()``.
    rows = [
        (
            p.get("dim", 16),
            p.get("tile", 1),
            p.get("sp_kb", 256),
            p.get("acc_kb", 64),
            p.get("sp_banks", 4),
            p.get("acc_banks", 2),
            p.get("dataflow", "BOTH"),
            p.get("has_im2col", False),
        )
        for p in points
    ]
    dim_l, tile_l, sp_l, acc_l, spb_l, accb_l, dataflow_names, im_l = zip(*rows)
    dim = np.asarray(dim_l, dtype=np.int64)
    tile = np.asarray(tile_l, dtype=np.int64)
    sp_bytes = np.asarray(sp_l, dtype=np.int64) * 1024
    acc_bytes = np.asarray(acc_l, dtype=np.int64) * 1024
    sp_banks = np.asarray(spb_l, dtype=np.int64)
    acc_banks = np.asarray(accb_l, dtype=np.int64)
    has_im2col = np.asarray(im_l, dtype=bool)

    # Mirror GemminiConfig.__post_init__ (and geometry_kwargs): on any
    # violation, materialise the first offender so the error type and
    # message are exactly the scalar path's.
    ok = (dim >= 1) & (tile >= 1) & (tile <= dim)
    ok &= np.where(tile >= 1, dim % np.maximum(tile, 1) == 0, False)
    ok &= (sp_bytes > 0) & (acc_bytes > 0)
    for banks in (sp_banks, acc_banks):
        ok &= (banks >= 1) & ((banks & (banks - 1)) == 0)
    ok &= sp_bytes % (dim * (_INPUT_BITS // 8) * sp_banks) == 0
    ok &= acc_bytes % (dim * (_ACC_BITS // 8) * acc_banks) == 0
    if not _DATAFLOW_NAMES.issuperset(dataflow_names):
        ok &= np.asarray([name in _DATAFLOW_NAMES for name in dataflow_names])
    if not ok.all():
        point_to_config(points[int(np.argmin(ok))])  # raises the scalar error
        raise AssertionError("column validation disagrees with point_to_config")

    os_dataflow = np.asarray([name == "OS" for name in dataflow_names], dtype=bool)
    return ConfigColumns(
        dim=dim,
        tile_rows=tile,
        mesh_rows=dim // tile,
        sp_capacity_bytes=sp_bytes,
        acc_capacity_bytes=acc_bytes,
        sp_banks=sp_banks,
        acc_banks=acc_banks,
        has_im2col=has_im2col,
        os_dataflow=os_dataflow,
        input_bits=np.full(len(points), _INPUT_BITS, dtype=np.int64),
        dataflow_names=dataflow_names,
    )
