"""Structural mesh: the per-PE engine against numpy.

``StructuralMesh.run_ws``/``run_os`` step every PE of the two-level grid
each cycle.  These property tests check that, for any array geometry,
the result is an exact matmul: ``D + A @ B`` bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GemminiConfig
from repro.core.spatial_array import StructuralMesh


def make_config(dim, tile_rows, tile_cols):
    return GemminiConfig(
        mesh_rows=dim // tile_rows,
        mesh_cols=dim // tile_cols,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
        sp_capacity_bytes=dim * 256,
        sp_banks=1,
        acc_capacity_bytes=dim * 4 * 64,
        acc_banks=1,
    )


#: (dim, tile_rows, tile_cols): square/rectangular tiles, both extremes.
GEOMETRIES = [
    (2, 1, 1),
    (4, 1, 1),
    (4, 2, 2),
    (4, 4, 4),
    (4, 1, 4),
    (4, 4, 1),
    (6, 2, 3),
    (8, 2, 4),
    (8, 8, 1),
]

geometry = st.sampled_from(GEOMETRIES)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestBackendParityWS:
    @given(geometry, seeds)
    @settings(max_examples=10)
    def test_ws_matches_numpy(self, geom, seed):
        """The per-PE engine computes an exact matmul, bit for bit."""
        dim, tr, tc = geom
        mesh = StructuralMesh(make_config(dim, tr, tc))
        rng = np.random.default_rng(seed)
        a = rng.integers(-8, 8, size=(5, dim))
        b = rng.integers(-8, 8, size=(dim, dim))
        d = rng.integers(-8, 8, size=(5, dim))
        out, __ = mesh.run_ws(a, b, d)
        assert np.array_equal(out, (d + a @ b).astype(np.float64))


class TestBackendParityOS:
    @given(geometry, seeds)
    @settings(max_examples=10)
    def test_os_matches_numpy(self, geom, seed):
        dim, tr, tc = geom
        mesh = StructuralMesh(make_config(dim, tr, tc))
        rng = np.random.default_rng(seed)
        a = rng.integers(-8, 8, size=(dim, 7))
        b = rng.integers(-8, 8, size=(7, dim))
        d = rng.integers(-8, 8, size=(dim, dim))
        out, __ = mesh.run_os(a, b, d)
        assert np.array_equal(out, (d + a @ b).astype(np.float64))
