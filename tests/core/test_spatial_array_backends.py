"""Structural mesh: the wavefront against the per-PE reference.

``StructuralMesh.run_ws``/``run_os`` (numpy wavefront slabs) must be
*bitwise* identical to ``run_ws_reference``/``run_os_reference`` (per-PE
loops) — same output bits, same cycle counts — for any array geometry,
dataflow, operand shape and dtype.  These property tests are what let the
wavefront be the only structural engine, with the loops kept as oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import Accelerator
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
dtypes = st.sampled_from(["int8", "int32", "float32", "float64"])


def _operands(rng, shape, dtype):
    if dtype.startswith("int"):
        return rng.integers(-100, 100, size=shape).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


class TestBackendParityWS:
    @given(geometry, st.integers(min_value=1, max_value=12), seeds, dtypes)
    @settings(max_examples=40)
    def test_ws_bitwise_identical(self, geom, m, seed, dtype):
        dim, tr, tc = geom
        mesh = StructuralMesh(make_config(dim, tr, tc))
        rng = np.random.default_rng(seed)
        a = _operands(rng, (m, dim), dtype)
        b = _operands(rng, (dim, dim), dtype)
        d = _operands(rng, (m, dim), dtype)
        out_s, cyc_s = mesh.run_ws_reference(a, b, d)
        out_v, cyc_v = mesh.run_ws(a, b, d)
        assert cyc_s == cyc_v
        assert out_s.dtype == out_v.dtype
        assert np.array_equal(out_s, out_v)  # bitwise: no tolerance

    @given(geometry, seeds)
    @settings(max_examples=10)
    def test_ws_matches_numpy(self, geom, seed):
        """The fast path is still an exact matmul, not just self-consistent."""
        dim, tr, tc = geom
        mesh = StructuralMesh(make_config(dim, tr, tc))
        rng = np.random.default_rng(seed)
        a = rng.integers(-8, 8, size=(5, dim))
        b = rng.integers(-8, 8, size=(dim, dim))
        d = rng.integers(-8, 8, size=(5, dim))
        out, __ = mesh.run_ws(a, b, d)
        assert np.array_equal(out, (d + a @ b).astype(np.float64))


class TestBackendParityOS:
    @given(geometry, st.integers(min_value=1, max_value=12), seeds, dtypes)
    @settings(max_examples=40)
    def test_os_bitwise_identical(self, geom, k, seed, dtype):
        dim, tr, tc = geom
        mesh = StructuralMesh(make_config(dim, tr, tc))
        rng = np.random.default_rng(seed)
        a = _operands(rng, (dim, k), dtype)
        b = _operands(rng, (k, dim), dtype)
        d = _operands(rng, (dim, dim), dtype)
        out_s, cyc_s = mesh.run_os_reference(a, b, d)
        out_v, cyc_v = mesh.run_os(a, b, d)
        assert cyc_s == cyc_v
        assert out_s.dtype == out_v.dtype
        assert np.array_equal(out_s, out_v)

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


class TestStructuralCheckMode:
    """Accelerator(structural_check=True) replays computes on the mesh."""

    def _matmul_program(self, dim, ws):
        from repro.core import isa
        from repro.core.isa import LocalAddr

        if ws:
            return [
                isa.config_ex(dataflow_ws=True),
                isa.config_ld(stride_bytes=dim),
                isa.config_st(stride_bytes=dim),
                isa.mvin(0x1000, LocalAddr.sp(0), dim, dim),
                isa.mvin(0x2000, LocalAddr.sp(dim), dim, dim),
                isa.preload(LocalAddr.sp(dim), LocalAddr.acc(0), dim, dim, dim, dim),
                isa.compute_preloaded(
                    LocalAddr.sp(0), LocalAddr.garbage_addr(), dim, dim, dim, dim
                ),
                isa.mvout(0x3000, LocalAddr.acc(0), dim, dim),
                isa.fence(),
            ]
        return [
            isa.config_ex(dataflow_ws=False),
            isa.config_ld(stride_bytes=dim),
            isa.config_st(stride_bytes=dim),
            isa.mvin(0x1000, LocalAddr.sp(0), dim, dim),
            isa.mvin(0x2000, LocalAddr.sp(dim), dim, dim),
            isa.preload(LocalAddr.garbage_addr(), LocalAddr.acc(0), dim, dim, dim, dim),
            isa.compute_preloaded(LocalAddr.sp(0), LocalAddr.sp(dim), dim, dim, dim, dim),
            isa.flush(),
            isa.mvout(0x3000, LocalAddr.acc(0), dim, dim),
            isa.fence(),
        ]

    @pytest.mark.parametrize("ws", [True, False], ids=["ws", "os"])
    def test_checked_matmul_matches_reference(self, small_config, rng, ws):
        dim = small_config.dim
        accel = Accelerator(small_config, structural_check=True)
        assert accel.structural is not None
        a = rng.integers(-6, 6, size=(dim, dim)).astype(np.int8)
        b = rng.integers(-6, 6, size=(dim, dim)).astype(np.int8)
        accel.host.write_matrix(0x1000, a, dim)
        accel.host.write_matrix(0x2000, b, dim)
        accel.run_program(self._matmul_program(dim, ws))
        out = accel.host.read_matrix(0x3000, dim, dim, dim, np.int8)
        expected = np.clip(a.astype(np.int32) @ b.astype(np.int32), -128, 127)
        assert np.array_equal(out, expected.astype(np.int8))

    def test_check_disabled_by_default(self, small_config):
        assert Accelerator(small_config).structural is None

    def test_int32_wraparound_not_flagged(self, small_config):
        """The functional accumulator wraps at 32 bits like the hardware
        register; the float64 replay must be wrapped before comparing."""
        accel = Accelerator(small_config, structural_check=True)
        d = np.full((4, 4), 2**31 - 5, dtype=np.int32)
        a = np.ones((4, 1), dtype=np.int32)
        b = np.full((1, 4), 100, dtype=np.int32)
        accel.mesh.preload_os(d)
        before = accel.mesh.os_acc.copy()
        accel.mesh.compute_os(a, b)  # crosses INT32_MAX and wraps
        assert (accel.mesh.os_acc < 0).all()
        accel._check_os(a, b, before, accel.mesh.os_acc)  # must not raise

    def test_fp32_rounding_not_flagged(self):
        """fp32 accumulators round differently from the float64 structural
        replay; the check must tolerate that on cancellation-prone inputs
        while staying exact for integer configs."""
        from repro.core.dtypes import FP32

        cfg = GemminiConfig(
            mesh_rows=4,
            mesh_cols=4,
            tile_rows=1,
            tile_cols=1,
            input_type=FP32,
            acc_type=FP32,
            sp_capacity_bytes=4 * 4 * 256,
            sp_banks=1,
            acc_capacity_bytes=4 * 16 * 64,
            acc_banks=1,
        )
        accel = Accelerator(cfg, structural_check=True)
        rng = np.random.default_rng(0xF32)
        for __ in range(200):
            a = (rng.standard_normal((4, 4)) * 1e4).astype(np.float32)
            b = (rng.standard_normal((4, 4)) * 1e4).astype(np.float32)
            d = (rng.standard_normal((4, 4)) * 1e4).astype(np.float32)
            accel.mesh.stage_weights(b)
            accel.mesh.flip_weights()
            result = accel.mesh.compute_ws(a, d)
            accel._check_ws(a, d, result)  # must not raise
            accel.mesh.preload_os(d)
            before = accel.mesh.os_acc.copy()
            accel.mesh.compute_os(a, b)
            accel._check_os(a, b, before, accel.mesh.os_acc)  # must not raise

    def test_check_detects_corruption(self, small_config, rng):
        """A corrupted functional result must trip the structural check."""
        accel = Accelerator(small_config, structural_check=True)
        dim = small_config.dim
        a = rng.integers(-6, 6, size=(dim, dim)).astype(np.int8)
        b = rng.integers(-6, 6, size=(dim, dim)).astype(np.int8)
        accel.host.write_matrix(0x1000, a, dim)
        accel.host.write_matrix(0x2000, b, dim)
        # Sabotage the functional mesh: stage B, then corrupt the active
        # weights behind the structural model's back.
        original = accel.mesh.compute_ws

        def corrupted(a_block, d_block):
            return original(a_block, d_block) + 1

        accel.mesh.compute_ws = corrupted
        with pytest.raises(RuntimeError, match="structural check failed"):
            accel.run_program(self._matmul_program(dim, ws=True))
