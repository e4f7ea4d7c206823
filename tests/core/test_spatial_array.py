"""Tests for the spatial array: structural vs functional vs analytic.

The central claims validated here:

* the structural (per-cycle, two-level tiles-of-PEs) simulation computes
  exact matmuls for any tile decomposition, both dataflows;
* the functional mesh matches NumPy semantics including saturation;
* the analytic cycle model's latency terms agree with the structural
  pipeline (register counts).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import isa
from repro.core.accelerator import Accelerator
from repro.core.config import Dataflow, GemminiConfig
from repro.core.isa import LocalAddr
from repro.core.spatial_array import (
    FunctionalMesh,
    StructuralMesh,
    fill_latency,
    matmul_cycles,
)
from repro.dse.batch import ConfigColumns


def make_config(dim, tile_rows, tile_cols, **kwargs):
    return GemminiConfig(
        mesh_rows=dim // tile_rows,
        mesh_cols=dim // tile_cols,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
        sp_capacity_bytes=dim * 256,
        sp_banks=1,
        acc_capacity_bytes=dim * 4 * 64,
        acc_banks=1,
        **kwargs,
    )


TILINGS_4 = [(1, 1), (2, 2), (4, 4), (1, 4), (4, 1), (2, 1)]

#: every dataflow on several geometries, including non-square tile grids
COLUMN_CONFIGS = [
    make_config(dim, tile_rows, tile_cols, dataflow=dataflow)
    for dim, tile_rows, tile_cols in [(4, 1, 1), (4, 2, 2), (4, 4, 1), (8, 2, 4), (16, 4, 4)]
    for dataflow in Dataflow
]


class TestStructuralWS:
    @pytest.mark.parametrize("tile_rows,tile_cols", TILINGS_4)
    def test_ws_matches_numpy(self, tile_rows, tile_cols, rng):
        cfg = make_config(4, tile_rows, tile_cols)
        mesh = StructuralMesh(cfg)
        a = rng.integers(-8, 8, size=(6, 4))
        b = rng.integers(-8, 8, size=(4, 4))
        d = rng.integers(-8, 8, size=(6, 4))
        out, cycles = mesh.run_ws(a, b, d)
        expected = d + a @ b
        assert np.allclose(out, expected)
        assert cycles > 0

    def test_ws_single_row(self, rng):
        cfg = make_config(4, 1, 1)
        mesh = StructuralMesh(cfg)
        a = rng.integers(-4, 4, size=(1, 4))
        b = rng.integers(-4, 4, size=(4, 4))
        d = np.zeros((1, 4))
        out, __ = mesh.run_ws(a, b, d)
        assert np.allclose(out, a @ b)

    def test_ws_shape_mismatch_rejected(self):
        cfg = make_config(4, 1, 1)
        mesh = StructuralMesh(cfg)
        with pytest.raises(ValueError):
            mesh.run_ws(np.zeros((3, 5)), np.zeros((4, 4)), np.zeros((3, 4)))

    def test_register_count_helpers(self):
        cfg = make_config(4, 2, 2)
        mesh = StructuralMesh(cfg)
        assert mesh.row_regs_above(0) == 0
        assert mesh.row_regs_above(1) == 0
        assert mesh.row_regs_above(2) == 1
        assert mesh.col_regs_left(3) == 1

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8)
    def test_ws_arbitrary_m(self, m):
        cfg = make_config(4, 2, 2)
        mesh = StructuralMesh(cfg)
        rng = np.random.default_rng(m)
        a = rng.integers(-4, 4, size=(m, 4))
        b = rng.integers(-4, 4, size=(4, 4))
        d = rng.integers(-4, 4, size=(m, 4))
        out, __ = mesh.run_ws(a, b, d)
        assert np.allclose(out, d + a @ b)


class TestStructuralOS:
    @pytest.mark.parametrize("tile_rows,tile_cols", TILINGS_4)
    def test_os_matches_numpy(self, tile_rows, tile_cols, rng):
        cfg = make_config(4, tile_rows, tile_cols)
        mesh = StructuralMesh(cfg)
        k = 6
        a = rng.integers(-8, 8, size=(4, k))
        b = rng.integers(-8, 8, size=(k, 4))
        d = rng.integers(-8, 8, size=(4, 4))
        out, cycles = mesh.run_os(a, b, d)
        assert np.allclose(out, d + a @ b)
        assert cycles >= k

    def test_os_k_one(self, rng):
        cfg = make_config(4, 1, 1)
        mesh = StructuralMesh(cfg)
        a = rng.integers(-4, 4, size=(4, 1))
        b = rng.integers(-4, 4, size=(1, 4))
        d = np.zeros((4, 4))
        out, __ = mesh.run_os(a, b, d)
        assert np.allclose(out, a @ b)


class TestFunctionalMesh:
    def test_ws_compute_with_bias(self, small_config, rng):
        mesh = FunctionalMesh(small_config)
        a = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        b = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        d = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        mesh.stage_weights(b)
        mesh.flip_weights()
        out = mesh.compute_ws(a, d)
        assert (out == d + a @ b).all()

    def test_weight_double_buffering(self, small_config, rng):
        mesh = FunctionalMesh(small_config)
        b1 = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        b2 = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        a = np.eye(4, dtype=np.int32)
        mesh.stage_weights(b1)
        mesh.flip_weights()
        mesh.stage_weights(b2)  # staged but not active yet
        out1 = mesh.compute_ws(a, None)
        assert (out1 == b1).all()
        mesh.flip_weights()
        out2 = mesh.compute_ws(a, None)
        assert (out2 == b2).all()

    def test_partial_block_zero_padded(self, small_config, rng):
        mesh = FunctionalMesh(small_config)
        b = rng.integers(-8, 8, size=(3, 2)).astype(np.int32)
        mesh.stage_weights(b)
        mesh.flip_weights()
        a = rng.integers(-8, 8, size=(2, 3)).astype(np.int32)
        out = mesh.compute_ws(a, None)
        expected = np.zeros((2, 4), dtype=np.int32)
        expected[:, :2] = a @ b
        assert (out == expected).all()

    def test_os_accumulation_across_computes(self, small_config, rng):
        mesh = FunctionalMesh(small_config)
        a1 = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        b1 = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        a2 = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        b2 = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        d = rng.integers(-8, 8, size=(4, 4)).astype(np.int32)
        mesh.preload_os(d)
        mesh.compute_os(a1, b1)
        mesh.compute_os(a2, b2)
        out = mesh.drain_os()
        assert (out == d + a1 @ b1 + a2 @ b2).all()

    def test_drain_clears_state(self, small_config):
        mesh = FunctionalMesh(small_config)
        mesh.preload_os(np.ones((4, 4), dtype=np.int32))
        mesh.drain_os()
        assert (mesh.drain_os() == 0).all()


class TestStructuralVsFunctional:
    @pytest.mark.parametrize("tile_rows,tile_cols", [(1, 1), (2, 2), (4, 4)])
    def test_ws_equivalence(self, tile_rows, tile_cols, rng):
        cfg = make_config(4, tile_rows, tile_cols)
        structural = StructuralMesh(cfg)
        functional = FunctionalMesh(cfg)
        a = rng.integers(-8, 8, size=(5, 4))
        b = rng.integers(-8, 8, size=(4, 4))
        d = rng.integers(-8, 8, size=(5, 4))
        s_out, __ = structural.run_ws(a, b, d)
        functional.stage_weights(b.astype(np.int32))
        functional.flip_weights()
        f_out = functional.compute_ws(a.astype(np.int32), d.astype(np.int32))
        assert np.array_equal(s_out, f_out)

    @pytest.mark.parametrize("tile_rows,tile_cols", [(1, 1), (2, 2), (4, 4)])
    def test_os_equivalence(self, tile_rows, tile_cols, rng):
        """Two COMPUTE chunks into resident C match one structural pass."""
        cfg = make_config(4, tile_rows, tile_cols)
        structural = StructuralMesh(cfg)
        functional = FunctionalMesh(cfg)
        a = rng.integers(-8, 8, size=(4, 7))
        b = rng.integers(-8, 8, size=(7, 4))
        d = rng.integers(-8, 8, size=(4, 4))
        s_out, __ = structural.run_os(a, b, d)
        functional.preload_os(d.astype(np.int32))
        functional.compute_os(a[:, :3].astype(np.int32), b[:3].astype(np.int32))
        functional.compute_os(a[:, 3:].astype(np.int32), b[3:].astype(np.int32))
        f_out = functional.drain_os()
        assert np.array_equal(s_out, f_out)


class TestAnalyticModel:
    def test_fill_latency_systolic_vs_vector(self):
        systolic = make_config(4, 1, 1)
        vector = make_config(4, 4, 4)
        assert fill_latency(systolic) > fill_latency(vector)
        assert fill_latency(vector) == 2

    def test_compute_cycles_row_per_cycle(self, small_config):
        """A COMPUTE occupies the execute unit one cycle per streamed A row
        (at least one), after a 1-cycle CONFIG and a 1-cycle PRELOAD."""
        garbage = LocalAddr.garbage_addr()

        def exec_busy(rows):
            accel = Accelerator(small_config)
            accel.run_program([
                isa.config_ex(dataflow_ws=True),
                isa.preload(garbage, garbage, 4, 4, 4, 4),
                isa.compute_preloaded(garbage, garbage, 4, rows, 4, 4),
                isa.fence(),
            ])
            return accel.controller.units["exec"].busy_time

        assert exec_busy(4) == 2 + 4
        assert exec_busy(1) == 2 + 1
        assert exec_busy(0) == 2 + 1

    def test_matmul_cost_exact_blocks(self, small_config):
        # 2x2x2 blocks; each (k, n) block pair streams 8 rows of A.
        ws = replace(small_config, dataflow=Dataflow.WS)
        assert matmul_cycles(ws, 8, 8, 8) == 4 * 8 + fill_latency(ws)

    def test_matmul_cost_ragged_edges(self, small_config):
        ws = replace(small_config, dataflow=Dataflow.WS)
        # one (k, n) block pair: a full block of 4 rows + 1 leftover row
        assert matmul_cycles(ws, 5, 4, 4) == 4 + 1 + fill_latency(ws)

    def test_os_pays_drain(self, small_config):
        ws = replace(small_config, dataflow=Dataflow.WS)
        os = replace(small_config, dataflow=Dataflow.OS)
        both = replace(small_config, dataflow=Dataflow.BOTH)
        # 4x4 output blocks, each drained in one dim-cycle column wave
        assert matmul_cycles(os, 16, 16, 16) - matmul_cycles(ws, 16, 16, 16) == 16 * 4
        # a BOTH array runs WS
        assert matmul_cycles(both, 16, 16, 16) == matmul_cycles(ws, 16, 16, 16)

    def test_invalid_dims_rejected(self, small_config):
        with pytest.raises(ValueError):
            matmul_cycles(small_config, 0, 4, 4)
        cols = ConfigColumns.from_configs([small_config])
        with pytest.raises(ValueError):
            matmul_cycles(cols, np.array([[4], [0]]), 4, 4)

    def test_utilisation_peak_for_large_square(self, small_config):
        util = 64**3 / (matmul_cycles(small_config, 64, 64, 64) * small_config.num_pes)
        assert 0.9 < util <= 1.0

    def test_utilisation_poor_for_skinny(self, small_config):
        util = 64 * 64 / (matmul_cycles(small_config, 64, 1, 64) * small_config.num_pes)
        assert util < 0.3

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30)
    def test_cost_monotone_in_dims(self, m, k, n):
        cfg = make_config(4, 1, 1)
        base = matmul_cycles(cfg, m, k, n)
        assert matmul_cycles(cfg, m + 4, k, n) >= base
        assert matmul_cycles(cfg, m, k + 4, n) >= base
        assert matmul_cycles(cfg, m, k, n + 4) >= base

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=300),
                st.integers(min_value=1, max_value=300),
                st.integers(min_value=1, max_value=300),
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.sampled_from(COLUMN_CONFIGS), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_config_and_columns_agree_bitwise(self, shapes, configs):
        """One config with plain ints and a column batch with int64 arrays
        give the same cost, bit for bit, for every (shape, design) pair."""
        cols = ConfigColumns.from_configs(configs)
        assert cols.os_dataflow.tolist() == [c.os_dataflow for c in configs]
        m, k, n = np.asarray(shapes, dtype=np.int64).T[:, :, None]
        batch = matmul_cycles(cols, m, k, n)
        assert batch.dtype == np.float64 and batch.shape == (len(shapes), len(configs))
        for i, (mi, ki, ni) in enumerate(shapes):
            for j, config in enumerate(configs):
                one = matmul_cycles(config, mi, ki, ni)
                assert type(one) is float
                assert one.hex() == float(batch[i, j]).hex()

    def test_structural_cycle_agreement_ws(self, rng):
        """The structural sim's cycle count matches fill_latency + m."""
        for tiles in [(1, 1), (2, 2), (4, 4)]:
            cfg = make_config(4, *tiles)
            structural = StructuralMesh(cfg)
            m = 6
            a = rng.integers(-2, 2, size=(m, 4))
            b = rng.integers(-2, 2, size=(4, 4))
            d = np.zeros((m, 4))
            __, cycles = structural.run_ws(a, b, d)
            # Structural runs m cycles of streaming plus the pipeline drain;
            # the analytic fill latency must not exceed the structural drain.
            assert cycles >= m + fill_latency(cfg) - 2
