"""Unit and property tests for the tile-size heuristics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import default_config, GemminiConfig
from repro.core.generator import SoftwareParams
from repro.sw.tiling import (
    MatmulTiling,
    fits_budgets,
    manual_tiling,
    plan_matmul_tiling,
)


PARAMS = SoftwareParams.from_config(default_config())


class TestMatmulTiling:
    def test_tile_extents(self):
        t = MatmulTiling(i_blocks=2, j_blocks=3, k_blocks=4, dim=16, m=100, k=200, n=300)
        assert t.tile_m == 32
        assert t.tile_n == 48
        assert t.tile_k == 64

    def test_outer_trip_counts(self):
        t = MatmulTiling(i_blocks=2, j_blocks=2, k_blocks=2, dim=16, m=100, k=64, n=64)
        assert t.outer_i == 4  # ceil(100/32)
        assert t.outer_k == 2
        assert t.outer_j == 2
        assert t.total_iterations == 16

    def test_clipped_edges(self):
        t = MatmulTiling(i_blocks=2, j_blocks=2, k_blocks=2, dim=16, m=40, k=40, n=40)
        m, k, n = t.clipped(t.outer_i - 1, t.outer_j - 1, t.outer_k - 1)
        assert m == 8  # 40 - 32
        assert k == 8
        assert n == 8

    def test_footprints(self):
        t = MatmulTiling(i_blocks=2, j_blocks=3, k_blocks=4, dim=16, m=64, k=128, n=96)
        assert t.sp_rows_used() == (2 * 4 + 4 * 3) * 16
        assert t.acc_rows_used() == 2 * 3 * 16

    def test_validation(self):
        with pytest.raises(ValueError):
            MatmulTiling(0, 1, 1, 16, 10, 10, 10)
        with pytest.raises(ValueError):
            MatmulTiling(1, 1, 1, 16, 0, 10, 10)

    def test_loop_order_validation(self):
        with pytest.raises(ValueError, match="loop_order"):
            MatmulTiling(1, 1, 1, 16, 10, 10, 10, loop_order="kji")

    def test_dict_roundtrip(self):
        t = MatmulTiling(2, 3, 4, 16, 64, 128, 96, loop_order="jik",
                         double_buffer=False)
        assert MatmulTiling.from_dict(t.to_dict()) == t

    def test_from_dict_defaults_legacy_records(self):
        """Records written before loop_order/double_buffer existed load as
        the historical (ijk, double-buffered) schedule."""
        data = {"i_blocks": 2, "j_blocks": 2, "k_blocks": 2, "dim": 16,
                "m": 64, "k": 64, "n": 64}
        t = MatmulTiling.from_dict(data)
        assert t.loop_order == "ijk"
        assert t.double_buffer is True

    def test_fits_budgets_double_buffer_halves(self):
        # 8+8 blocks of 16 rows = 256 sp rows: fits the full scratchpad
        # of a tiny config but not half of it.
        cfg = GemminiConfig(
            sp_capacity_bytes=16 * 256,  # 256 rows of DIM int8 elements
            sp_banks=1,
            acc_capacity_bytes=64 * 64,  # 64 rows of DIM int32 elements
            acc_banks=1,
        )
        params = SoftwareParams.from_config(cfg)
        single = MatmulTiling(1, 1, 8, 16, 16, 512, 16, double_buffer=False)
        double = MatmulTiling(1, 1, 8, 16, 16, 512, 16, double_buffer=True)
        assert fits_budgets(params, single)
        assert not fits_budgets(params, double)


class TestPlanHeuristic:
    def test_small_matmul_single_tile(self):
        t = plan_matmul_tiling(PARAMS, 16, 16, 16)
        assert t.total_iterations == 1

    def test_fits_scratchpad_budget(self):
        t = plan_matmul_tiling(PARAMS, 4096, 4096, 4096)
        assert t.double_buffer  # the greedy plan always double-buffers
        assert t.sp_rows_used() <= PARAMS.sp_rows // 2
        assert t.acc_rows_used() <= PARAMS.acc_rows // 2

    def test_never_exceeds_matrix_extent(self):
        t = plan_matmul_tiling(PARAMS, 20, 20, 20)
        assert t.i_blocks <= 2
        assert t.j_blocks <= 2
        assert t.k_blocks <= 2

    def test_maximises_utilisation(self):
        """The heuristic should leave no room to grow any dimension."""
        t = plan_matmul_tiling(PARAMS, 10000, 10000, 10000)
        budget_sp = PARAMS.sp_rows // 2
        budget_acc = PARAMS.acc_rows // 2
        for di, dj, dk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            sp = ((t.i_blocks + di) * (t.k_blocks + dk)
                  + (t.k_blocks + dk) * (t.j_blocks + dj)) * 16
            acc = (t.i_blocks + di) * (t.j_blocks + dj) * 16
            assert sp > budget_sp or acc > budget_acc

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            plan_matmul_tiling(PARAMS, 0, 4, 4)

    def test_tiny_scratchpad_rejected(self):
        cfg = GemminiConfig(
            sp_capacity_bytes=16 * 16 * 2,  # 2 rows only
            sp_banks=1,
            acc_capacity_bytes=16 * 64,
            acc_banks=1,
        )
        params = SoftwareParams.from_config(cfg)
        with pytest.raises(ValueError):
            plan_matmul_tiling(params, 64, 64, 64)

    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=40)
    def test_always_fits_and_covers(self, m, k, n):
        t = plan_matmul_tiling(PARAMS, m, k, n)
        assert t.sp_rows_used() <= PARAMS.sp_rows // 2
        assert t.acc_rows_used() <= PARAMS.acc_rows // 2
        # Outer loops cover the full extents.
        assert t.outer_i * t.tile_m >= m
        assert t.outer_j * t.tile_n >= n
        assert t.outer_k * t.tile_k >= k


class TestManualTiling:
    def test_accepts_fitting_tiles(self):
        t = manual_tiling(PARAMS, 256, 256, 256, 4, 4, 4)
        assert t.i_blocks == 4

    def test_rejects_oversized_tiles(self):
        with pytest.raises(ValueError):
            manual_tiling(PARAMS, 10000, 10000, 10000, 64, 64, 64)

    def test_rejects_acc_overflow(self):
        # Accumulator budget (default 64 KB -> 1024 rows, half = 512) caps
        # i*j at 32 blocks.
        with pytest.raises(ValueError):
            manual_tiling(PARAMS, 2048, 64, 2048, 16, 16, 1)

    def test_acc_overflow_message_names_budget(self):
        with pytest.raises(ValueError, match="accumulator rows, budget is 512"):
            manual_tiling(PARAMS, 2048, 64, 2048, 16, 16, 1)

    def test_sp_overflow_message_names_budget(self):
        with pytest.raises(
            ValueError, match=r"scratchpad rows, budget is \d+"
        ):
            manual_tiling(PARAMS, 10000, 10000, 10000, 4, 4, 128)

    def test_single_buffer_doubles_manual_budget(self):
        """A tiling over half the accumulator is rejected double-buffered
        but accepted (and marked) with double_buffer=False."""
        with pytest.raises(ValueError, match="accumulator"):
            manual_tiling(PARAMS, 2048, 64, 2048, 33, 1, 1)
        t = manual_tiling(PARAMS, 2048, 64, 2048, 33, 1, 1, double_buffer=False)
        assert t.double_buffer is False
        assert fits_budgets(PARAMS, t)

    def test_single_buffer_still_bounded(self):
        with pytest.raises(ValueError, match="budget is 1024"):
            manual_tiling(PARAMS, 2048, 64, 2048, 65, 1, 1, double_buffer=False)


class TestPlannerMemoization:
    def test_same_args_return_cached_object(self):
        params = SoftwareParams.from_config(default_config())
        before = plan_matmul_tiling.cache_info().hits
        first = plan_matmul_tiling(params, 640, 640, 640)
        again = plan_matmul_tiling(params, 640, 640, 640)
        assert again is first  # lru_cache returned the same object
        assert plan_matmul_tiling.cache_info().hits > before
