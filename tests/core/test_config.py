"""Unit tests for the architectural template configuration."""

import pytest

from repro.core.config import (
    Activation,
    Dataflow,
    GemminiConfig,
    config_from_dict,
    default_config,
    edge_config,
    fp32_config,
    systolic_config,
    vector_config,
)
from repro.core.dtypes import FP32, INT8, INT32
from repro.eval.experiments import FIG9_CONFIGS
from repro.mem.tlb import TLBConfig


class TestGeometry:
    def test_default_is_paper_config(self):
        cfg = default_config()
        assert cfg.dim == 16
        assert cfg.sp_capacity_bytes == 256 * 1024
        assert cfg.acc_capacity_bytes == 64 * 1024
        assert cfg.num_pes == 256

    def test_derived_rows(self):
        cfg = default_config()
        assert cfg.sp_row_bytes == 16  # 16 int8 elements
        assert cfg.sp_rows == 16384
        assert cfg.acc_row_bytes == 64  # 16 int32 elements
        assert cfg.acc_rows == 1024

    def test_two_level_grid(self):
        cfg = GemminiConfig(mesh_rows=4, mesh_cols=2, tile_rows=2, tile_cols=4)
        assert cfg.grid_rows == 8
        assert cfg.grid_cols == 8
        assert cfg.dim == 8

    def test_systolic_vs_vector_same_pes(self):
        sys = systolic_config(16)
        vec = vector_config(16)
        assert sys.num_pes == vec.num_pes == 256
        assert sys.pipeline_depth > vec.pipeline_depth

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValueError):
            GemminiConfig(mesh_rows=4, mesh_cols=2)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            GemminiConfig(sp_capacity_bytes=1000)

    def test_mixed_int_float_rejected(self):
        with pytest.raises(ValueError):
            GemminiConfig(input_type=INT8, acc_type=FP32)

    def test_bus_width_power_of_two(self):
        with pytest.raises(ValueError):
            GemminiConfig(dma_bus_bytes=12)


class TestDataflowEnum:
    def test_both_supports_each(self):
        assert Dataflow.BOTH.supports(Dataflow.WS)
        assert Dataflow.BOTH.supports(Dataflow.OS)

    def test_single_dataflow_exclusive(self):
        assert Dataflow.WS.supports(Dataflow.WS)
        assert not Dataflow.WS.supports(Dataflow.OS)


class TestVariants:
    def test_with_tlb(self):
        tlb = TLBConfig(private_entries=4, shared_entries=0)
        cfg = default_config().with_tlb(tlb)
        assert cfg.tlb.private_entries == 4

    def test_with_im2col(self):
        assert default_config().with_im2col(True).has_im2col

    def test_edge_config(self):
        cfg = edge_config(private_tlb_entries=4, filter_registers=True)
        assert cfg.tlb.private_entries == 4
        assert cfg.tlb.filter_registers
        assert cfg.sp_capacity_bytes == 256 * 1024

    def test_fig9_configs(self):
        __, base_acc, __l2 = FIG9_CONFIGS["Base"]
        big_sp, __acc, __l2 = FIG9_CONFIGS["BigSP"]
        assert base_acc == 256 * 1024
        assert big_sp == 512 * 1024

    def test_fp32_config(self):
        cfg = fp32_config()
        assert cfg.input_type is FP32

    def test_describe_mentions_geometry(self):
        text = default_config().describe()
        assert "16x16" in text
        assert "256KB" in text


class TestFromDict:
    def test_round_trip_fields(self):
        cfg = config_from_dict(
            {
                "mesh_rows": 8,
                "mesh_cols": 8,
                "input_type": "int8",
                "acc_type": "int32",
                "dataflow": "WS",
                "tlb": {"private_entries": 8, "shared_entries": 32},
            }
        )
        assert cfg.dim == 8
        assert cfg.input_type is INT8
        assert cfg.acc_type is INT32
        assert cfg.dataflow is Dataflow.WS
        assert cfg.tlb.private_entries == 8

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"input_type": "int7"})


class TestActivationEnum:
    def test_members(self):
        assert Activation.NONE.value == "none"
        assert Activation.RELU6.value == "relu6"


class TestValidationMessages:
    """Each invalid geometry is rejected at construction with a message
    naming the offending field and value (PR 2 satellite) — invalid
    configs must never reach the simulator."""

    def test_non_positive_dimension_names_field(self):
        with pytest.raises(ValueError, match=r"tile_rows must be >= 1, got 0"):
            GemminiConfig(tile_rows=0, tile_cols=1)
        with pytest.raises(ValueError, match=r"mesh_cols must be >= 1, got -2"):
            GemminiConfig(mesh_cols=-2)

    def test_non_square_grid_shows_decomposition(self):
        with pytest.raises(ValueError, match=r"32x16.*16x8 tiles of 2x2"):
            GemminiConfig(mesh_rows=16, mesh_cols=8, tile_rows=2, tile_cols=2)

    def test_zero_capacity_rejected(self):
        # 0 % anything == 0, so the divisibility check alone would pass.
        with pytest.raises(ValueError, match=r"sp_capacity_bytes must be positive, got 0"):
            GemminiConfig(sp_capacity_bytes=0)
        with pytest.raises(ValueError, match=r"acc_capacity_bytes must be positive"):
            GemminiConfig(acc_capacity_bytes=-1024)

    def test_non_power_of_two_banks_rejected(self):
        with pytest.raises(ValueError, match=r"sp_banks must be a positive power of two, got 3"):
            GemminiConfig(sp_banks=3)
        with pytest.raises(ValueError, match=r"acc_banks must be a positive power of two, got 6"):
            GemminiConfig(acc_banks=6)
        with pytest.raises(ValueError, match=r"acc_banks"):
            GemminiConfig(acc_banks=0)

    def test_capacity_bank_mismatch_shows_arithmetic(self):
        with pytest.raises(ValueError, match=r"sp_capacity_bytes=1000.*16-byte rows"):
            GemminiConfig(sp_capacity_bytes=1000)
        with pytest.raises(ValueError, match=r"acc_capacity_bytes=65000.*64-byte rows"):
            GemminiConfig(acc_capacity_bytes=65000)

    def test_queue_depths(self):
        with pytest.raises(ValueError, match="queue depths"):
            GemminiConfig(rob_entries=0)

    def test_valid_power_of_two_banks_accepted(self):
        for banks in (1, 2, 4, 8):
            assert GemminiConfig(sp_banks=banks).sp_banks == banks


class TestIntrospectionHelpers:
    def test_with_geometry(self):
        cfg = default_config().with_geometry(32, tile=4)
        assert cfg.dim == 32
        assert (cfg.mesh_rows, cfg.tile_rows) == (8, 4)
        assert cfg.sp_capacity_bytes == default_config().sp_capacity_bytes

    def test_with_geometry_rejects_non_divisor(self):
        with pytest.raises(ValueError, match=r"tile edge 3 must divide"):
            default_config().with_geometry(16, tile=3)
        with pytest.raises(ValueError, match=">= 1"):
            default_config().with_geometry(0)

    def test_to_dict_round_trips(self):
        cfg = GemminiConfig(
            mesh_rows=8, mesh_cols=8, dataflow=Dataflow.WS,
            sp_capacity_bytes=128 * 1024, has_im2col=True,
        )
        rebuilt = config_from_dict(cfg.to_dict())
        assert rebuilt == cfg

    def test_to_dict_is_plain_json(self):
        import json

        encoded = json.dumps(default_config().to_dict())
        assert '"dataflow": "BOTH"' in encoded
        assert '"input_type": "int8"' in encoded
