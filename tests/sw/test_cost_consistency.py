"""Cost-model consistency: macro analytic costs vs ISA-level execution.

One cost model spans both simulation granularities: the closed-form
``matmul_cycles`` used by the macro kernels must agree with the cycles
measured when the same matmul executes instruction by instruction through
the ISA-level simulator's execute unit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import Accelerator
from repro.core.config import Dataflow, GemminiConfig, default_config
from repro.core.spatial_array import fill_latency, matmul_cycles
from repro.sw.lowlevel import GemminiProgramBuilder


def small_cfg(dataflow=Dataflow.BOTH):
    return GemminiConfig(
        mesh_rows=4, mesh_cols=4, tile_rows=1, tile_cols=1,
        sp_capacity_bytes=4 * 4 * 1024, sp_banks=2,
        acc_capacity_bytes=4 * 16 * 256, acc_banks=2,
        dataflow=dataflow,
    )


def ws_compute_cycles(m, k, n):
    """The closed form's streaming cycles on the WS array (total minus fill)."""
    cfg = small_cfg(Dataflow.WS)
    return matmul_cycles(cfg, m, k, n) - fill_latency(cfg)


def isa_exec_busy_cycles(m, k, n):
    """Execute-unit busy time of an ISA-level blocked matmul."""
    cfg = small_cfg()
    accel = Accelerator(cfg)
    rng = np.random.default_rng(1)
    a = rng.integers(-4, 4, size=(m, k)).astype(np.int8)
    b = rng.integers(-4, 4, size=(k, n)).astype(np.int8)
    accel.host.write_matrix(0x10000, a, k)
    accel.host.write_matrix(0x20000, b, n)
    builder = GemminiProgramBuilder(cfg)
    builder.tiled_matmul_auto(0x10000, 0x20000, 0x30000, m, k, n)
    accel.run_program(builder.build())
    return accel.controller.units["exec"].busy_time


class TestCostConsistency:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=20)
    def test_analytic_matches_isa_compute_cycles(self, m, k, n):
        """Analytic compute cycles == ISA execute-unit busy time (minus the
        per-instruction issue costs the analytic model excludes)."""
        busy = isa_exec_busy_cycles(m, k, n)
        dim = 4
        mb = -(-m // dim)
        kb = -(-k // dim)
        nb = -(-n // dim)
        # The ISA stream adds 1-cycle PRELOADs and 4 CONFIGs
        # (config_ex, config_ld for A, config_ld for B, config_st).
        preload_overhead = mb * kb * nb * 1 + 4
        assert busy == pytest.approx(ws_compute_cycles(m, k, n) + preload_overhead, abs=1.0)

    def test_single_block_exact(self):
        busy = isa_exec_busy_cycles(4, 4, 4)
        assert busy == ws_compute_cycles(4, 4, 4) + 1 + 4  # 1 preload + 4 configs

    def test_macro_kernel_uses_same_model(self):
        """The macro kernel's exec op cycles come from the same closed form."""
        from repro.core.config import default_config
        from repro.soc.soc import make_soc
        from repro.sw.kernels import ISSUE_OVERHEAD, TileKernels

        soc = make_soc(gemmini=default_config().with_im2col(True))
        soc.tile.vm.alloc(1 << 20, "arena")
        kernels = TileKernels(soc.tile)
        ops = list(kernels.matmul_ops(0x1000_0000, 0x1001_0000, 0x1002_0000, 64, 64, 64))
        exec_ops = [op for op in ops if op.unit == "exec"]
        expected = matmul_cycles(soc.tile.accel.config, 64, 64, 64)
        assert exec_ops[0].cycles == pytest.approx(expected + ISSUE_OVERHEAD)


def _mobilenet_setup(config, input_hw):
    """A runtime for mobilenetv2 bound to a fresh SoC of ``config``."""
    from repro.core.generator import SoftwareParams
    from repro.models.zoo import build_model
    from repro.soc.soc import make_soc
    from repro.sw.compiler import compile_graph
    from repro.sw.runtime import Runtime

    model = compile_graph(
        build_model("mobilenetv2", input_hw=input_hw), SoftwareParams.from_config(config)
    )
    return Runtime(make_soc(gemmini=config).tile, model)


class TestDepthwiseAgreement:
    """The kernels and the analytic tier price a depthwise layer from one
    lowering, :attr:`~repro.sw.compiler.LayerPlan.array_matmul`."""

    CONFIGS = {
        "default": default_config,
        "os_8x8": lambda: GemminiConfig(dataflow=Dataflow.OS).with_geometry(8),
    }

    @pytest.mark.parametrize("input_hw", [224, 32])
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_kernel_exec_cycles_match_lowering(self, config_name, input_hw):
        from repro.dse.batch import ConfigColumns
        from repro.dse.objectives import analytic_cycles, model_workload
        from repro.sw.kernels import ISSUE_OVERHEAD

        config = self.CONFIGS[config_name]()
        runtime = _mobilenet_setup(config, input_hw)
        dwconv = [plan for plan in runtime.model.plans if plan.kind == "dwconv"]
        assert len(dwconv) == 17
        lowered = 0.0
        for plan in dwconv:
            __, ops = runtime._accel_plan_ops(plan)
            execs = [op for op in ops if op.label == f"{plan.name}.ex"]
            charged = sum(op.cycles for op in execs) - ISSUE_OVERHEAD * len(execs)
            shape, count = plan.array_matmul
            assert charged == count * matmul_cycles(config, *shape), plan.name
            lowered += charged
        priced = sum(
            count * matmul_cycles(config, *shape)
            for shape, count in filter(None, (p.array_matmul for p in runtime.model.plans))
        )
        workload = model_workload("mobilenetv2", input_hw=input_hw)
        assert analytic_cycles(ConfigColumns.from_configs([config]), workload)[0] == priced
        if (config_name, input_hw) == ("default", 224):
            assert (lowered, priced) == (2_530_176, 3_684_928)
