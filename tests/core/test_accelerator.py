"""End-to-end ISA-level tests: programs in, NumPy-checked results out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import isa
from repro.core.accelerator import Accelerator
from repro.core.config import GemminiConfig, default_config
from repro.core.isa import LocalAddr
from repro.sw.lowlevel import GemminiProgramBuilder


DIM = 4


@pytest.fixture
def accel(small_config):
    return Accelerator(small_config)


def load_matrix(accel, vaddr, matrix, dtype=np.int8):
    accel.host.write_matrix(vaddr, matrix.astype(dtype), matrix.shape[1] * np.dtype(dtype).itemsize)


def ws_matmul_program(a_vaddr, b_vaddr, c_vaddr, m=DIM):
    """A simple single-block WS matmul: C = A @ B via the accumulator."""
    return [
        isa.config_ex(dataflow_ws=True),
        isa.config_ld(stride_bytes=DIM),
        isa.config_st(stride_bytes=DIM),
        isa.mvin(a_vaddr, LocalAddr.sp(0), DIM, m),
        isa.mvin(b_vaddr, LocalAddr.sp(16), DIM, DIM),
        isa.preload(LocalAddr.sp(16), LocalAddr.acc(0), DIM, DIM, DIM, m),
        isa.compute_preloaded(
            LocalAddr.sp(0), LocalAddr.garbage_addr(), DIM, m, DIM, DIM
        ),
        isa.mvout(c_vaddr, LocalAddr.acc(0), DIM, m),
        isa.fence(),
    ]


class TestProgramTiming:
    """``run_program`` measures its own program: from where it starts (the
    controller's clock or ``start_time``, whichever is later) to the drain."""

    @staticmethod
    def program(config):
        builder = GemminiProgramBuilder(config)
        builder.tiled_matmul_auto(0x1_0000, 0x2_0000, 0x3_0000, 32, 32, 32)
        return builder.build()

    def test_second_run_reports_its_own_cycles(self):
        config = default_config()
        accel = Accelerator(config)
        first = accel.run_program(self.program(config))
        start = accel.controller.now
        second = accel.run_program(self.program(config))
        assert first.cycles == start
        assert second.cycles == accel.controller.now - start
        assert 0 < second.cycles <= first.cycles  # warm TLB and L2

    def test_start_time_advances_the_controller(self):
        config = default_config()
        reference = Accelerator(config).run_program(self.program(config))
        accel = Accelerator(config)
        delayed = accel.run_program(self.program(config), start_time=10_000.0)
        assert delayed.cycles == reference.cycles
        assert accel.controller.now == 10_000.0 + reference.cycles


class TestWSMatmul:
    def test_single_block(self, accel, rng):
        a = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)
        b = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, b)
        result = accel.run_program(ws_matmul_program(0x1000, 0x2000, 0x3000))
        out = accel.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)
        expected = np.int8(np.clip(a.astype(np.int32) @ b.astype(np.int32), -128, 127))
        assert (out == expected).all()
        assert result.cycles > 0
        assert result.instructions == 9

    def test_partial_rows(self, accel, rng):
        m = 2
        a = rng.integers(-8, 8, size=(m, DIM)).astype(np.int8)
        b = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, b)
        accel.run_program(ws_matmul_program(0x1000, 0x2000, 0x3000, m=m))
        out = accel.host.read_matrix(0x3000, m, DIM, DIM, np.int8)
        expected = np.int8(np.clip(a.astype(np.int32) @ b.astype(np.int32), -128, 127))
        assert (out == expected).all()

    def test_accumulate_bit_sums_two_matmuls(self, accel, rng):
        a1 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        b1 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        a2 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        b2 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        for vaddr, mat in [(0x1000, a1), (0x2000, b1), (0x4000, a2), (0x5000, b2)]:
            load_matrix(accel, vaddr, mat)
        program = [
            isa.config_ex(dataflow_ws=True),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.mvin(0x4000, LocalAddr.sp(8), DIM, DIM),
            isa.mvin(0x5000, LocalAddr.sp(12), DIM, DIM),
            isa.preload(LocalAddr.sp(4), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(
                LocalAddr.sp(0), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM
            ),
            isa.preload(LocalAddr.sp(12), LocalAddr.acc(0, accumulate=True), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(
                LocalAddr.sp(8), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM
            ),
            isa.mvout(0x6000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x6000, DIM, DIM, DIM, np.int8)
        expected = a1.astype(np.int32) @ b1.astype(np.int32) + a2.astype(
            np.int32
        ) @ b2.astype(np.int32)
        assert (out == np.clip(expected, -128, 127).astype(np.int8)).all()

    def test_weight_reuse_with_compute_accumulate(self, accel, rng):
        """COMPUTE_ACCUMULATE reuses the active weights (no re-preload)."""
        a1 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        a2 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        b = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        for vaddr, mat in [(0x1000, a1), (0x2000, b), (0x4000, a2)]:
            load_matrix(accel, vaddr, mat)
        program = [
            isa.config_ex(dataflow_ws=True),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.mvin(0x4000, LocalAddr.sp(8), DIM, DIM),
            isa.preload(LocalAddr.sp(4), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(
                LocalAddr.sp(0), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM
            ),
            # Reuse B for a second A block, output to a second acc region.
            isa.preload(LocalAddr.garbage_addr(), LocalAddr.acc(4), 0, 0, DIM, DIM),
            isa.compute_accumulate(
                LocalAddr.sp(8), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM
            ),
            isa.mvout(0x6000, LocalAddr.acc(0), DIM, DIM),
            isa.mvout(0x7000, LocalAddr.acc(4), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out1 = accel.host.read_matrix(0x6000, DIM, DIM, DIM, np.int8)
        out2 = accel.host.read_matrix(0x7000, DIM, DIM, DIM, np.int8)
        e1 = np.clip(a1.astype(np.int32) @ b.astype(np.int32), -128, 127).astype(np.int8)
        e2 = np.clip(a2.astype(np.int32) @ b.astype(np.int32), -128, 127).astype(np.int8)
        assert (out1 == e1).all()
        assert (out2 == e2).all()

    def test_bias_via_mvin_to_acc(self, accel, rng):
        a = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        b = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        bias = rng.integers(-100, 100, size=(DIM, DIM)).astype(np.int32)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, b)
        accel.host.write_matrix(0x3000, bias, DIM * 4)
        program = [
            isa.config_ex(dataflow_ws=True),
            isa.config_ld(stride_bytes=DIM * 4),
            isa.mvin(0x3000, LocalAddr.acc(0), DIM, DIM),  # bias into acc
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.preload(LocalAddr.sp(4), LocalAddr.acc(0, accumulate=True), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(
                LocalAddr.sp(0), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM
            ),
            isa.mvout(0x6000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x6000, DIM, DIM, DIM, np.int8)
        expected = bias + a.astype(np.int32) @ b.astype(np.int32)
        assert (out == np.clip(expected, -128, 127).astype(np.int8)).all()

    def test_relu_on_mvout(self, accel, rng):
        a = -np.eye(DIM, dtype=np.int8) * 8
        b = np.eye(DIM, dtype=np.int8)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, b)
        program = [isa.config_ex(dataflow_ws=True, activation=1)] + ws_matmul_program(
            0x1000, 0x2000, 0x3000
        )[1:]
        accel.run_program(program)
        out = accel.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)
        assert (out >= 0).all()

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10000))
    @settings(max_examples=10)
    def test_random_shapes_and_seeds(self, m, seed):
        cfg = GemminiConfig(
            mesh_rows=4, mesh_cols=4, tile_rows=1, tile_cols=1,
            sp_capacity_bytes=4 * 4 * 256, sp_banks=2,
            acc_capacity_bytes=4 * 16 * 64, acc_banks=2,
        )
        accel = Accelerator(cfg)
        rng = np.random.default_rng(seed)
        a = rng.integers(-8, 8, size=(m, DIM)).astype(np.int8)
        b = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, b)
        accel.run_program(ws_matmul_program(0x1000, 0x2000, 0x3000, m=m))
        out = accel.host.read_matrix(0x3000, m, DIM, DIM, np.int8)
        expected = np.clip(a.astype(np.int32) @ b.astype(np.int32), -128, 127)
        assert (out == expected.astype(np.int8)).all()


class TestOSMatmul:
    def test_os_single_block(self, accel, rng):
        a = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)
        b = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, b)
        program = [
            isa.config_ex(dataflow_ws=False),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.preload(LocalAddr.garbage_addr(), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(LocalAddr.sp(0), LocalAddr.sp(4), DIM, DIM, DIM, DIM),
            isa.flush(),
            isa.mvout(0x3000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)
        expected = np.clip(a.astype(np.int32) @ b.astype(np.int32), -128, 127)
        assert (out == expected.astype(np.int8)).all()

    def test_os_k_accumulation(self, accel, rng):
        """Two COMPUTEs accumulate into the resident C before draining."""
        a1 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        b1 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        a2 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        b2 = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        for vaddr, mat in [(0x1000, a1), (0x2000, b1), (0x4000, a2), (0x5000, b2)]:
            load_matrix(accel, vaddr, mat)
        program = [
            isa.config_ex(dataflow_ws=False),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.mvin(0x4000, LocalAddr.sp(8), DIM, DIM),
            isa.mvin(0x5000, LocalAddr.sp(12), DIM, DIM),
            isa.preload(LocalAddr.garbage_addr(), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(LocalAddr.sp(0), LocalAddr.sp(4), DIM, DIM, DIM, DIM),
            isa.compute_accumulate(LocalAddr.sp(8), LocalAddr.sp(12), DIM, DIM, DIM, DIM),
            isa.flush(),
            isa.mvout(0x6000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x6000, DIM, DIM, DIM, np.int8)
        expected = a1.astype(np.int32) @ b1.astype(np.int32) + a2.astype(
            np.int32
        ) @ b2.astype(np.int32)
        assert (out == np.clip(expected, -128, 127).astype(np.int8)).all()


class TestDataflowsAgree:
    def test_ws_os_same_result(self, rng):
        cfg_kwargs = dict(
            mesh_rows=4, mesh_cols=4, tile_rows=1, tile_cols=1,
            sp_capacity_bytes=4 * 4 * 256, sp_banks=2,
            acc_capacity_bytes=4 * 16 * 64, acc_banks=2,
        )
        a = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)
        b = rng.integers(-8, 8, size=(DIM, DIM)).astype(np.int8)

        ws = Accelerator(GemminiConfig(**cfg_kwargs))
        load_matrix(ws, 0x1000, a)
        load_matrix(ws, 0x2000, b)
        ws.run_program(ws_matmul_program(0x1000, 0x2000, 0x3000))
        ws_out = ws.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)

        os_accel = Accelerator(GemminiConfig(**cfg_kwargs))
        load_matrix(os_accel, 0x1000, a)
        load_matrix(os_accel, 0x2000, b)
        program = [
            isa.config_ex(dataflow_ws=False),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.preload(LocalAddr.garbage_addr(), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(LocalAddr.sp(0), LocalAddr.sp(4), DIM, DIM, DIM, DIM),
            isa.flush(),
            isa.mvout(0x3000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        os_accel.run_program(program)
        os_out = os_accel.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)
        assert (ws_out == os_out).all()


class TestTimingBehaviour:
    def test_mvin_compute_overlap(self, small_config, rng):
        """Loads to independent buffers overlap with compute (decoupling)."""
        accel = Accelerator(small_config)
        a = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        for vaddr in (0x1000, 0x2000, 0x4000, 0x5000):
            load_matrix(accel, vaddr, a)
        serial_cycles = 0.0
        program = [
            isa.config_ex(dataflow_ws=True),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.preload(LocalAddr.sp(4), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(LocalAddr.sp(0), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM),
            # Next tile's loads: same program order, independent buffers.
            isa.mvin(0x4000, LocalAddr.sp(8), DIM, DIM),
            isa.mvin(0x5000, LocalAddr.sp(12), DIM, DIM),
            isa.fence(),
        ]
        result = accel.run_program(program)
        assert result.cycles > serial_cycles

    def test_dependent_compute_waits_for_mvin(self, small_config, rng):
        accel = Accelerator(small_config)
        a = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, a)
        result = accel.run_program(ws_matmul_program(0x1000, 0x2000, 0x3000))
        # DMA for two tiles takes >= 100 cycles through DRAM; compute must
        # have waited (total >> pure compute time of ~4 cycles).
        assert result.cycles > 100

    def test_config_errors(self, small_config):
        from dataclasses import replace
        from repro.core.config import Dataflow

        accel = Accelerator(replace(small_config, dataflow=Dataflow.WS))
        with pytest.raises(ValueError):
            accel.run_program([isa.config_ex(dataflow_ws=False)])

        accel2 = Accelerator(replace(small_config, has_transposer=False))
        with pytest.raises(ValueError):
            accel2.run_program([isa.config_ex(dataflow_ws=True, transpose_a=True)])

    def test_reset_restores_initial_state(self, small_config, rng):
        accel = Accelerator(small_config)
        a = rng.integers(-4, 4, size=(DIM, DIM)).astype(np.int8)
        load_matrix(accel, 0x1000, a)
        load_matrix(accel, 0x2000, a)
        accel.run_program(ws_matmul_program(0x1000, 0x2000, 0x3000))
        accel.reset()
        assert accel.controller.now == 0.0
        assert accel.stats.value("instructions") == 0
