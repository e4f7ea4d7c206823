"""Feature tests for the ISA executor: transposes, scaling, shrink loads.

Complements ``test_accelerator.py`` with the optional-datapath features the
template generates: the transposer (required by the OS dataflow and for
transposed operands), the matrix-scalar multiplier on MVIN, shrunk
(int8-into-accumulator) loads, and accumulator scale on MVOUT.
"""

import numpy as np
import pytest

from repro.core import isa
from repro.core.accelerator import Accelerator
from repro.core.isa import LocalAddr

DIM = 4


@pytest.fixture
def accel(small_config):
    return Accelerator(small_config)


def load(accel, vaddr, mat, dtype=np.int8):
    accel.host.write_matrix(vaddr, mat.astype(dtype), mat.shape[1] * np.dtype(dtype).itemsize)


class TestTransposes:
    def test_transpose_a(self, accel, rng):
        a = rng.integers(-6, 6, size=(DIM, DIM)).astype(np.int8)
        b = rng.integers(-6, 6, size=(DIM, DIM)).astype(np.int8)
        load(accel, 0x1000, a)
        load(accel, 0x2000, b)
        program = [
            isa.config_ex(dataflow_ws=True, transpose_a=True),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.preload(LocalAddr.sp(4), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(LocalAddr.sp(0), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM),
            isa.mvout(0x3000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)
        expected = np.clip(a.T.astype(np.int32) @ b.astype(np.int32), -128, 127)
        assert (out == expected.astype(np.int8)).all()

    def test_transpose_b(self, accel, rng):
        a = rng.integers(-6, 6, size=(DIM, DIM)).astype(np.int8)
        b = rng.integers(-6, 6, size=(DIM, DIM)).astype(np.int8)
        load(accel, 0x1000, a)
        load(accel, 0x2000, b)
        program = [
            isa.config_ex(dataflow_ws=True, transpose_b=True),
            isa.config_ld(stride_bytes=DIM),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.mvin(0x2000, LocalAddr.sp(4), DIM, DIM),
            isa.preload(LocalAddr.sp(4), LocalAddr.acc(0), DIM, DIM, DIM, DIM),
            isa.compute_preloaded(LocalAddr.sp(0), LocalAddr.garbage_addr(), DIM, DIM, DIM, DIM),
            isa.mvout(0x3000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)
        expected = np.clip(a.astype(np.int32) @ b.T.astype(np.int32), -128, 127)
        assert (out == expected.astype(np.int8)).all()


class TestLoadPath:
    def test_mvin_scale(self, accel):
        data = np.full((DIM, DIM), 10, dtype=np.int8)
        load(accel, 0x1000, data)
        program = [
            isa.config_ld(stride_bytes=DIM, scale=0.5),
            isa.mvin(0x1000, LocalAddr.sp(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        __, stored = accel.scratchpad.read(0.0, 0, DIM)
        assert (stored == 5).all()

    def test_mvin_shrink_loads_int8_into_acc(self, accel):
        data = np.full((DIM, DIM), 7, dtype=np.int8)
        load(accel, 0x1000, data)
        program = [
            isa.config_ld(stride_bytes=DIM, shrink=True),
            isa.mvin(0x1000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        __, stored = accel.accumulator.read_raw(0.0, 0, DIM)
        assert stored.dtype == np.int32
        assert (stored == 7).all()

    def test_mvin_accumulate_into_acc(self, accel):
        bias = np.full((DIM, DIM), 3, dtype=np.int32)
        accel.host.write_matrix(0x1000, bias, DIM * 4)
        program = [
            isa.config_ld(stride_bytes=DIM * 4),
            isa.mvin(0x1000, LocalAddr.acc(0), DIM, DIM),
            isa.mvin(0x1000, LocalAddr.acc(0, accumulate=True), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        __, stored = accel.accumulator.read_raw(0.0, 0, DIM)
        assert (stored == 6).all()

    def test_scale_without_matscalar_rejected(self, small_config):
        from dataclasses import replace

        accel = Accelerator(replace(small_config, has_matscalar=False))
        accel.host.write_matrix(0x1000, np.ones((2, 2), dtype=np.int8), 2)
        program = [
            isa.config_ld(stride_bytes=2, scale=0.5),
            isa.mvin(0x1000, LocalAddr.sp(0), 2, 2),
        ]
        with pytest.raises(ValueError):
            accel.run_program(program)


class TestStorePath:
    def test_acc_scale_on_mvout(self, accel):
        values = np.full((DIM, DIM), 100, dtype=np.int32)
        accel.host.write_matrix(0x1000, values, DIM * 4)
        program = [
            isa.config_ex(dataflow_ws=True, acc_scale=0.25),
            isa.config_ld(stride_bytes=DIM * 4),
            isa.config_st(stride_bytes=DIM),
            isa.mvin(0x1000, LocalAddr.acc(0), DIM, DIM),
            isa.mvout(0x3000, LocalAddr.acc(0), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x3000, DIM, DIM, DIM, np.int8)
        assert (out == 25).all()

    def test_read_full_keeps_int32(self, accel):
        values = np.full((DIM, DIM), 70000, dtype=np.int32)
        accel.host.write_matrix(0x1000, values, DIM * 4)
        program = [
            isa.config_ld(stride_bytes=DIM * 4),
            isa.config_st(stride_bytes=DIM * 4),
            isa.mvin(0x1000, LocalAddr.acc(0), DIM, DIM),
            isa.mvout(0x3000, LocalAddr.acc(0, read_full=True), DIM, DIM),
            isa.fence(),
        ]
        accel.run_program(program)
        out = accel.host.read_matrix(0x3000, DIM, DIM, DIM * 4, np.int32)
        assert (out == 70000).all()

    def test_pooled_mvout_unsupported_at_isa_level(self, accel):
        program = [
            isa.config_st(stride_bytes=DIM, pool_size=2, pool_stride=2),
            isa.mvout(0x3000, LocalAddr.sp(0), DIM, DIM),
        ]
        with pytest.raises(NotImplementedError):
            accel.run_program(program)

    def test_pooled_mvout_error_names_the_kernel_path(self, accel):
        """The error points at fused pooling in the kernels, and every
        ``TileKernels`` attribute it names exists."""
        import inspect
        import re

        from repro.sw.kernels import TileKernels

        program = [
            isa.config_st(stride_bytes=DIM, pool_size=2, pool_stride=2),
            isa.mvout(0x3000, LocalAddr.sp(0), DIM, DIM),
        ]
        with pytest.raises(
            NotImplementedError, match=r"repro\.sw\.kernels\.TileKernels\.matmul_ops"
        ) as raised:
            accel.run_program(program)
        message = str(raised.value)
        names = set(re.findall(r"TileKernels\.(\w+)", message))
        assert {"matmul_ops", "pool_cycles", "pool_ops"} <= names
        assert all(hasattr(TileKernels, name) for name in names)
        for keyword in re.findall(r"\((\w+)=", message):
            assert keyword in inspect.signature(TileKernels.matmul_ops).parameters


class TestErrorPaths:
    def test_mvin_to_garbage_rejected(self, accel):
        with pytest.raises(ValueError):
            accel.run_program([isa.mvin(0, LocalAddr.garbage_addr(), 2, 2)])

    def test_mvin_too_wide_rejected(self, accel):
        with pytest.raises(ValueError):
            accel.run_program([
                isa.config_ld(stride_bytes=64),
                isa.mvin(0x1000, LocalAddr.sp(0), DIM + 1, 1),
            ])

    def test_mvout_from_garbage_rejected(self, accel):
        with pytest.raises(ValueError):
            accel.run_program([isa.mvout(0, LocalAddr.garbage_addr(), 2, 2)])
