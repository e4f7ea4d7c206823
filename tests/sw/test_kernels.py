"""Unit tests for the macro-op kernels."""

import pytest

from repro.core import isa
from repro.core.accelerator import Accelerator
from repro.core.config import default_config
from repro.core.isa import LocalAddr
from repro.core.peripherals import ConvParams, PoolParams
from repro.soc.soc import make_soc
from repro.sw.compiler import LayerPlan, Placement
from repro.sw.kernels import TileKernels


def make_kernels(has_im2col):
    soc = make_soc(gemmini=default_config().with_im2col(has_im2col))
    vm = soc.tile.vm
    vm.alloc(64 << 20, "arena")  # map a large arena for kernel streams
    return TileKernels(soc.tile), soc


@pytest.fixture
def kernels():
    """Kernels on a config with the im2col unit."""
    return make_kernels(True)


@pytest.fixture
def host_kernels():
    """Kernels on a config without the unit: the host CPU does im2col."""
    return make_kernels(False)


BASE = 0x1000_0000


def run_ops(k, ops):
    """Issue ``ops`` on the tile's controller and drain; returns the cycles."""
    controller = k.accel.controller
    start = controller.now
    for op in ops:
        controller.issue(op)
    return controller.drain() - start


def dw_lowering(conv):
    """The compiler's ``(shape, channels)`` array lowering of a depthwise layer."""
    return LayerPlan("dw", "dwconv", Placement.ACCEL, ("x",), "y", conv=conv).array_matmul


class TestMatmulOps:
    def test_op_stream_structure(self, kernels):
        k, __ = kernels
        ops = list(k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 64, 64, 64))
        units = [op.unit for op in ops]
        # One iteration: load A, load B, exec, store.
        assert units == ["load", "load", "exec", "store"]

    def test_multi_tile_k_accumulates_before_store(self, kernels):
        k, __ = kernels
        ops = list(
            k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 64, 4096, 64)
        )
        stores = [op for op in ops if op.unit == "store"]
        execs = [op for op in ops if op.unit == "exec"]
        assert len(stores) == 1
        assert len(execs) > 1  # several k-tiles accumulate into one C tile

    def test_runs_to_completion(self, kernels):
        k, __ = kernels
        ops = k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 256, 256, 256)
        assert run_ops(k, ops) > 0

    def test_bigger_matmul_takes_longer(self, kernels):
        k, soc = kernels
        small = run_ops(k, k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 128, 128, 128))
        big = run_ops(k, k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 512, 512, 512))
        assert big > small

    def test_bias_adds_load(self, kernels):
        k, __ = kernels
        with_bias = list(
            k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 64, 64, 64,
                         bias_vaddr=BASE + (3 << 20))
        )
        without = list(
            k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 64, 64, 64)
        )
        assert len(with_bias) == len(without) + 1

    def test_dma_traffic_goes_through_l2(self, kernels):
        k, soc = kernels
        run_ops(k, k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 256, 256, 256))
        assert soc.mem.l2.stats.value("accesses") > 0

    @pytest.mark.parametrize("m,k_dim,n", [(64, 64, 64), (300, 500, 700), (17, 33, 49)])
    def test_store_traffic_exactly_covers_c(self, kernels, m, k_dim, n):
        """Conservation: the kernel writes exactly M*N output bytes."""
        k, __ = kernels
        before = k.accel.dma.stats.value("bytes_written")
        run_ops(k, k.matmul_ops(BASE, BASE + (8 << 20), BASE + (16 << 20), m, k_dim, n))
        assert k.accel.dma.stats.value("bytes_written") - before == m * n

    def test_load_traffic_at_least_operands(self, kernels):
        """Reads cover A and B at least once (refetch only adds)."""
        k, __ = kernels
        m = k_dim = n = 512
        before = k.accel.dma.stats.value("bytes_read")
        run_ops(k, k.matmul_ops(BASE, BASE + (8 << 20), BASE + (16 << 20), m, k_dim, n))
        read = k.accel.dma.stats.value("bytes_read") - before
        assert read >= m * k_dim + k_dim * n

    def test_manual_tiling_respected(self, kernels):
        from repro.sw.tiling import manual_tiling

        k, __ = kernels
        tiling = manual_tiling(k.params, 128, 128, 128, 2, 2, 2)
        ops = list(
            k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 128, 128, 128,
                         tiling=tiling)
        )
        execs = [op for op in ops if op.unit == "exec"]
        assert len(execs) == tiling.total_iterations


class TestConvOps:
    def conv(self):
        return ConvParams(in_h=16, in_w=16, in_ch=32, out_ch=32, kernel=3, padding=1)

    def test_accel_im2col_no_cpu_cost(self, kernels):
        k, __ = kernels
        ops, cpu_cycles = k.conv_ops(self.conv(), BASE, BASE + (1 << 20), BASE + (2 << 20))
        assert cpu_cycles == 0.0
        assert len(list(ops)) > 0

    def test_cpu_im2col_charges_host(self, host_kernels):
        k, __ = host_kernels
        conv = self.conv()
        ops, cpu_cycles = k.conv_ops(
            conv, BASE, BASE + (1 << 20), BASE + (2 << 20), im2col_vaddr=BASE + (3 << 20),
        )
        expected = k.tile.cpu.im2col_cycles(conv.num_patches * conv.patch_size)
        assert cpu_cycles == pytest.approx(expected)
        assert len(list(ops)) > 0

    def test_cpu_im2col_needs_scratch_buffer(self, host_kernels):
        """Streaming the k^2-amplified patch matrix from the input itself
        would read past the input tensor."""
        k, __ = host_kernels
        with pytest.raises(ValueError, match="im2col_vaddr"):
            k.conv_ops(self.conv(), BASE, BASE + (1 << 20), BASE + (2 << 20))

    def test_accel_im2col_moves_less_data(self, kernels, host_kernels):
        conv = self.conv()
        k, soc = kernels
        ops, __c = k.conv_ops(conv, BASE, BASE + (1 << 20), BASE + (2 << 20))
        run_ops(k, ops)
        unit_bytes = soc.mem.bus.stats.value("bytes")

        k, soc = host_kernels
        ops, __c = k.conv_ops(conv, BASE, BASE + (1 << 20), BASE + (2 << 20),
                              im2col_vaddr=BASE + (3 << 20))
        run_ops(k, ops)
        cpu_bytes = soc.mem.bus.stats.value("bytes")
        assert unit_bytes < cpu_bytes  # k^2 patch amplification avoided


class TestDwconvOps:
    def test_low_utilisation(self, kernels):
        """Depthwise conv achieves a few percent of peak MACs/cycle."""
        k, __ = kernels
        conv = ConvParams(in_h=28, in_w=28, in_ch=96, out_ch=96, kernel=3, padding=1)
        ops = list(k.dwconv_ops(conv, *dw_lowering(conv), BASE, BASE + (1 << 20), BASE + (2 << 20)))
        exec_cycles = sum(op.cycles for op in ops if op.unit == "exec")
        macs = conv.num_patches * 9 * conv.in_ch
        utilisation = macs / (exec_cycles * k.accel.config.num_pes)
        assert utilisation < 0.10

    def test_channel_grouping(self, kernels):
        k, __ = kernels
        conv = ConvParams(in_h=8, in_w=8, in_ch=512, out_ch=512, kernel=3, padding=1)
        ops = list(k.dwconv_ops(conv, *dw_lowering(conv), BASE, BASE + (1 << 20), BASE + (2 << 20)))
        assert any(op.unit == "exec" for op in ops)
        assert any(op.unit == "store" for op in ops)


class TestResaddOps:
    def test_memory_bound_structure(self, kernels):
        k, __ = kernels
        ops = list(k.resadd_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 65536))
        units = [op.unit for op in ops]
        assert units.count("load") == 2 * units.count("store")
        assert "exec" not in units  # pure accumulator data movement

    def test_invalid_elements(self, kernels):
        k, __ = kernels
        with pytest.raises(ValueError):
            list(k.resadd_ops(BASE, BASE, BASE, 0))

    def test_traffic_is_three_streams(self, kernels):
        k, soc = kernels
        elements = 1 << 20
        before_rd = k.accel.dma.stats.value("bytes_read")
        before_wr = k.accel.dma.stats.value("bytes_written")
        run_ops(k, k.resadd_ops(BASE, BASE + (4 << 20), BASE + (8 << 20), elements))
        assert k.accel.dma.stats.value("bytes_read") - before_rd == 2 * elements
        assert k.accel.dma.stats.value("bytes_written") - before_wr == elements


class TestPoolOps:
    def test_pool_stream(self, kernels):
        k, __ = kernels
        pool = PoolParams(size=2, stride=2, in_h=16, in_w=16)
        ops = list(k.pool_ops(pool, 64, BASE, BASE + (1 << 20)))
        assert [op.unit for op in ops] == ["load", "exec", "store"]

    def test_pool_requires_engine(self):
        from dataclasses import replace

        soc = make_soc(gemmini=replace(default_config(), has_pooling=False))
        soc.tile.vm.alloc(1 << 20, "arena")
        k = TileKernels(soc.tile)
        pool = PoolParams(size=2, stride=2, in_h=8, in_w=8)
        with pytest.raises(ValueError):
            k.pool_cycles(pool, 16)


def spy_dma_ops(accel, monkeypatch):
    """Watch ``accel``'s issue path: every issued op with a ``run`` must make
    exactly one transfer and carry that transfer's ``DMAEngine.floor``.
    Returns the list the checked ops are appended to."""
    dma, controller = accel.dma, accel.controller
    transfer, issue = dma.transfer, controller.issue
    rows = []
    checked = []

    def spy_transfer(now, vaddr, bytes_per_row, nrows, *args):
        rows.append((bytes_per_row, nrows))
        return transfer(now, vaddr, bytes_per_row, nrows, *args)

    def spy_issue(op):
        before = len(rows)
        end = issue(op)
        if op.run is not None:
            assert len(rows) == before + 1
            assert op.floor == dma.floor(*rows[-1]) > 0.0
            checked.append(op)
        return end

    monkeypatch.setattr(dma, "transfer", spy_transfer)
    monkeypatch.setattr(controller, "issue", spy_issue)
    return checked


class TestDMAOpFloor:
    """Kernels and the ISA executor build DMA ops the same way."""

    def test_kernel_dma_ops_carry_their_floor(self, kernels, monkeypatch):
        k, __ = kernels
        checked = spy_dma_ops(k.accel, monkeypatch)
        conv = ConvParams(in_h=8, in_w=8, in_ch=16, out_ch=16, kernel=3, padding=1)
        pool = PoolParams(size=2, stride=2, in_h=8, in_w=8)
        streams = [
            k.matmul_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 64, 96, 64,
                         bias_vaddr=BASE + (3 << 20)),
            k.dwconv_ops(conv, *dw_lowering(conv), BASE, BASE + (1 << 20), BASE + (2 << 20)),
            k.resadd_ops(BASE, BASE + (1 << 20), BASE + (2 << 20), 4096),
            k.pool_ops(pool, 16, BASE, BASE + (1 << 20)),
        ]
        expected = 0
        for ops in streams:
            ops = list(ops)
            expected += sum(op.unit in ("load", "store") and op.run is not None for op in ops)
            run_ops(k, ops)
        assert len(checked) == expected
        assert {op.unit for op in checked} == {"load", "store"}

    def test_isa_dma_ops_carry_their_floor(self, small_config, monkeypatch):
        accel = Accelerator(small_config)
        checked = spy_dma_ops(accel, monkeypatch)
        accel.run_program([
            isa.config_ld(stride_bytes=8),
            isa.config_st(stride_bytes=16),
            isa.mvin(0x1000, LocalAddr.sp(0), 4, 4),
            isa.mvin(0x2000, LocalAddr.acc(0), 2, 3),
            isa.mvout(0x3000, LocalAddr.sp(0), 4, 4),
            isa.fence(),
        ])
        assert [(op.unit, op.label) for op in checked] == [
            ("load", "mvin"), ("load", "mvin"), ("store", "mvout"),
        ]
