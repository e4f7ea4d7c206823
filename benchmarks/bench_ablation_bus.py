"""Ablation: DMA bus width (the Section III-C SoC-level parameter).

"Additional SoC-level parameters include bus widths between accelerators
and host CPUs" — this sweep quantifies that axis on a memory-bound kernel
(residual addition) and a compute-bound one (dense matmul).
"""

from dataclasses import replace

from benchmarks.conftest import once
from repro.core.config import default_config
from repro.eval.report import format_table
from repro.soc.soc import make_soc
from repro.sw.kernels import TileKernels

WIDTHS = (8, 16, 32, 64)


def bench_point(width: int) -> tuple:
    """One sweep point (module-level so the runner can fan it out)."""
    cfg = replace(default_config().with_im2col(True), dma_bus_bytes=width)
    soc = make_soc(gemmini=cfg)
    soc.tile.vm.alloc(32 << 20, "arena")
    kernels = TileKernels(soc.tile)
    controller = soc.tile.accel.controller
    base = 0x1000_0000

    def cycles(ops) -> float:
        start = controller.now
        for op in ops:
            controller.issue(op)
        return controller.drain() - start

    resadd = cycles(kernels.resadd_ops(base, base + (8 << 20), base + (16 << 20), 1 << 20))
    matmul = cycles(kernels.matmul_ops(base, base + (8 << 20), base + (16 << 20), 512, 512, 512))
    return (width, resadd, matmul)


def test_ablation_dma_bus_width(benchmark, emit, runner):
    rows = once(benchmark, lambda: runner.map(bench_point, WIDTHS, label="ablation_bus"), runner=runner)
    text = format_table(
        ["bus (B/cycle)", "resadd 1M elems (cycles)", "matmul 512^3 (cycles)"],
        [(w, f"{r:.0f}", f"{m:.0f}") for w, r, m in rows],
        title="Ablation: DMA bus width",
    )
    emit("ablation_bus_width", text)

    resadds = [r for __, r, __m in rows]
    matmuls = [m for __, __r, m in rows]
    # Wider buses are never slower, and at least one kernel class sees a
    # real gain; past the DRAM bandwidth the memory-bound kernel saturates
    # (the flattening is the point of the sweep).
    assert resadds == sorted(resadds, reverse=True)
    assert matmuls == sorted(matmuls, reverse=True)
    assert max(resadds[0] / resadds[-1], matmuls[0] / matmuls[-1]) > 1.05
