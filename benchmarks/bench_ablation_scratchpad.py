"""Ablation: scratchpad capacity sweep (the Figure 9 'BigSP' axis, widened).

Sweeps the private scratchpad across 4x while keeping the rest of the SoC
fixed, running a mid-size CNN: returns the marginal value of accelerator-
private SRAM that the Section V-B partitioning decision trades against L2.
"""

from dataclasses import replace

from benchmarks.conftest import once
from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.eval.report import format_table
from repro.models import build_model
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.runtime import Runtime

CAPACITIES_KB = (128, 256, 512)


def bench_point(kb: int) -> tuple:
    """One sweep point (module-level so the runner can fan it out)."""
    graph = build_model("squeezenet", input_hw=128)
    cfg = replace(
        default_config().with_im2col(True),
        sp_capacity_bytes=kb * 1024,
    )
    soc = make_soc(gemmini=cfg)
    model = compile_graph(graph, SoftwareParams.from_config(cfg))
    result = Runtime(soc.tile, model).run()
    return (kb, result.total_cycles, soc.mem.dram.bytes_moved)


def test_ablation_scratchpad_capacity(benchmark, emit, runner):
    rows = once(
        benchmark, lambda: runner.map(bench_point, CAPACITIES_KB, label="ablation_sp"), runner=runner
    )
    base = rows[0][1]
    text = format_table(
        ["scratchpad (KB)", "cycles", "DRAM bytes", "speedup vs 128KB"],
        [(kb, f"{c / 1e6:.2f}M", f"{b / 1e6:.1f}MB", f"{base / c:.3f}") for kb, c, b in rows],
        title="Ablation: scratchpad capacity (SqueezeNet @128px)",
    )
    emit("ablation_scratchpad", text)

    # Bigger scratchpads strictly reduce DRAM traffic (fewer refetches);
    # cycle effects are second-order once layers fit (the Figure 9 "matmuls
    # gain ~1%" observation), so only bound them to a band.
    cycles = [c for __, c, __b in rows]
    traffic = [b for __, __c, b in rows]
    assert traffic == sorted(traffic, reverse=True)
    assert max(cycles) <= min(cycles) * 1.20
