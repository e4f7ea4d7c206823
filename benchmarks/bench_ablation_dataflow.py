"""Ablation: weight-stationary vs output-stationary dataflow cycle costs.

The paper calls out the dataflow as a template design choice (Table I
"Dataflows: multiple").  WS avoids the OS drain phase when
results stream to the accumulator; OS wins nothing on these dense shapes
but is required for mappings that keep C resident.
"""

from dataclasses import replace

from benchmarks.conftest import once
from repro.core.config import Dataflow, default_config
from repro.core.spatial_array import matmul_cycles
from repro.eval.report import format_table

SHAPES = [
    (64, 64, 64),
    (256, 256, 256),
    (1024, 256, 64),
    (64, 1024, 1024),
    (12544, 147, 64),   # ResNet50 stem as im2col matmul
    (3136, 576, 64),    # ResNet50 stage-1 3x3
]


def dataflow_rows() -> list[tuple]:
    """Cycle costs for every shape (module-level so the runner can cache it)."""
    ws_config = replace(default_config(), dataflow=Dataflow.WS)
    os_config = replace(default_config(), dataflow=Dataflow.OS)
    rows = []
    for m, k, n in SHAPES:
        ws = matmul_cycles(ws_config, m, k, n)
        os_cost = matmul_cycles(os_config, m, k, n)
        rows.append((f"{m}x{k}x{n}", ws, os_cost, os_cost / ws))
    return rows


def test_ablation_dataflow(benchmark, emit, runner):
    rows = once(benchmark, lambda: runner.run(dataflow_rows), runner=runner)
    text = format_table(
        ["shape (MxKxN)", "WS cycles", "OS cycles", "OS/WS"],
        rows,
        title="Ablation: dataflow cycle costs on the 16x16 array",
    )
    emit("ablation_dataflow", text)

    for __, ws, os_cost, ratio in rows:
        assert os_cost >= ws  # OS pays the drain on dense shapes
        assert ratio < 3.0
