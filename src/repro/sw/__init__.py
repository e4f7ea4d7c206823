"""The multi-level software stack (paper Section III-B).

Two entry levels, mirroring Gemmini's flow:

* **High level**: an ONNX-subset graph IR (:mod:`repro.sw.graph`,
  :mod:`repro.sw.onnx_json`) compiled push-button onto the accelerator
  (:mod:`repro.sw.compiler`) and executed by :mod:`repro.sw.runtime`.
* **Low level**: tuned kernels (:mod:`repro.sw.kernels`) over runtime
  tile-size heuristics (:mod:`repro.sw.tiling`), and raw RoCC intrinsics
  (:mod:`repro.sw.lowlevel`) for hand-written programs.

Schedules come from the greedy planner by default, or — when the caller
passes a persistent cross-process schedule cache
(:mod:`repro.sw.schedule_cache`) holding a shape auto-tuned by
:mod:`repro.sw.tune` — from that cache.
"""

from repro.sw.tiling import MatmulTiling, fits_budgets, plan_matmul_tiling
from repro.sw.schedule_cache import (
    NULL_SCHEDULE_CACHE,
    ScheduleCache,
    ScheduleKey,
    ScheduleRecord,
    schedule_key,
)
from repro.sw.tune import ShapeTuneResult, tune_matmul, tune_model
from repro.sw.lowlevel import GemminiProgramBuilder
from repro.sw.graph import Graph, Node, TensorSpec
from repro.sw.onnx_json import graph_from_json, graph_to_json
from repro.sw.compiler import CompiledModel, LayerPlan, Placement, compile_graph
from repro.sw.runtime import LayerStats, Runtime, RunResult

__all__ = [
    "MatmulTiling",
    "fits_budgets",
    "plan_matmul_tiling",
    "NULL_SCHEDULE_CACHE",
    "ScheduleCache",
    "ScheduleKey",
    "ScheduleRecord",
    "schedule_key",
    "ShapeTuneResult",
    "tune_matmul",
    "tune_model",
    "GemminiProgramBuilder",
    "Graph",
    "Node",
    "TensorSpec",
    "graph_from_json",
    "graph_to_json",
    "CompiledModel",
    "LayerPlan",
    "Placement",
    "compile_graph",
    "LayerStats",
    "Runtime",
    "RunResult",
]
