"""DSE evaluation throughput: one batch call vs per-point calls.

:func:`~repro.dse.evaluate_design_batch` is the one DSE evaluator and
:func:`~repro.dse.evaluate_design` is its batch of one.  This benchmark
scores one randomized 512-point batch of the full example space with a
single batch call and with one :func:`~repro.dse.evaluate_design` call
per point, asserts the two agree bitwise on every evaluation, and records
the speedup (the ``scalar_*`` fields are the per-point calls).  The
headline number uses a whole-network workload (mobilenetv2 — the shape
count a real DSE pays per point); the single-shape conv workload is
recorded alongside as the overhead-bound floor.

The test itself fails when the batch call is below 3x the per-point calls
measured in the same run; that assert is its only throughput gate.  It
writes no ledger record (it never calls ``once()``), and CI only prints
the ``extra_info`` of the BENCH JSON.
"""

import math
import random
import time

from benchmarks.conftest import FAST
from repro.dse import (
    EvaluationSpec,
    conv_workload,
    evaluate_design,
    evaluate_design_batch,
    gemmini_space,
    model_workload,
)

POINTS = 128 if FAST else 512
SEED = 0


def _sample_points(n):
    space = gemmini_space(max_dim=32)
    rng = random.Random(SEED)
    return [space.sample(rng) for __ in range(n)]


def _time_best(fn, rounds=3):
    best = math.inf
    result = None
    for __ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _measure(points, spec):
    scalar, t_scalar = _time_best(lambda: [evaluate_design(p, spec) for p in points])
    batched, t_batch = _time_best(lambda: evaluate_design_batch(points, spec))
    assert batched == scalar
    return {
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "speedup": t_scalar / t_batch,
        "scalar_points_per_s": len(points) / t_scalar,
        "batch_points_per_s": len(points) / t_batch,
    }


def test_dse_batch_speedup(benchmark, emit):
    points = _sample_points(POINTS)
    model_spec = EvaluationSpec(workload=model_workload("mobilenetv2", input_hw=96))
    conv_spec = EvaluationSpec(workload=conv_workload())

    # Warm both paths (imports, numpy dispatch, model graph construction).
    evaluate_design_batch(points[:8], model_spec)
    [evaluate_design(p, model_spec) for p in points[:8]]

    model_stats = _measure(points, model_spec)
    conv_stats = _measure(points, conv_spec)

    benchmark.extra_info["points"] = POINTS
    benchmark.extra_info["model_workload"] = model_stats
    benchmark.extra_info["conv_workload"] = conv_stats
    # The gate CI enforces: the realistic whole-network evaluation.
    benchmark.extra_info["speedup"] = model_stats["speedup"]
    benchmark.extra_info["batch_points_per_s"] = model_stats["batch_points_per_s"]
    benchmark.pedantic(
        lambda: evaluate_design_batch(points, model_spec), rounds=3, iterations=1
    )

    lines = [f"batched analytic evaluation over {POINTS} randomized points:"]
    for name, stats in (("mobilenetv2", model_stats), ("conv3x3", conv_stats)):
        lines.append(
            f"  {name:12s} scalar {stats['scalar_points_per_s']:8.0f} pts/s | "
            f"batched {stats['batch_points_per_s']:8.0f} pts/s | "
            f"{stats['speedup']:5.1f}x | bitwise"
        )
    emit("dse_batch_speedup", "\n".join(lines))

    # In-run regression floor (CI re-checks from the JSON); quiet machines
    # see >= 10x on the whole-network workload.
    assert model_stats["speedup"] >= 3.0, (
        f"batched path only {model_stats['speedup']:.1f}x over scalar"
    )
