"""Shape-specialized schedule auto-tuner for the matmul compile path.

The greedy heuristic in :func:`repro.sw.tiling.plan_matmul_tiling` picks
*one* budget-valid tiling per shape.  This module searches the whole
space — every (i, j, k) block-count frontier point crossed with loop-order
and double-buffer variants — scores candidates with the analytic cost
model (closed-form compute + DMA-traffic estimate), then verifies a
shortlist cycle-accurately by running each candidate's macro-op stream on
an isolated single-tile SoC.  The greedy plan is always in the verified
shortlist, so the tuner's pick is never worse than greedy *by
construction* (measured in simulated cycles on the verification bench).

Winners persist in the cross-process schedule cache
(:mod:`repro.sw.schedule_cache`) the caller passes; every later run handed
that cache dispatches to them via ``TileKernels.select_tiling``.  ``gemmini-repro tune`` drives
:func:`tune_model` over model-zoo × design sweeps to pre-warm the cache.

Everything here is deterministic: candidate enumeration is ordered,
tie-breaks prefer the greedy plan then lexicographic block counts, and no
wall-clock value ever influences a decision — same cache state in,
bitwise-identical schedules out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import GemminiConfig
from repro.core.generator import SoftwareParams
from repro.core.spatial_array import matmul_cycles
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.soc.soc import make_soc
from repro.sw.compiler import CompiledModel
from repro.sw.kernels import ISSUE_OVERHEAD, TileKernels
from repro.sw.schedule_cache import (
    NULL_SCHEDULE_CACHE,
    ScheduleCache,
    ScheduleKey,
    ScheduleRecord,
    schedule_key,
)
from repro.sw.tiling import (
    LOOP_ORDERS,
    MatmulTiling,
    fits_budgets,
    plan_matmul_tiling,
)

__all__ = [
    "ShapeTuneResult",
    "enumerate_tilings",
    "estimate_cycles",
    "simulate_tiling_cycles",
    "tune_matmul",
    "tune_model",
]


# ---------------------------------------------------------------------- #
# Candidate enumeration                                                    #
# ---------------------------------------------------------------------- #


def enumerate_tilings(
    params: SoftwareParams, m: int, k: int, n: int
) -> list[MatmulTiling]:
    """Every budget-valid tiling worth considering, greedy plan first.

    For each (i, j) pair under the accumulator budget the k block count is
    maximal (a larger k never adds DMA traffic and cuts iteration count),
    crossed with both loop orders and both buffering modes.  ``jik`` is
    skipped when either outer loop is a single trip — the op stream would
    be identical to ``ijk``.  Order is deterministic.
    """
    if min(m, k, n) < 1:
        raise ValueError("matmul dimensions must be >= 1")
    dim = params.dim
    max_i = -(-m // dim)
    max_j = -(-n // dim)
    max_k = -(-k // dim)

    greedy = plan_matmul_tiling(params, m, k, n)
    out = [greedy]
    seen = {
        (greedy.i_blocks, greedy.j_blocks, greedy.k_blocks,
         greedy.loop_order, greedy.double_buffer)
    }
    for double_buffer in (True, False):
        sp_budget = params.sp_rows // (2 if double_buffer else 1)
        acc_budget = params.acc_rows // (2 if double_buffer else 1)
        for i in range(1, max_i + 1):
            if i * dim > acc_budget:
                break
            for j in range(1, max_j + 1):
                if i * j * dim > acc_budget:
                    break
                kk = min(max_k, sp_budget // ((i + j) * dim))
                if kk < 1:
                    break
                for loop_order in LOOP_ORDERS:
                    tiling = MatmulTiling(
                        i, j, kk, dim, m, k, n,
                        loop_order=loop_order, double_buffer=double_buffer,
                    )
                    if loop_order == "jik" and (
                        tiling.outer_i == 1 or tiling.outer_j == 1
                    ):
                        continue  # op stream identical to "ijk"
                    ident = (i, j, kk, loop_order, double_buffer)
                    if ident in seen:
                        continue
                    seen.add(ident)
                    out.append(tiling)
    return out


# ---------------------------------------------------------------------- #
# Analytic scoring                                                         #
# ---------------------------------------------------------------------- #


def _extent_counts(total: int, tile: int) -> list[tuple[int, int]]:
    """[(extent, count)] of full and edge tiles along one dimension."""
    full, rem = divmod(total, tile)
    parts: list[tuple[int, int]] = []
    if full:
        parts.append((tile, full))
    if rem:
        parts.append((rem, 1))
    return parts


#: charged per DMA macro-op in the analytic estimate (descriptor setup,
#: TLB bookkeeping) — penalises very small tiles the way the simulator does
_DMA_OP_OVERHEAD = 8.0


def estimate_cycles(
    config: GemminiConfig,
    tiling: MatmulTiling,
    elem_bytes: int = 1,
    out_bytes: int = 1,
) -> float:
    """Closed-form cycle estimate used to rank candidates before the
    cycle-accurate shortlist verification.

    Compute is :func:`~repro.core.spatial_array.matmul_cycles` plus the
    kernels' per-exec issue overhead, summed over full/edge tile combos
    (O(8) terms, never per-iteration loops); DMA traffic counts each A
    tile loaded ``outer_j`` times, each B tile ``outer_i`` times and C
    once, at the DMA bus width.  Double buffering overlaps the two
    (bounded by the longer, plus a fraction of the shorter for imperfect
    overlap); single buffering serialises them.
    """
    t = tiling
    compute = 0.0
    for me, mc in _extent_counts(t.m, t.tile_m):
        for ke, kc in _extent_counts(t.k, t.tile_k):
            for ne, nc in _extent_counts(t.n, t.tile_n):
                count = mc * kc * nc
                cost = matmul_cycles(config, me, ke, ne)
                compute += count * (cost + ISSUE_OVERHEAD)

    a_bytes = t.outer_j * t.m * t.k * elem_bytes
    b_bytes = t.outer_i * t.k * t.n * elem_bytes
    c_bytes = t.m * t.n * out_bytes
    dma = (a_bytes + b_bytes + c_bytes) / float(config.dma_bus_bytes)
    dma += _DMA_OP_OVERHEAD * (2 * t.total_iterations + t.outer_i * t.outer_j)

    if t.double_buffer:
        return max(compute, dma) + 0.1 * min(compute, dma)
    return compute + dma


# ---------------------------------------------------------------------- #
# Cycle-accurate verification                                              #
# ---------------------------------------------------------------------- #


def simulate_tiling_cycles(
    config: GemminiConfig,
    tiling: MatmulTiling,
    elem_bytes: int = 1,
    out_bytes: int = 1,
    *,
    bound: float = float("inf"),
) -> float:
    """Simulated cycles of one candidate's macro-op stream on a fresh,
    isolated single-tile SoC (cold caches, no co-runners) — the common
    yardstick every shortlisted candidate is measured against.

    The stream is issued op by op.  Two lower bounds on the run's drain
    are checked against ``bound``: before every op (the first included),
    the controller's drain bound over the ops still to come (:meth:`~repro.core.controller.Controller.drain_bounds`:
    a critical path through units and scoreboard tokens, each remaining op
    at its least duration, a DMA op at :meth:`DMAEngine.floor
    <repro.core.dma.DMAEngine.floor>`), and after every op, the latest
    completion an issue has returned.  Once either lies ``bound`` or
    more cycles past the start, the candidate cannot finish under
    ``bound`` and ``inf`` is returned without simulating the rest.  The
    cut is exact: the drain is never below either bound, so the result
    equals the full run's cycles whenever those are below ``bound``, and
    is ``inf`` otherwise.
    """
    soc = make_soc(gemmini=config)
    tile = soc.tile
    kernels = TileKernels(tile, schedule_cache=NULL_SCHEDULE_CACHE)
    vm = tile.vm
    t = tiling
    a_vaddr = vm.alloc(max(1, t.m * t.k * elem_bytes), "tune:A")
    b_vaddr = vm.alloc(max(1, t.k * t.n * elem_bytes), "tune:B")
    c_vaddr = vm.alloc(max(1, t.m * t.n * out_bytes), "tune:C")
    ops = list(kernels.matmul_ops(
        a_vaddr, b_vaddr, c_vaddr, t.m, t.k, t.n,
        elem_bytes=elem_bytes, out_bytes=out_bytes, tiling=t,
    ))
    controller = tile.accel.controller
    issue = controller.issue
    drain_bound = controller.drain_bounds(ops)
    start = latest = controller.now
    for done, op in enumerate(ops):
        if drain_bound(done) - start >= bound:
            return float("inf")
        end = issue(op)
        if end > latest:
            latest = end
            if latest - start >= bound:
                return float("inf")
    return controller.drain() - start


# ---------------------------------------------------------------------- #
# Tuning                                                                   #
# ---------------------------------------------------------------------- #


@dataclass
class ShapeTuneResult:
    """Outcome of tuning one (shape, config) dispatch site."""

    key: ScheduleKey
    best: MatmulTiling
    greedy: MatmulTiling
    tuned_cycles: float | None
    greedy_cycles: float | None
    candidates: int
    verified: int
    cached: bool  # served from the cache without re-tuning
    wall_s: float

    @property
    def improvement(self) -> float:
        """Fractional simulated-cycle win over greedy (0.0 when unknown)."""
        if not self.greedy_cycles or self.tuned_cycles is None:
            return 0.0
        return 1.0 - self.tuned_cycles / self.greedy_cycles


def _rank_key(tiling: MatmulTiling) -> tuple:
    """Deterministic total order among equal-scored candidates."""
    return (
        tiling.i_blocks,
        tiling.j_blocks,
        tiling.k_blocks,
        tiling.loop_order,
        not tiling.double_buffer,
    )


def tune_matmul(
    config: GemminiConfig,
    m: int,
    k: int,
    n: int,
    cache: ScheduleCache | None = None,
    verify_top_k: int = 4,
    force: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> ShapeTuneResult:
    """Tune one matmul shape and record the winner in ``cache`` (without
    one the winner is returned and recorded nowhere).

    ``verify_top_k`` is the number of top analytic candidates simulated
    cycle-accurately *in addition to* the greedy plan, which is always
    simulated — so the recorded schedule can never cost more simulated
    cycles than greedy (``verify_top_k=0`` degenerates to recording
    greedy itself).  Greedy runs first and in full; every later candidate
    is simulated with the best cycles so far as its ``bound``, so one that
    cannot beat them stops as soon as a lower bound on its drain (its
    latest completion, or the critical path of its remaining macro-ops)
    reaches them.  Only a strict improvement replaces the
    best, so the pick, both cycle counts and ``verified`` (the shortlist
    size, stopped runs included) equal those of full runs.  An
    already-cached key returns immediately unless ``force`` re-tunes it.
    """
    key = schedule_key(config, m, k, n)
    params = SoftwareParams.from_config(config)
    greedy = plan_matmul_tiling(params, m, k, n)

    if cache and not force:
        record = cache.get(key)
        if record is not None:
            return ShapeTuneResult(
                key=key,
                best=record.tiling,
                greedy=greedy,
                tuned_cycles=record.tuned_cycles,
                greedy_cycles=record.greedy_cycles,
                candidates=record.candidates,
                verified=record.verified,
                cached=True,
                wall_s=0.0,
            )

    wall_t0 = time.perf_counter()
    span_t0 = tracer.now()

    candidates = enumerate_tilings(params, m, k, n)
    assert all(fits_budgets(params, t) for t in candidates)
    scored = sorted(
        ((estimate_cycles(config, t), _rank_key(t), t) for t in candidates),
        key=lambda item: (item[0], item[1]),
    )
    shortlist = [greedy]
    for __, __, tiling in scored:
        if len(shortlist) > max(0, verify_top_k):
            break
        if tiling == greedy:
            continue
        shortlist.append(tiling)

    best: MatmulTiling | None = None
    best_cycles = float("inf")
    greedy_cycles = 0.0
    pruned = 0
    for tiling in shortlist:  # greedy first: ties resolve in its favour
        # Bounded by the best so far: a candidate that cannot beat it
        # stops early and reads inf (greedy, first, always runs in full).
        cycles = simulate_tiling_cycles(config, tiling, bound=best_cycles)
        if tiling == greedy:
            greedy_cycles = cycles
        if cycles < best_cycles:
            best, best_cycles = tiling, cycles
        else:
            pruned += 1

    record = ScheduleRecord(
        key=key,
        tiling=best,
        tuned_cycles=best_cycles,
        greedy_cycles=greedy_cycles,
        candidates=len(candidates),
        verified=len(shortlist),
    )
    if cache:
        cache.put(record)
    wall_s = time.perf_counter() - wall_t0
    tracer.complete(
        "tuner",
        f"tune[{m}x{k}x{n}]",
        span_t0,
        tracer.now(),
        {
            "candidates": len(candidates),
            "verified": len(shortlist),
            "pruned": pruned,
            "greedy_cycles": greedy_cycles,
            "tuned_cycles": best_cycles,
        },
    )
    return ShapeTuneResult(
        key=key,
        best=best,
        greedy=greedy,
        tuned_cycles=best_cycles,
        greedy_cycles=greedy_cycles,
        candidates=len(candidates),
        verified=len(shortlist),
        cached=False,
        wall_s=wall_s,
    )


def tune_model(
    model: CompiledModel,
    config: GemminiConfig,
    cache: ScheduleCache | None = None,
    verify_top_k: int = 4,
    force: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> list[ShapeTuneResult]:
    """Tune every matmul dispatch shape of one compiled model (explicit
    matmuls plus im2col-lowered convolutions), in plan order."""
    return [
        tune_matmul(
            config, m, k, n,
            cache=cache, verify_top_k=verify_top_k, force=force, tracer=tracer,
        )
        for m, k, n in model.matmul_shapes()
    ]
