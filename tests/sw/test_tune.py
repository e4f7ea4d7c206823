"""Auto-tuner: search validity, the never-worse contract, determinism."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Dataflow, default_config
from repro.core.generator import SoftwareParams
from repro.obs.tracer import Tracer
from repro.soc.soc import make_soc
from repro.sw.kernels import TileKernels
from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE, ScheduleCache
from repro.sw.tiling import LOOP_ORDERS, fits_budgets, plan_matmul_tiling
from repro.sw.tune import (
    _rank_key,
    enumerate_tilings,
    estimate_cycles,
    simulate_tiling_cycles,
    tune_matmul,
)


# Module-level (not the function-scoped fixture): hypothesis resets
# function fixtures between examples and flags their use in @given tests.
from repro.core.config import GemminiConfig

SMALL = GemminiConfig(
    mesh_rows=4,
    mesh_cols=4,
    tile_rows=1,
    tile_cols=1,
    sp_capacity_bytes=4 * 4 * 256,
    sp_banks=2,
    acc_capacity_bytes=4 * 16 * 64,
    acc_banks=2,
)
PARAMS = SoftwareParams.from_config(SMALL)


dims = st.integers(min_value=1, max_value=48)


class TestEnumeration:
    @given(dims, dims, dims)
    def test_all_candidates_fit_budgets_and_cover(self, m, k, n):
        params = PARAMS
        candidates = enumerate_tilings(params, m, k, n)
        assert candidates, "search space must never be empty"
        for t in candidates:
            assert fits_budgets(params, t)
            assert t.outer_i * t.tile_m >= m
            assert t.outer_j * t.tile_n >= n
            assert t.outer_k * t.tile_k >= k

    @given(dims, dims, dims)
    def test_greedy_plan_is_first_candidate(self, m, k, n):
        params = PARAMS
        candidates = enumerate_tilings(params, m, k, n)
        assert candidates[0] == plan_matmul_tiling(params, m, k, n)

    @given(dims, dims, dims)
    def test_no_duplicate_candidates(self, m, k, n):
        params = PARAMS
        candidates = enumerate_tilings(params, m, k, n)
        idents = [
            (t.i_blocks, t.j_blocks, t.k_blocks, t.loop_order, t.double_buffer)
            for t in candidates
        ]
        assert len(idents) == len(set(idents))

    def test_jik_skipped_when_degenerate(self):
        # A single output tile: every jik stream equals its ijk twin.
        for t in enumerate_tilings(PARAMS, 4, 4, 4):
            assert t.loop_order == "ijk"


class TestScoring:
    def test_estimate_is_deterministic(self):
        params = PARAMS
        t = plan_matmul_tiling(params, 32, 32, 32)
        assert estimate_cycles(SMALL, t) == estimate_cycles(SMALL, t)

    def test_single_buffer_scores_worse_overlap(self):
        params = PARAMS
        t = plan_matmul_tiling(params, 32, 32, 32)
        single = t.__class__(**{**t.to_dict(), "double_buffer": False})
        assert estimate_cycles(SMALL, single) >= estimate_cycles(
            SMALL, t
        )


class TestNeverWorse:
    @settings(max_examples=10)
    @given(dims, dims, dims)
    def test_tuned_never_costs_more_than_greedy(self, m, k, n):
        result = tune_matmul(
            SMALL, m, k, n, cache=NULL_SCHEDULE_CACHE, verify_top_k=2
        )
        assert result.tuned_cycles <= result.greedy_cycles
        assert fits_budgets(PARAMS, result.best)

    def test_verify_top_zero_degenerates_to_greedy(self):
        result = tune_matmul(
            SMALL, 24, 24, 24, cache=NULL_SCHEDULE_CACHE, verify_top_k=0
        )
        assert result.best == result.greedy
        assert result.tuned_cycles == result.greedy_cycles


class TestTuneCaching:
    def test_second_tune_serves_from_cache(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        first = tune_matmul(SMALL, 20, 20, 20, cache=cache, verify_top_k=2)
        second = tune_matmul(SMALL, 20, 20, 20, cache=cache, verify_top_k=2)
        assert not first.cached
        assert second.cached
        assert second.best == first.best
        assert second.tuned_cycles == first.tuned_cycles

    def test_force_retunes(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        tune_matmul(SMALL, 20, 20, 20, cache=cache, verify_top_k=2)
        again = tune_matmul(
            SMALL, 20, 20, 20, cache=cache, verify_top_k=2, force=True
        )
        assert not again.cached


class TestDeterminism:
    def test_same_cache_state_same_schedule_and_cycles(self, tmp_path):
        """Acceptance: with identical cache state, two independent dispatch+
        simulate passes produce bitwise-identical schedules and cycles."""
        path = tmp_path / "s.jsonl"
        tune_matmul(SMALL, 40, 24, 40, cache=ScheduleCache(path),
                    verify_top_k=3)

        def run_once():
            cache = ScheduleCache(path)  # fresh instance, fresh load
            soc = make_soc(gemmini=SMALL)
            kernels = TileKernels(soc.tile, schedule_cache=cache)
            tiling = kernels.select_tiling(40, 24, 40)
            vm = soc.tile.vm
            controller = soc.tile.accel.controller
            for op in kernels.matmul_ops(
                vm.alloc(40 * 24, "A"), vm.alloc(24 * 40, "B"),
                vm.alloc(40 * 40, "C"), 40, 24, 40, tiling=tiling,
            ):
                controller.issue(op)
            return tiling.to_dict(), controller.drain()

        first, second = run_once(), run_once()
        assert first == second

    def test_simulation_is_reproducible(self):
        params = PARAMS
        t = plan_matmul_tiling(params, 28, 28, 28)
        assert simulate_tiling_cycles(SMALL, t) == simulate_tiling_cycles(
            SMALL, t
        )


class TestBound:
    @settings(max_examples=25, deadline=None)
    @given(
        dims, dims, dims,
        st.integers(0, 1 << 16),
        st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_bounded_run_is_exact_below_the_bound_and_inf_from_it(
        self, m, k, n, pick, scale
    ):
        candidates = enumerate_tilings(PARAMS, m, k, n)
        tiling = candidates[pick % len(candidates)]
        full = simulate_tiling_cycles(SMALL, tiling)
        bounds = (
            full,  # the cycles exactly: stopped, as a tie never wins
            math.nextafter(full, math.inf),
            math.nextafter(full, 0.0),
            full * scale,
            0.0,
        )
        for bound in bounds:
            expected = full if full < bound else math.inf
            assert simulate_tiling_cycles(SMALL, tiling, bound=bound) == expected, bound


#: configs the drain bound is checked on: the small 4x4 mesh, the default
#: 16x16 one, and the small mesh with an output-stationary array
DRAIN_CONFIGS = {
    "small": (SMALL, 48),
    "default": (default_config(), 160),
    "small_os": (replace(SMALL, dataflow=Dataflow.OS), 48),
}


def drain_bounds_of_a_run(config, tiling):
    """Every ``drain_bounds`` value of one candidate's run, prefix by
    prefix (before any op, then after each), and the run's drain."""
    soc = make_soc(gemmini=config)
    kernels = TileKernels(soc.tile, schedule_cache=NULL_SCHEDULE_CACHE)
    vm = soc.tile.vm
    t = tiling
    ops = list(kernels.matmul_ops(
        vm.alloc(t.m * t.k, "A"), vm.alloc(t.k * t.n, "B"), vm.alloc(t.m * t.n, "C"),
        t.m, t.k, t.n, tiling=t,
    ))
    controller = soc.tile.accel.controller
    bound = controller.drain_bounds(ops)
    bounds = [bound(0)]
    for done, op in enumerate(ops, 1):
        controller.issue(op)
        bounds.append(bound(done))
    return bounds, controller.drain()


class TestDrainBound:
    @pytest.mark.parametrize("double_buffer", [True, False])
    @pytest.mark.parametrize("loop_order", LOOP_ORDERS)
    @pytest.mark.parametrize("config_name", sorted(DRAIN_CONFIGS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_no_prefix_bounds_the_drain_above_the_run(
        self, config_name, loop_order, double_buffer, data
    ):
        """After every prefix of a candidate's op stream, the bound is at
        most the full run's drain.  The bound is a max-plus relaxation in
        exact arithmetic; ``drain_bounds`` scales it down by ``2**-30`` so
        that float rounding (another addition order, DMA floors multiplied
        where transfers add row by row) stays below the drain, and the
        comparison here is exact."""
        config, most = DRAIN_CONFIGS[config_name]
        m, k, n = (data.draw(st.integers(1, most), label=axis) for axis in "mkn")
        candidates = enumerate_tilings(SoftwareParams.from_config(config), m, k, n)
        variants = [
            t for t in candidates
            if (t.loop_order, t.double_buffer) == (loop_order, double_buffer)
        ] or candidates  # jik is not enumerated when an outer loop has one trip
        tiling = data.draw(st.sampled_from(variants), label="tiling")
        bounds, drain = drain_bounds_of_a_run(config, tiling)
        assert bounds[0] > 0
        assert max(bounds) <= drain


def unpruned_tune(config, m, k, n, verify_top_k):
    """tune_matmul's selection with every shortlisted candidate simulated
    in full; also counts the candidates that cannot beat the best so far."""
    params = SoftwareParams.from_config(config)
    greedy = plan_matmul_tiling(params, m, k, n)
    candidates = enumerate_tilings(params, m, k, n)
    scored = sorted(candidates, key=lambda t: (estimate_cycles(config, t), _rank_key(t)))
    shortlist = [greedy] + [t for t in scored if t != greedy][:verify_top_k]
    best, best_cycles, losers = None, math.inf, 0
    for tiling in shortlist:
        cycles = simulate_tiling_cycles(config, tiling)
        if cycles < best_cycles:
            best, best_cycles = tiling, cycles
        else:
            losers += 1
    greedy_cycles = simulate_tiling_cycles(config, greedy)
    return best, best_cycles, greedy_cycles, len(candidates), len(shortlist), losers


class TestPrunedTuneMatchesUnpruned:
    @pytest.mark.parametrize("verify_top_k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(40, 24, 40), (48, 48, 48), (17, 33, 9)])
    def test_same_pick_cycles_and_counts(self, shape, verify_top_k):
        tracer = Tracer()
        result = tune_matmul(
            SMALL, *shape, cache=NULL_SCHEDULE_CACHE, verify_top_k=verify_top_k,
            tracer=tracer,
        )
        best, tuned, greedy, candidates, verified, losers = unpruned_tune(
            SMALL, *shape, verify_top_k
        )
        assert result.best == best
        assert result.tuned_cycles == tuned
        assert result.greedy_cycles == greedy
        assert (result.candidates, result.verified) == (candidates, verified)
        (span,) = [e for e in tracer.events() if e[0] == "X"]
        assert span[5]["pruned"] == losers
