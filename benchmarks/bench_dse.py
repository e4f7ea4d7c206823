"""Design-space exploration smoke: random vs evolutionary at equal budget.

Runs both strategies through the same :class:`~repro.dse.Explorer` on the
8x8-max example space, emits the evolutionary Pareto front, and checks the
search invariants the subsystem guarantees: non-empty front, deterministic
seeded search, and the adaptive strategy's hypervolume at least matching
random search's under a shared reference.
"""

from benchmarks.conftest import once
from repro.dse import (
    EvaluationSpec,
    Explorer,
    front_table,
    gemmini_space,
    make_strategy,
    shared_hypervolume,
)

BUDGET = 30
SEED = 0


def _explore():
    space = gemmini_space(max_dim=8)
    results = {}
    for name in ("random", "evolutionary"):
        strategy = make_strategy(name, space, seed=SEED)
        explorer = Explorer(space, strategy, EvaluationSpec(), budget=BUDGET)
        results[name] = explorer.explore()
    return results


def test_dse_random_vs_evolutionary(benchmark, emit):
    # Analytic points never reach a runner, so there are no cache counters.
    results = once(benchmark, _explore)

    evo, rnd = results["evolutionary"], results["random"]
    hv_rnd, hv_evo = shared_hypervolume([rnd, evo])
    text = front_table(evo, extra_metrics=("fmax_ghz", "throughput_gmacs"))
    text += (
        f"\nshared-reference hypervolume: evolutionary {hv_evo:.6g} "
        f"vs random {hv_rnd:.6g} at budget {BUDGET}"
    )
    emit("dse_random_vs_evolutionary", text)

    assert evo.front and rnd.front, "search produced an empty Pareto front"
    assert evo.evaluations <= BUDGET and rnd.evaluations <= BUDGET
    assert hv_evo >= hv_rnd * 0.95, "evolutionary search fell behind random search"
