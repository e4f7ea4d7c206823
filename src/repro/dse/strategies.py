"""Pluggable, seeded search strategies behind one ask/tell interface.

Every strategy proposes batches of points (:meth:`Strategy.ask`) and
receives their evaluations back (:meth:`Strategy.tell`); the
:class:`~repro.dse.engine.Explorer` owns the budget and the parallel,
cached evaluation.  All randomness flows from one ``random.Random(seed)``
so a seed fully determines the proposal sequence — the property the
result cache and the reproducibility tests rely on.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

from repro.dse.objectives import Evaluation, Objective
from repro.dse.pareto import ParetoArchive, crowding_distance
from repro.dse.space import ParamSpace, point_key

__all__ = [
    "Strategy",
    "GridSearch",
    "RandomSearch",
    "EvolutionarySearch",
    "AnnealingSearch",
    "STRATEGIES",
    "make_strategy",
]

#: Draws a strategy spends looking for a not-yet-proposed point before
#: concluding the reachable space is exhausted.
_FRESH_ATTEMPTS = 200

#: Evolutionary search: points per generation after generation zero, and
#: the shares of each generation spent on crossover children and on random
#: immigrants (the rest are Pareto local-search steps).
_POPULATION_SIZE = 6
_CROSSOVER_FRACTION = 0.2
_IMMIGRANT_FRACTION = 0.1

#: Annealing: the geometric temperature schedule's first and last values.
_INITIAL_TEMPERATURE = 1.0
_FINAL_TEMPERATURE = 0.01


class Strategy(ABC):
    """Base class: seeded RNG, duplicate tracking, ask/tell contract."""

    #: Preferred evaluations per ask/tell round (1 = strictly sequential).
    batch_size: int = 8

    def __init__(self, space: ParamSpace, seed: int = 0) -> None:
        self.space = space
        self.seed = seed
        self.rng = random.Random(seed)
        self.objectives: tuple[Objective, ...] = ()
        self.bounds: tuple = ()
        self._proposed: set[tuple] = set()

    def bind(self, objectives: tuple[Objective, ...], budget: int, bounds: tuple = ()) -> None:
        """Called once by the explorer before the first ask."""
        self.objectives = objectives
        self.budget = budget
        self.bounds = bounds

    def _feasible(self, evaluation: Evaluation) -> bool:
        return all(b.satisfied(evaluation) for b in self.bounds)

    # -- the contract --------------------------------------------------- #

    @abstractmethod
    def ask(self, n: int) -> list[dict]:
        """Up to ``n`` new candidate points ([] means exhausted)."""

    def tell(self, evaluations: Sequence[Evaluation]) -> None:
        """Evaluations for the previously asked points, in ask order."""

    # -- shared helpers -------------------------------------------------- #

    def _remember(self, point: dict) -> bool:
        """Track a proposal; False if it was already proposed."""
        key = point_key(point)
        if key in self._proposed:
            return False
        self._proposed.add(key)
        return True

    def _fresh_sample(self) -> dict | None:
        """A uniformly sampled point never proposed before, or None."""
        for __ in range(_FRESH_ATTEMPTS):
            candidate = self.space.sample(self.rng)
            if self._remember(candidate):
                return candidate
        return None


class GridSearch(Strategy):
    """Exhaustive enumeration in deterministic axis order.

    The budget simply truncates the grid; there is no adaptivity, which
    makes this the coverage baseline the adaptive strategies must beat.
    ``batch_size`` only controls how many points reach the evaluator per
    ask/tell round — enumeration order (and therefore the trace) is
    invariant to it, so large batches feed the vectorised analytic
    evaluator whole slabs at once.
    """

    name = "grid"

    def __init__(self, space: ParamSpace, seed: int = 0, batch_size: int = 8) -> None:
        super().__init__(space, seed)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._iter: Iterator[dict] = space.points()

    def ask(self, n: int) -> list[dict]:
        out = []
        for point in self._iter:
            if self._remember(point):
                out.append(point)
            if len(out) == n:
                break
        return out


class RandomSearch(Strategy):
    """Uniform rejection sampling over the valid space.

    Like :class:`GridSearch`, the proposal stream comes from one seeded
    RNG drawn sequentially, so the evaluated trace is invariant to
    ``batch_size`` — raising it just hands the batched analytic evaluator
    more points per call.
    """

    name = "random"

    def __init__(self, space: ParamSpace, seed: int = 0, batch_size: int = 8) -> None:
        super().__init__(space, seed)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def ask(self, n: int) -> list[dict]:
        out = []
        for __ in range(n):
            point = self._fresh_sample()
            if point is None:
                break
            out.append(point)
        return out


class EvolutionarySearch(Strategy):
    """Elitist multi-objective evolution: Pareto local search + crossover.

    After a uniformly sampled generation zero, each generation spends most
    of its children expanding the current non-dominated front through its
    unvisited :meth:`ParamSpace.neighbors` (Pareto local search — the
    mutation operator), recombines front parents chosen by crowding-
    distance tournament (uniform per-axis crossover), and keeps a slice of
    random immigrants so the search never collapses into one basin.
    """

    name = "evolutionary"

    def __init__(self, space: ParamSpace, seed: int = 0) -> None:
        super().__init__(space, seed)
        self._gen0 = _POPULATION_SIZE
        self._told = False
        self._new_archives()

    def _new_archives(self) -> None:
        # Constrained domination: the elite is the front of the feasible
        # points once any exists, else the front of all (then all
        # infeasible) points, which is dropped for good at the first
        # feasible one.
        self._feasible_front = ParetoArchive(self.objectives)
        self._fallback_front: ParetoArchive | None = ParetoArchive(self.objectives)

    def tell(self, evaluations: Sequence[Evaluation]) -> None:
        self._told = self._told or bool(evaluations)
        for evaluation in evaluations:
            if self._feasible(evaluation):
                self._fallback_front = None
                self._feasible_front.add(evaluation)
            elif self._fallback_front is not None:
                self._fallback_front.add(evaluation)

    def ask(self, n: int) -> list[dict]:
        out: list[dict] = []
        if self._told:
            elite = self._front()
            n_immigrants = max(1, round(n * _IMMIGRANT_FRACTION))
            n_crossover = round(n * _CROSSOVER_FRACTION)
            out.extend(self._local_steps(elite, n - n_immigrants - n_crossover))
            attempts = 0
            while len(out) < n - n_immigrants and attempts < _FRESH_ATTEMPTS:
                attempts += 1
                child = self._crossover(self._tournament(elite), self._tournament(elite))
                if self._remember(child):
                    out.append(child)
        # Immigrants (generation zero — half the budget of uniform coverage,
        # so exploitation starts from extremes as good as random search's —
        # is all immigrants).
        while len(out) < n:
            point = self._fresh_sample()
            if point is None:
                break
            out.append(point)
        return out

    def bind(self, objectives, budget: int, bounds: tuple = ()) -> None:
        super().bind(objectives, budget, bounds)
        self._new_archives()
        # Generation zero takes ~60% of the budget as uniform coverage:
        # exploitation then starts from extremes as good as random search
        # finds, and spends the rest refining them.  Tuned on the example
        # space at budget 50 (tests/dse/test_strategies.py pins the win).
        self._gen0 = max(_POPULATION_SIZE, int(budget * 0.6))

    @property
    def batch_size(self) -> int:  # type: ignore[override]
        return self._gen0 if not self._told else _POPULATION_SIZE

    # -- genetic operators ----------------------------------------------- #

    def _front(self) -> list[dict]:
        """Current elite: non-dominated points, most-crowded first.

        Constrained domination: once any feasible point exists, only
        feasible points are elite — the search stops spending children on
        regions a :class:`~repro.dse.pareto.MetricBound` rules out.
        """
        archive = self._fallback_front or self._feasible_front
        front = archive.front
        crowd = crowding_distance(front, self.objectives, archive.vectors)
        order = sorted(range(len(front)), key=lambda i: (-crowd[i], front[i].point))
        return [front[i].point_dict for i in order]

    def _tournament(self, elite: list[dict]) -> dict:
        # elite is crowding-ordered, so the smaller index wins the duel.
        return elite[min(self.rng.randrange(len(elite)), self.rng.randrange(len(elite)))]

    def _crossover(self, a: dict, b: dict) -> dict:
        child = {name: (a if self.rng.random() < 0.5 else b)[name] for name in a}
        if not self.space.is_valid(child):
            # Constraint-coupled axes can clash when mixed; inherit whole
            # parents as the repair of last resort.
            child = dict(a if self.rng.random() < 0.5 else b)
        return child

    def _local_steps(self, elite: list[dict], n: int) -> list[dict]:
        """Pareto local search: flood every unvisited neighbour of the
        elite, least-crowded regions first.  Exhaustively expanding the
        extremes makes this an implicit per-objective hill climb — the
        improved extreme rejoins the elite and gets flooded next round."""
        out: list[dict] = []
        for point in elite:
            if len(out) >= n:
                break
            for q in self.space.neighbors(point):
                if len(out) >= n:
                    break
                if self._remember(q):
                    out.append(q)
        return out


class AnnealingSearch(Strategy):
    """Simulated annealing on a normalised weighted-sum scalarisation.

    Strictly sequential (batch of 1): each step proposes a neighbour of
    the current point, accepts by the Metropolis rule under a geometric
    temperature schedule sized to the evaluation budget, and restarts
    from a fresh sample when the local neighbourhood is exhausted.
    """

    name = "annealing"

    def __init__(self, space: ParamSpace, seed: int = 0) -> None:
        super().__init__(space, seed)
        self.batch_size = 1
        self._steps = 0
        self._current: Evaluation | None = None
        # Per-objective min and max over every evaluation told so far.
        self._lo: list[float] = []
        self._hi: list[float] = []

    # -- scalarisation ---------------------------------------------------- #

    def _energy(self, evaluation: Evaluation) -> float:
        """Mean of per-objective min-max normalised values (minimisation),
        plus a unit penalty per violated feasibility bound."""
        v = evaluation.vector(self.objectives)
        total = 0.0
        for x, lo, hi in zip(v, self._lo, self._hi):
            total += 0.5 if hi <= lo else (x - lo) / (hi - lo)
        penalty = sum(1.0 + b.violation(evaluation) for b in self.bounds if not b.satisfied(evaluation))
        return total / len(self.objectives) + penalty

    def _observe(self, evaluation: Evaluation) -> None:
        # The same comparisons, in the same order, as min()/max() over the
        # told vectors, so the bounds match a rescan exactly.
        v = evaluation.vector(self.objectives)
        if not self._lo:
            self._lo, self._hi = list(v), list(v)
            return
        lo, hi = self._lo, self._hi
        for d, x in enumerate(v):
            if x < lo[d]:
                lo[d] = x
            if x > hi[d]:
                hi[d] = x

    def _temperature(self) -> float:
        budget = max(2, getattr(self, "budget", 100))
        frac = min(1.0, self._steps / (budget - 1))
        return _INITIAL_TEMPERATURE * (_FINAL_TEMPERATURE / _INITIAL_TEMPERATURE) ** frac

    # -- ask/tell ---------------------------------------------------------- #

    def ask(self, n: int) -> list[dict]:
        if self._current is None:
            point = self._fresh_sample()
        else:
            neighbors = [
                p
                for p in self.space.neighbors(self._current.point_dict)
                if point_key(p) not in self._proposed
            ]
            if neighbors:
                point = neighbors[self.rng.randrange(len(neighbors))]
                self._remember(point)
            else:
                point = self._fresh_sample()  # basin exhausted: restart
                self._current = None
        if point is None:
            return []
        return [point]

    def tell(self, evaluations: Sequence[Evaluation]) -> None:
        # The whole batch enters the bounds before any energy is computed.
        for evaluation in evaluations:
            self._observe(evaluation)
        for evaluation in evaluations:
            self._steps += 1
            if self._current is None:
                self._current = evaluation
                continue
            delta = self._energy(evaluation) - self._energy(self._current)
            t = self._temperature()
            if delta <= 0 or self.rng.random() < math.exp(-delta / t):
                self._current = evaluation


STRATEGIES: dict[str, type[Strategy]] = {
    cls.name: cls
    for cls in (GridSearch, RandomSearch, EvolutionarySearch, AnnealingSearch)
}


def make_strategy(name: str, space: ParamSpace, seed: int = 0, **options) -> Strategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}") from None
    return cls(space, seed=seed, **options)
