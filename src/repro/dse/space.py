"""Declarative parameter spaces over the accelerator template.

A :class:`ParamSpace` is a set of named, ordered axes (categorical,
log-range, boolean) plus conditional constraints tying axes together
(e.g. the tile edge must divide the PE-grid edge so the two-level
geometry stays square).  Points are plain ``{axis name: value}`` dicts,
which keeps them picklable, hashable (via :func:`point_key`) and
JSON-exportable; :func:`point_to_config` materialises a point into a
validated :class:`~repro.core.config.GemminiConfig`.

The space supports the four access patterns search strategies need:
uniform :meth:`~ParamSpace.sample`, single-step :meth:`~ParamSpace.neighbors`
(the mutation operator), exhaustive :meth:`~ParamSpace.points` enumeration,
and :meth:`~ParamSpace.size` / :meth:`~ParamSpace.estimate_size` for
budgeting.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.core.config import Dataflow, GemminiConfig, geometry_kwargs

__all__ = [
    "Axis",
    "Categorical",
    "Boolean",
    "LogRange",
    "ComponentAxis",
    "Constraint",
    "ParamSpace",
    "SpaceError",
    "COMPONENTS_KEY",
    "TILE_PRESETS",
    "point_key",
    "point_label",
    "point_to_config",
    "point_to_design",
    "gemmini_space",
    "mix_space",
]


class SpaceError(Exception):
    """Raised for malformed spaces or unsatisfiable sampling."""


# ---------------------------------------------------------------------- #
# Axes                                                                    #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Axis:
    """One named design parameter with a finite, ordered value list."""

    name: str
    choices: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SpaceError("axis needs a name")
        if not self.choices:
            raise SpaceError(f"axis {self.name!r} has no choices")
        if len(set(map(repr, self.choices))) != len(self.choices):
            raise SpaceError(f"axis {self.name!r} has duplicate choices")

    def index(self, value: Any) -> int:
        try:
            return self.choices.index(value)
        except ValueError:
            raise SpaceError(
                f"axis {self.name!r}: {value!r} not among {list(self.choices)}"
            ) from None

    def sample(self, rng: random.Random) -> Any:
        return self.choices[rng.randrange(len(self.choices))]

    def steps(self, value: Any) -> list[Any]:
        """The values one ordered step away (the axis-local neighbourhood)."""
        i = self.index(value)
        out = []
        if i > 0:
            out.append(self.choices[i - 1])
        if i + 1 < len(self.choices):
            out.append(self.choices[i + 1])
        return out


def Categorical(name: str, choices: Sequence[Any]) -> Axis:
    """An ordered categorical axis (order defines the neighbour step)."""
    return Axis(name, tuple(choices))


#: The point key a structural (component-mix) axis occupies.  A point
#: carrying this key describes a whole heterogeneous SoC, not a single
#: accelerator config; materialise it with :func:`point_to_design`.
COMPONENTS_KEY = "components"

#: Named per-tile geometry presets the structural axis ranges over.  Each
#: is a plain :func:`point_to_config`-able dict, so a preset composes with
#: ordinary shared axes (a point's non-``components`` keys overlay every
#: preset in the mix).  All presets share the template's default clock, so
#: any mix satisfies :class:`~repro.soc.components.SoCDesign`'s
#: single-clock-domain check.
TILE_PRESETS: dict[str, dict] = {
    "big": {
        "dim": 32,
        "tile": 1,
        "sp_kb": 512,
        "acc_kb": 128,
        "sp_banks": 4,
        "acc_banks": 2,
        "dataflow": "WS",
        "has_im2col": True,
    },
    "medium": {
        "dim": 16,
        "tile": 1,
        "sp_kb": 256,
        "acc_kb": 64,
        "sp_banks": 4,
        "acc_banks": 2,
        "dataflow": "WS",
        "has_im2col": False,
    },
    "little": {
        "dim": 8,
        "tile": 1,
        "sp_kb": 64,
        "acc_kb": 16,
        "sp_banks": 2,
        "acc_banks": 1,
        "dataflow": "WS",
        "has_im2col": False,
    },
}


def _enumerate_mixes(
    presets: tuple[str, ...], min_tiles: int, max_tiles: int
) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Every tile mix over ``presets`` with a total count in range.

    A mix is a canonical tuple of ``(preset, count)`` pairs in preset
    order with every count >= 1 — two points describing the same fleet
    always compare equal.  Enumeration order is deterministic (itertools
    product over per-preset counts), which fixes the axis's neighbour
    structure.
    """
    mixes = []
    for counts in itertools.product(range(max_tiles + 1), repeat=len(presets)):
        total = sum(counts)
        if not (min_tiles <= total <= max_tiles):
            continue
        mixes.append(tuple((p, c) for p, c in zip(presets, counts) if c > 0))
    return tuple(mixes)


class ComponentAxis(Axis):
    """Structural axis: each choice is a whole heterogeneous tile mix.

    Choices are canonical ``((preset, count), ...)`` tuples enumerating
    every fleet composition over ``presets`` with ``min_tiles`` to
    ``max_tiles`` tiles total.  Because mixes are ordinary (hashable,
    picklable) axis values, every :class:`ParamSpace` operator — sampling,
    single-step mutation, exhaustive enumeration — works on heterogeneous
    fleets unchanged, and the axis composes with per-point shared axes
    (e.g. a ``dataflow`` axis overlaying every tile in the mix).
    """

    def __init__(
        self,
        name: str = COMPONENTS_KEY,
        presets: Sequence[str] = ("big", "little"),
        min_tiles: int = 1,
        max_tiles: int = 4,
    ) -> None:
        presets = tuple(presets)
        unknown = [p for p in presets if p not in TILE_PRESETS]
        if unknown:
            raise SpaceError(
                f"unknown tile preset(s) {unknown}; known: {sorted(TILE_PRESETS)}"
            )
        if not presets:
            raise SpaceError("ComponentAxis needs at least one preset")
        if min_tiles < 1 or max_tiles < min_tiles:
            raise SpaceError(f"bad tile-count range [{min_tiles}, {max_tiles}]")
        super().__init__(name, _enumerate_mixes(presets, min_tiles, max_tiles))


def Boolean(name: str) -> Axis:
    """A two-valued axis; False and True are each other's neighbours."""
    return Axis(name, (False, True))


def LogRange(name: str, lo: int, hi: int, base: int = 2) -> Axis:
    """Geometric axis: ``lo, lo*base, ... <= hi`` (both ends inclusive)."""
    if lo < 1 or hi < lo or base < 2:
        raise SpaceError(f"axis {name!r}: bad log range [{lo}, {hi}] base {base}")
    choices = []
    v = lo
    while v <= hi:
        choices.append(v)
        v *= base
    return Axis(name, tuple(choices))


# ---------------------------------------------------------------------- #
# Constraints                                                             #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Constraint:
    """A named predicate over a whole point (conditional axis coupling)."""

    name: str
    predicate: Callable[[dict], bool]

    def holds(self, point: dict) -> bool:
        return bool(self.predicate(point))


# ---------------------------------------------------------------------- #
# Point helpers                                                           #
# ---------------------------------------------------------------------- #


def point_key(point: dict) -> tuple:
    """Canonical hashable identity of a point (axis order independent)."""
    return tuple(sorted(point.items()))


def point_label(point: dict) -> str:
    """Short human-readable label, stable across runs (cache-friendly)."""
    parts = []
    for name, value in sorted(point.items()):
        if isinstance(value, bool):
            value = "y" if value else "n"
        elif isinstance(value, tuple):  # a structural mix: ((preset, count), ...)
            value = "+".join(f"{preset}*{count}" for preset, count in value)
        parts.append(f"{name}={value}")
    return ",".join(parts)


# ---------------------------------------------------------------------- #
# The space                                                               #
# ---------------------------------------------------------------------- #

#: Rejection-sampling attempts before declaring the constraints unsatisfiable.
_MAX_SAMPLE_ATTEMPTS = 10_000


@dataclass(frozen=True)
class ParamSpace:
    """A finite design space: axes x constraints, with search operators."""

    axes: tuple[Axis, ...]
    constraints: tuple[Constraint, ...] = ()
    name: str = "space"

    def __post_init__(self) -> None:
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate axis names in {names}")
        if not self.axes:
            raise SpaceError("a space needs at least one axis")

    # -- lookup --------------------------------------------------------- #

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise SpaceError(f"unknown axis {name!r}; known: {[a.name for a in self.axes]}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    # -- validity ------------------------------------------------------- #

    def is_valid(self, point: dict) -> bool:
        """Whether ``point`` assigns every axis a legal value and satisfies
        every constraint."""
        if set(point) != set(self.axis_names):
            return False
        for a in self.axes:
            if point[a.name] not in a.choices:
                return False
        return all(c.holds(point) for c in self.constraints)

    def check(self, point: dict) -> None:
        """Like :meth:`is_valid` but raises naming the first violation."""
        missing = set(self.axis_names) - set(point)
        extra = set(point) - set(self.axis_names)
        if missing or extra:
            raise SpaceError(
                f"point axes mismatch: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for a in self.axes:
            a.index(point[a.name])  # raises with a precise message
        for c in self.constraints:
            if not c.holds(point):
                raise SpaceError(f"point {point_label(point)} violates {c.name!r}")

    # -- sizing --------------------------------------------------------- #

    @property
    def cartesian_size(self) -> int:
        """Size ignoring constraints (product of axis cardinalities)."""
        size = 1
        for a in self.axes:
            size *= len(a.choices)
        return size

    def size(self, limit: int = 1_000_000) -> int:
        """Exact number of valid points, by enumeration (bounded by ``limit``)."""
        if self.cartesian_size > limit:
            raise SpaceError(
                f"cartesian size {self.cartesian_size} exceeds enumeration "
                f"limit {limit}; use estimate_size()"
            )
        return sum(1 for __ in self.points())

    def estimate_size(self, rng: random.Random, samples: int = 2000) -> float:
        """Monte-Carlo size estimate: validity fraction x cartesian size."""
        if samples < 1:
            raise SpaceError("samples must be >= 1")
        valid = 0
        for __ in range(samples):
            candidate = {a.name: a.sample(rng) for a in self.axes}
            valid += all(c.holds(candidate) for c in self.constraints)
        return self.cartesian_size * valid / samples

    # -- search operators ------------------------------------------------ #

    def sample(self, rng: random.Random) -> dict:
        """One uniformly drawn valid point (rejection sampling)."""
        for __ in range(_MAX_SAMPLE_ATTEMPTS):
            candidate = {a.name: a.sample(rng) for a in self.axes}
            if all(c.holds(candidate) for c in self.constraints):
                return candidate
        raise SpaceError(
            f"no valid point found in {_MAX_SAMPLE_ATTEMPTS} draws; "
            f"constraints {[c.name for c in self.constraints]} may be unsatisfiable"
        )

    def neighbors(self, point: dict) -> list[dict]:
        """All valid points one ordered axis-step away from ``point``.

        This is the mutation neighbourhood shared by the evolutionary and
        annealing strategies; constraint-violating steps are filtered out.
        """
        self.check(point)
        out = []
        for a in self.axes:
            for value in a.steps(point[a.name]):
                candidate = dict(point)
                candidate[a.name] = value
                if all(c.holds(candidate) for c in self.constraints):
                    out.append(candidate)
        return out

    def points(self) -> Iterator[dict]:
        """Enumerate every valid point in deterministic axis order."""
        names = self.axis_names
        for values in itertools.product(*(a.choices for a in self.axes)):
            candidate = dict(zip(names, values))
            if all(c.holds(candidate) for c in self.constraints):
                yield candidate


# ---------------------------------------------------------------------- #
# The Gemmini example space                                               #
# ---------------------------------------------------------------------- #


def point_to_config(point: dict) -> GemminiConfig:
    """Materialise a :func:`gemmini_space` point into a validated config.

    ``dim``/``tile`` define the two-level geometry (mesh = dim/tile);
    memory axes are in KB; every other recognised key passes through.
    Module-level (not a closure) so evaluations can cross process
    boundaries and hash stably into the experiment result cache.
    """
    point = dict(point)
    if COMPONENTS_KEY in point:
        raise SpaceError(
            f"point carries the structural {COMPONENTS_KEY!r} axis and describes "
            "a whole SoC, not one accelerator config; use point_to_design()"
        )
    kwargs: dict[str, Any] = {}
    if "dim" in point:
        try:
            kwargs.update(geometry_kwargs(point.pop("dim"), point.pop("tile", 1)))
        except ValueError as exc:
            raise SpaceError(str(exc)) from None
    for kb_key, byte_key in (
        ("sp_kb", "sp_capacity_bytes"),
        ("acc_kb", "acc_capacity_bytes"),
    ):
        if kb_key in point:
            kwargs[byte_key] = point.pop(kb_key) * 1024
    if "dataflow" in point:
        kwargs["dataflow"] = Dataflow[point.pop("dataflow")]
    kwargs.update(point)
    return GemminiConfig(**kwargs)


def _tile_divides_dim(point: dict) -> bool:
    return point["tile"] <= point["dim"] and point["dim"] % point["tile"] == 0


def _memory_geometry_ok(point: dict) -> bool:
    # Mirror GemminiConfig's bank/row divisibility so materialising a
    # sampled point can never raise: capacities must split into banks of
    # whole DIM-wide rows (int8 inputs, int32 accumulators).
    dim = point["dim"]
    sp_ok = (point["sp_kb"] * 1024) % (dim * 1 * point["sp_banks"]) == 0
    acc_ok = (point["acc_kb"] * 1024) % (dim * 4 * point["acc_banks"]) == 0
    return sp_ok and acc_ok


def _accumulator_fits_tile(point: dict) -> bool:
    # At least one DIM x DIM int32 output block must fit per accumulator bank.
    dim = point["dim"]
    return (point["acc_kb"] * 1024) // point["acc_banks"] >= dim * dim * 4


def gemmini_space(max_dim: int = 32, dataflows: Sequence[str] = ("WS", "OS")) -> ParamSpace:
    """The standard Gemmini exploration space used by the CLI and CI.

    Axes: PE-grid edge, tile edge (pipelining degree), scratchpad and
    accumulator capacities and bank counts, dataflow, and the im2col
    block.  Constraints keep every point materialisable: the tile edge
    divides the grid edge (square two-level geometry), memories split
    into banks of whole rows, and a full output block fits in the
    accumulator.
    """
    dims = tuple(d for d in (4, 8, 16, 32, 64) if d <= max_dim)
    if not dims:
        raise SpaceError(f"max_dim {max_dim} admits no PE grid")
    tiles = tuple(t for t in (1, 2, 4, 8, 16, 32) if t <= max_dim)
    return ParamSpace(
        name=f"gemmini<={max_dim}x{max_dim}",
        axes=(
            Categorical("dim", dims),
            Categorical("tile", tiles),
            LogRange("sp_kb", 64, 512),
            LogRange("acc_kb", 16, 128),
            LogRange("sp_banks", 1, 8),
            LogRange("acc_banks", 1, 4),
            Categorical("dataflow", tuple(dataflows)),
            Boolean("has_im2col"),
        ),
        constraints=(
            Constraint("tile-divides-dim", _tile_divides_dim),
            Constraint("memory-bank-geometry", _memory_geometry_ok),
            Constraint("accumulator-fits-block", _accumulator_fits_tile),
        ),
    )


# ---------------------------------------------------------------------- #
# Structural (component-mix) spaces                                       #
# ---------------------------------------------------------------------- #


def point_to_design(point: dict, mem=None, os=None, cpu="rocket", clock_ghz=None):
    """Materialise a structural point into a validated SoC design.

    The ``components`` value picks the tile mix; every other key overlays
    each preset's geometry before it becomes that tile class's
    :class:`~repro.core.config.GemminiConfig` (so a shared ``dataflow``
    axis, say, applies fleet-wide).  ``clock_ghz`` re-clocks every tile —
    the DSE evaluator pins the fleet at the slowest component's achievable
    frequency.  Module-level and pure-data in, so structural evaluations
    ship through worker processes exactly like scalar ones.
    """
    from repro.mem.hierarchy import MemorySystemConfig
    from repro.soc.components import SoCDesign, TileComponent
    from repro.soc.os_model import OSConfig

    point = dict(point)
    try:
        mix = point.pop(COMPONENTS_KEY)
    except KeyError:
        raise SpaceError(
            f"point has no {COMPONENTS_KEY!r} axis; use point_to_config() for "
            "single-accelerator points"
        ) from None
    tiles = []
    for preset_name, count in mix:
        try:
            preset = dict(TILE_PRESETS[preset_name])
        except KeyError:
            raise SpaceError(
                f"unknown tile preset {preset_name!r}; known: {sorted(TILE_PRESETS)}"
            ) from None
        preset.update(point)
        config = point_to_config(preset)
        if clock_ghz is not None:
            from dataclasses import replace as dc_replace

            config = dc_replace(config, clock_ghz=clock_ghz)
        tiles.append(
            TileComponent(
                gemmini=config,
                cpu=cpu,
                os=os if os is not None else OSConfig(),
                count=count,
                name=preset_name,
            )
        )
    return SoCDesign(
        tiles=tuple(tiles),
        mem=mem if mem is not None else MemorySystemConfig(),
        name="+".join(f"{p}*{c}" for p, c in mix),
    )


def mix_space(
    presets: Sequence[str] = ("big", "little"),
    max_tiles: int = 4,
    min_tiles: int = 1,
    extra_axes: Sequence[Axis] = (),
) -> ParamSpace:
    """A structural exploration space over heterogeneous tile fleets.

    One :class:`ComponentAxis` enumerates every mix of the named
    :data:`TILE_PRESETS` within the tile-count range; ``extra_axes`` add
    shared per-point knobs that overlay every tile in the mix (see
    :func:`point_to_design`).  This is the space behind ``gemmini-repro
    dse --mix``.
    """
    axis = ComponentAxis(COMPONENTS_KEY, presets, min_tiles, max_tiles)
    return ParamSpace(
        name=f"mix[{'+'.join(presets)}]<= {max_tiles} tiles".replace(" ", ""),
        axes=(axis,) + tuple(extra_axes),
    )
