"""Composable SoC configuration: heterogeneous tiles as first-class designs.

The paper's central claim is that Gemmini is a *generator*, not a point
design.  This module extends that claim from the accelerator to the SoC:
instead of one :class:`~repro.core.config.GemminiConfig` stamped across
``num_tiles`` identical tiles, an SoC is a tuple of :class:`TileComponent`
entries (each carrying its own accelerator config, host CPU and OS model,
with a replication count) around one shared memory system, described once
by a :class:`~repro.mem.hierarchy.MemorySystemConfig` (bus width, optional
L2, DRAM channel).  A validated :class:`SoCDesign` bundles the two with
SoC-wide policy (shared PTW, page scattering) and optional area/power
budgets, so heterogeneous big/little accelerator fleets are expressible
and checkable before anything is simulated.

Everything here is frozen and hashable: designs are usable as cache keys,
ship across :class:`~repro.eval.runner.ExperimentRunner` process
boundaries, and round-trip through JSON via :meth:`SoCDesign.to_dict` /
:meth:`SoCDesign.from_dict` (the ``gemmini-repro soc-spec`` surface).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.core.config import GemminiConfig, config_from_dict, default_config
from repro.mem.cache import CacheConfig
from repro.mem.dram import DRAMConfig
from repro.mem.hierarchy import MemorySystemConfig
from repro.soc.cpu import CPUModel, cpu_by_name
from repro.soc.os_model import OSConfig

__all__ = [
    "TileComponent",
    "SoCDesign",
    "DesignError",
]


class DesignError(ValueError):
    """Raised for malformed or budget-violating SoC designs."""


# ---------------------------------------------------------------------- #
# Components                                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class TileComponent:
    """One CPU+accelerator tile class, replicated ``count`` times.

    ``cpu`` accepts either a registered CPU name (``"rocket"``/``"boom"``)
    or a :class:`~repro.soc.cpu.CPUModel` instance; both are validated and
    normalised to a model object here — the single place tile CPUs are
    resolved.
    """

    gemmini: GemminiConfig = field(default_factory=default_config)
    cpu: "str | CPUModel" = "rocket"
    os: OSConfig = field(default_factory=OSConfig)
    count: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DesignError(f"tile component {self.label!r}: count must be >= 1")
        if isinstance(self.cpu, str):
            object.__setattr__(self, "cpu", cpu_by_name(self.cpu))  # raises if unknown
        elif not isinstance(self.cpu, CPUModel):
            raise DesignError(
                f"tile component {self.label!r}: cpu must be a name or CPUModel, "
                f"got {type(self.cpu).__name__}"
            )

    @property
    def cpu_model(self) -> CPUModel:
        return self.cpu  # always normalised by __post_init__

    @property
    def label(self) -> str:
        return self.name or f"{self.gemmini.dim}x{self.gemmini.dim}"

    @property
    def config_hash(self) -> str:
        """Stable identity of the tile *configuration* (not the instance).

        Two tiles with equal accelerator config, CPU and OS model hash
        identically regardless of ``count``/``name`` — this keys the
        serving engine's trace-slot table, grouping replay state by what
        the hardware is rather than where it sits in the tile list.
        """
        payload = {
            "gemmini": self.gemmini.to_dict(),
            "cpu": asdict(self.cpu),
            "os": asdict(self.os),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_dict(self) -> dict:
        out: dict = {
            "gemmini": self.gemmini.to_dict(),
            "os": asdict(self.os),
            "count": self.count,
        }
        # A registered CPU serialises by name; a custom model by its fields.
        try:
            registered = cpu_by_name(self.cpu.name) == self.cpu
        except ValueError:
            registered = False
        out["cpu"] = self.cpu.name if registered else asdict(self.cpu)
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TileComponent":
        cpu = data.get("cpu", "rocket")
        if isinstance(cpu, dict):
            cpu = CPUModel(**cpu)
        return cls(
            gemmini=config_from_dict(data.get("gemmini", {})),
            cpu=cpu,
            os=OSConfig(**data.get("os", {})),
            count=int(data.get("count", 1)),
            name=data.get("name", ""),
        )

    def describe(self) -> str:
        return f"{self.count}x [{self.label}] {self.gemmini.describe()}, cpu={self.cpu.name}"


# ---------------------------------------------------------------------- #
# The design                                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SoCDesign:
    """A validated SoC: tile classes around one shared memory system.

    At least one :class:`TileComponent` is required; ``mem`` describes the
    bus, L2 and DRAM every tile shares.  Every tile must run at one
    reference clock — :class:`~repro.sim.engine.EventLoop` merges tiles
    on their clocks, and the serving engine's cycle accounting assumes a
    single clock domain — and optional ``area_budget_mm2`` /
    ``power_budget_mw`` bounds are checked against the fleet totals at
    construction time (the lumos-style MPSoC budget discipline).
    """

    tiles: tuple[TileComponent, ...] = ()
    mem: MemorySystemConfig = field(default_factory=MemorySystemConfig)
    name: str = "soc"
    #: one PTW shared across the whole SoC (else one per tile, still shared
    #: between that tile's CPU and accelerator)
    global_ptw: bool = True
    #: scatter physical pages (long-running-Linux free-page fragmentation)
    scattered_pages: bool = True
    area_budget_mm2: float | None = None
    power_budget_mw: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiles", tuple(self.tiles))
        if not self.tiles:
            raise DesignError(f"design {self.name!r} needs at least one TileComponent")
        clocks = {t.gemmini.clock_ghz for t in self.tiles}
        if len(clocks) > 1:
            raise DesignError(
                f"design {self.name!r}: tiles must share one reference clock, "
                f"got {sorted(clocks)} GHz (the simulator is single-clock-domain)"
            )
        if self.area_budget_mm2 is not None:
            area = self.area_mm2()
            if area > self.area_budget_mm2:
                raise DesignError(
                    f"design {self.name!r} exceeds its area budget: "
                    f"{area:.3f} mm^2 > {self.area_budget_mm2} mm^2"
                )
        if self.power_budget_mw is not None:
            power = self.power_mw()
            if power > self.power_budget_mw:
                raise DesignError(
                    f"design {self.name!r} exceeds its power budget: "
                    f"{power:.1f} mW > {self.power_budget_mw} mW"
                )

    def expand(self) -> tuple[TileComponent, ...]:
        """The count-expanded per-tile list: one entry per physical tile,
        in declaration order (tile index == position here)."""
        out: list[TileComponent] = []
        for component in self.tiles:
            out.extend([component] * component.count)
        return tuple(out)

    @property
    def num_tiles(self) -> int:
        return sum(c.count for c in self.tiles)

    @property
    def clock_ghz(self) -> float:
        return self.tiles[0].gemmini.clock_ghz

    # -- fleet physical totals ------------------------------------------- #

    def area_mm2(self, tech=None) -> float:
        """Fleet area: each tile's accelerator + host CPU, summed."""
        from repro.physical.area import accelerator_area

        kwargs = {"tech": tech} if tech is not None else {}
        return sum(
            c.count * accelerator_area(c.gemmini, cpu=c.cpu.name, **kwargs).total / 1e6
            for c in self.tiles
        )

    def power_mw(self, tech=None) -> float:
        """Fleet accelerator power at each tile's design clock, summed."""
        from repro.physical.power import power_mw

        kwargs = {"tech": tech} if tech is not None else {}
        return sum(
            c.count * power_mw(c.gemmini, frequency_ghz=c.gemmini.clock_ghz, **kwargs)
            for c in self.tiles
        )

    # -- serialisation ---------------------------------------------------- #

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "tiles": [c.to_dict() for c in self.tiles],
            "mem": asdict(self.mem),
            "global_ptw": self.global_ptw,
            "scattered_pages": self.scattered_pages,
        }
        if self.area_budget_mm2 is not None:
            out["area_budget_mm2"] = self.area_budget_mm2
        if self.power_budget_mw is not None:
            out["power_budget_mw"] = self.power_budget_mw
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SoCDesign":
        """Inverse of :meth:`to_dict`; a missing ``mem`` (or any key of it)
        takes the :class:`~repro.mem.hierarchy.MemorySystemConfig` default."""
        if "tiles" not in data:
            raise DesignError("design needs a 'tiles' list of tile components")
        mem = data.get("mem") or {}
        l2 = mem.get("l2", {})
        return cls(
            tiles=tuple(TileComponent.from_dict(entry) for entry in data["tiles"]),
            mem=MemorySystemConfig(
                bus_beat_bytes=int(mem.get("bus_beat_bytes", 16)),
                l2=CacheConfig(**l2) if l2 is not None else None,
                dram=DRAMConfig(**mem.get("dram", {})),
            ),
            name=data.get("name", "soc"),
            global_ptw=bool(data.get("global_ptw", True)),
            scattered_pages=bool(data.get("scattered_pages", True)),
            area_budget_mm2=data.get("area_budget_mm2"),
            power_budget_mw=data.get("power_budget_mw"),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SoCDesign":
        return cls.from_dict(json.loads(text))

    @classmethod
    def homogeneous(
        cls,
        gemmini: GemminiConfig | None = None,
        mem: MemorySystemConfig | None = None,
        num_tiles: int = 1,
        cpu: "str | CPUModel" = "rocket",
        os: OSConfig | None = None,
        **kwargs,
    ) -> "SoCDesign":
        """One config stamped ``num_tiles`` times: a single-tile-class design."""
        tile = TileComponent(
            gemmini=gemmini or default_config(), cpu=cpu, os=os or OSConfig(), count=num_tiles
        )
        return cls(tiles=(tile,), mem=mem or MemorySystemConfig(), **kwargs)

    def describe(self) -> str:
        tiles = " + ".join(c.describe() for c in self.tiles)
        return f"{self.name}: {tiles}"
