"""Full-SoC composition: CPU+accelerator tiles around shared L2 and DRAM.

This is the paper's Figure 5 structure: each *tile* pairs one host CPU with
one Gemmini-generated accelerator (private scratchpad/accumulator/TLB);
all tiles share the system bus, the L2 cache, the DRAM channel, and —
matching the Section V-A design point — optionally a single page-table
walker.

An SoC is built from a :class:`~repro.soc.components.SoCDesign`, so
heterogeneous big/little accelerator mixes are first-class: each
:class:`~repro.soc.components.TileComponent` in ``design.tiles``
contributes ``count`` tiles carrying its own accelerator config, host CPU
and OS model, and ``design.mem`` configures the one shared memory system.
"""

from __future__ import annotations

from repro.core.accelerator import Accelerator
from repro.core.config import GemminiConfig
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig
from repro.mem.host_memory import HostMemory
from repro.mem.page_table import VirtualMemory
from repro.sim.timeline import Timeline
from repro.soc.components import SoCDesign, TileComponent
from repro.soc.cpu import CPUModel
from repro.soc.os_model import OSConfig, OSModel


class SoCTile:
    """One CPU + accelerator pair with its own virtual address space."""

    def __init__(
        self,
        index: int,
        cpu: CPUModel,
        accel: Accelerator,
        vm: VirtualMemory,
        host: HostMemory,
        os_model: OSModel,
        component: TileComponent,
    ) -> None:
        self.index = index
        self.name = f"tile{index}"
        self.cpu = cpu
        self.accel = accel
        self.vm = vm
        self.host = host
        self.os = os_model
        #: the design component this tile was stamped from
        self.component = component

    @property
    def config_hash(self) -> str:
        """Identity of this tile's configuration (accelerator + CPU + OS);
        equal across tiles stamped from the same component."""
        return self.component.config_hash

    @property
    def trace_replay_safe(self) -> bool:
        """True when macro-op trace replay can reproduce this tile's runs.

        The OS time-slice model injects context switches (and TLB flushes)
        at absolute quantum boundaries, so a trace recorded at one start
        time is not valid shifted to another; tiles running the OS model
        must stay on the per-macro-op generator path.
        """
        return not self.os.config.enabled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SoCTile({self.index}, cpu={self.cpu.name})"


class SoC:
    """The composed system: tiles + shared memory substrate."""

    def __init__(self, design: SoCDesign | None = None) -> None:
        if design is None:
            design = SoCDesign.homogeneous()
        self.design = design
        self.mem = MemorySystem(design.mem)
        global_ptw = Timeline("soc.ptw") if design.global_ptw else None
        self.tiles: list[SoCTile] = []
        for index, component in enumerate(design.expand()):
            gemmini = component.gemmini
            vm = VirtualMemory(
                page_bytes=gemmini.tlb.page_bytes,
                base=0x1000_0000 + index * 0x4000_0000,
                scattered=design.scattered_pages,
                asid=index,
            )
            host = HostMemory(page_bytes=gemmini.tlb.page_bytes)
            ptw = global_ptw if global_ptw is not None else Timeline(f"tile{index}.ptw")
            accel = Accelerator(
                gemmini,
                mem=self.mem,
                vm=vm,
                host=host,
                ptw=ptw,
                name=f"gemmini{index}",
            )
            os_model = OSModel(component.os, name=f"os{index}")
            self.tiles.append(
                SoCTile(index, component.cpu_model, accel, vm, host, os_model, component)
            )

    @property
    def tile(self) -> SoCTile:
        """The first tile (convenience for single-core SoCs)."""
        return self.tiles[0]

    def l2_miss_rate(self) -> float:
        return self.mem.l2_miss_rate()

    def reset(self) -> None:
        self.mem.reset()
        for tile in self.tiles:
            tile.accel.reset()
            tile.os.reset()


def make_soc(
    gemmini: GemminiConfig | None = None,
    mem: MemorySystemConfig | None = None,
    num_tiles: int = 1,
    cpu: str | CPUModel = "rocket",
    os: OSConfig | None = None,
) -> SoC:
    """Convenience constructor used by examples and experiments."""
    return SoC(
        SoCDesign.homogeneous(
            gemmini=gemmini, mem=mem, num_tiles=num_tiles, cpu=cpu, os=os
        )
    )
