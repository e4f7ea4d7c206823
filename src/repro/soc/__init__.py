"""SoC integration: host CPUs, the OS model, and full-SoC composition.

Gemmini differentiates itself by generating *complete SoCs* rather than
standalone accelerators (paper Section III-C): RISC-V host CPUs from
low-power in-order Rocket cores to out-of-order BOOM cores, shared L2 and
DRAM, and a Linux-capable software environment whose context switches flush
accelerator TLB state.

An SoC is declared as a :class:`SoCDesign` (:mod:`repro.soc.components`):
a tuple of :class:`TileComponent` entries — each with its own accelerator
config, host CPU, OS model and replication count — and one
:class:`~repro.mem.hierarchy.MemorySystemConfig` for the bus, L2 and DRAM
every tile shares.
"""

from repro.soc.components import DesignError, SoCDesign, TileComponent
from repro.soc.cpu import BOOM, ROCKET, CPUModel, cpu_by_name
from repro.soc.os_model import OSConfig, OSModel
from repro.soc.soc import SoC, SoCTile, make_soc

__all__ = [
    "BOOM",
    "ROCKET",
    "CPUModel",
    "cpu_by_name",
    "OSConfig",
    "OSModel",
    "DesignError",
    "SoC",
    "SoCDesign",
    "SoCTile",
    "TileComponent",
    "make_soc",
]
