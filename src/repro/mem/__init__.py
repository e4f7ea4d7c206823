"""Memory-system substrate: caches, DRAM, buses, TLBs, and page tables.

These models implement the shared SoC resources the paper argues DNN
accelerators must be evaluated with (Section II-B "system-level integration"):
a shared write-back L2, a DRAM channel with finite bandwidth, a two-level TLB
hierarchy with a single page-table walker, and optional per-channel filter
registers (Section V-A).
"""

from repro.mem.dram import DRAMConfig, DRAMModel
from repro.mem.bus import SystemBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.tlb import (
    FilterRegisters,
    TLB,
    TLBConfig,
    TranslationSystem,
)
from repro.mem.page_table import PageTable, VirtualMemory
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig

__all__ = [
    "DRAMConfig",
    "DRAMModel",
    "SystemBus",
    "Cache",
    "CacheConfig",
    "FilterRegisters",
    "TLB",
    "TLBConfig",
    "TranslationSystem",
    "PageTable",
    "VirtualMemory",
    "MemorySystem",
    "MemorySystemConfig",
]
