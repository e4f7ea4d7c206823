"""Radix page tables and a small virtual-memory allocator.

Gemmini is "the first infrastructure that provides hardware support for
virtual memory without the need for any special driver software"
(Section II-B).  The runtime in this reproduction allocates every tensor in a
virtual address space backed by an Sv39-style three-level radix page table,
so DMA streams cross page boundaries exactly the way they would on the real
SoC — that is what produces the TLB behaviour of Figures 4 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_BYTES_DEFAULT = 4096
LEVELS = 3
BITS_PER_LEVEL = 9


class PageFault(Exception):
    """Raised when a walk touches an unmapped virtual page."""


class PageTable:
    """A three-level radix page table (Sv39-like: 9 bits per level)."""

    def __init__(self, page_bytes: int = PAGE_BYTES_DEFAULT) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("page_bytes must be a positive power of two")
        self.page_bytes = page_bytes
        self.root: dict = {}
        self.mapped_pages = 0
        self.walk_accesses = 0

    # ------------------------------------------------------------------ #

    def _indices(self, vpn: int) -> tuple[int, int, int]:
        mask = (1 << BITS_PER_LEVEL) - 1
        return (
            (vpn >> (2 * BITS_PER_LEVEL)) & mask,
            (vpn >> BITS_PER_LEVEL) & mask,
            vpn & mask,
        )

    def map_page(self, vpn: int, ppn: int) -> None:
        """Install a translation ``vpn -> ppn``."""
        i0, i1, i2 = self._indices(vpn)
        level1 = self.root.setdefault(i0, {})
        level2 = level1.setdefault(i1, {})
        if i2 not in level2:
            self.mapped_pages += 1
        level2[i2] = ppn

    def walk(self, vpn: int) -> int:
        """Walk the tree; returns the PPN.  Counts the memory accesses a
        hardware walker would issue (one per level)."""
        i0, i1, i2 = self._indices(vpn)
        self.walk_accesses += LEVELS
        try:
            return self.root[i0][i1][i2]
        except KeyError:
            raise PageFault(f"page fault at vpn 0x{vpn:x}") from None

    def is_mapped(self, vpn: int) -> bool:
        i0, i1, i2 = self._indices(vpn)
        return i2 in self.root.get(i0, {}).get(i1, {})

    def translate(self, vaddr: int) -> int:
        """Functional virtual-to-physical translation of a byte address."""
        vpn, offset = divmod(vaddr, self.page_bytes)
        return self.walk(vpn) * self.page_bytes + offset

    def count_functional_walks(self, n: int) -> None:
        """Count ``n`` functional translations, each a full walk as
        :meth:`translate` makes, for a caller that already holds the PPNs."""
        self.walk_accesses += LEVELS * n


def _mix(value: int) -> int:
    """A small deterministic integer hash (splitmix64 finaliser)."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass
class Allocation:
    """One named region of virtual memory."""

    name: str
    vaddr: int
    size: int

    @property
    def end(self) -> int:
        return self.vaddr + self.size


class VirtualMemory:
    """A per-process virtual address space with an on-demand page mapper.

    Allocations are laid out sequentially (64-byte aligned) from ``base``.
    Physical pages are assigned either sequentially or via a deterministic
    hash ("scattered"), the latter modelling a long-running Linux system
    whose free-page pool is fragmented — this spreads DMA streams across L2
    sets the way the paper's Linux-based measurements would.
    """

    def __init__(
        self,
        page_bytes: int = PAGE_BYTES_DEFAULT,
        base: int = 0x1000_0000,
        scattered: bool = False,
        asid: int = 0,
    ) -> None:
        self.page_table = PageTable(page_bytes)
        self.page_bytes = page_bytes
        self.base = base
        self.scattered = scattered
        self.asid = asid
        self._next_vaddr = base
        self._next_ppn = 1 + asid * (1 << 20)
        self.allocations: dict[str, Allocation] = {}

    def alloc(self, size: int, name: str = "") -> int:
        """Allocate ``size`` bytes; returns the starting virtual address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        vaddr = (self._next_vaddr + 63) & ~63
        self._next_vaddr = vaddr + size
        first_vpn = vaddr // self.page_bytes
        last_vpn = (vaddr + size - 1) // self.page_bytes
        for vpn in range(first_vpn, last_vpn + 1):
            if not self.page_table.is_mapped(vpn):
                self.page_table.map_page(vpn, self._assign_ppn(vpn))
        label = name or f"alloc{len(self.allocations)}"
        self.allocations[label] = Allocation(label, vaddr, size)
        return vaddr

    def _assign_ppn(self, vpn: int) -> int:
        if self.scattered:
            # Deterministic pseudo-random physical page, unique per (asid, vpn).
            return _mix((self.asid << 40) ^ vpn) & ((1 << 28) - 1)
        ppn = self._next_ppn
        self._next_ppn += 1
        return ppn

    def translate(self, vaddr: int) -> int:
        """Physical address of ``vaddr``."""
        return self.page_table.translate(vaddr)

    def region(self, name: str) -> Allocation:
        return self.allocations[name]
