"""A lightweight operating-system model: time slicing and its side effects.

Running DNN workloads under Linux (paper Section III-C) exposes accelerators
to context switches, TLB shootdowns and page-table evictions "at any time".
This model injects those events at kernel boundaries: when a time quantum
expires, the workload pays the context-switch overhead and the accelerator's
translation state (private TLB, shared TLB, filter registers) is flushed —
the mechanism that makes small TLBs with fast refill attractive
(Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.stats import StatsRegistry


@dataclass(frozen=True)
class OSConfig:
    """Time-slicing parameters (cycles of the SoC clock)."""

    enabled: bool = False
    quantum_cycles: float = 10_000_000.0  # 10 ms at 1 GHz
    context_switch_cycles: float = 6_000.0
    flush_tlb_on_switch: bool = True

    def __post_init__(self) -> None:
        if self.quantum_cycles <= 0:
            raise ValueError("quantum_cycles must be positive")
        if self.context_switch_cycles < 0:
            raise ValueError("context_switch_cycles must be non-negative")


class OSModel:
    """Tracks quantum expiry for one hardware thread."""

    def __init__(self, config: OSConfig | None = None, name: str = "os") -> None:
        self.config = config or OSConfig()
        self.name = name
        self.stats = StatsRegistry(owner=name)
        self._next_switch = self.config.quantum_cycles

    def check(self, now: float) -> tuple[float, bool]:
        """Called at kernel boundaries with the current time.

        Returns ``(overhead_cycles, flush_translation_state)``.  Multiple
        elapsed quanta each contribute a switch.
        """
        if not self.config.enabled or now < self._next_switch:
            return 0.0, False
        switches = 0
        while now >= self._next_switch:
            switches += 1
            self._next_switch += self.config.quantum_cycles
        self.stats.add("context_switches", switches)
        overhead = switches * self.config.context_switch_cycles
        return overhead, self.config.flush_tlb_on_switch

    def reset(self) -> None:
        self._next_switch = self.config.quantum_cycles
        self.stats.reset()
