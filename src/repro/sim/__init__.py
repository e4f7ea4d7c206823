"""Discrete-event simulation primitives shared by all architectural models.

The simulator is *transaction level with cycle bookkeeping*: components do not
tick a global clock; instead they book occupancy on shared
:class:`~repro.sim.timeline.Timeline` resources and propagate explicit start
and completion times.  This keeps full-network simulations tractable in pure
Python while preserving the concurrency structure (double buffering,
DMA/compute overlap, shared-resource contention) that the paper's FireSim
experiments measure.
"""

from repro.sim.timeline import Timeline
from repro.sim.stats import Histogram, RateWindow, StatsRegistry, TimeSeries

# NOTE: repro.sim.trace (macro-op record/replay) is intentionally not
# re-exported here — it sits *above* the runtime stack (it imports
# repro.sw.runtime), while this package init is imported by the lowest-level
# memory models.  Import it as ``from repro.sim.trace import MacroTrace``.

__all__ = [
    "Timeline",
    "Histogram",
    "RateWindow",
    "StatsRegistry",
    "TimeSeries",
]
