"""Timing model: achievable clock frequency of a spatial-array instance.

The critical path runs down a tile's combinational MAC ripple chain: a
fully pipelined array (1x1 tiles) pays one MAC per cycle and clocks high; a
fully combinational array (one big tile) ripples through ``tile_rows`` MACs
per cycle and clocks low.  Calibrated to Figure 3's 1.89 GHz / 0.69 GHz
pair at 256 PEs.
"""

from __future__ import annotations

from repro.core.config import GemminiConfig
from repro.physical.area import width_scale
from repro.physical.technology import INTEL_22FFL, Technology


def critical_path_ns(config: GemminiConfig, tech: Technology = INTEL_22FFL) -> float:
    """Cycle time implied by the tile's MAC ripple chain, ns."""
    chain = config.tile_rows
    return tech.t_base_ns + chain * tech.t_mac_ns * width_scale(config) ** 0.5


def max_frequency_ghz(config: GemminiConfig, tech: Technology = INTEL_22FFL) -> float:
    """Maximum clock frequency of the instance, GHz."""
    return 1.0 / critical_path_ns(config, tech)
