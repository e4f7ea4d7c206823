"""Spatial-array models: structural (cycle-exact), functional, and analytic.

* :class:`StructuralMesh` — per-cycle, per-PE simulation of the two-level
  tiles-of-PEs grid with explicit input skewing and pipeline registers.
  It is the oracle the tests check the functional semantics and the
  analytic latency against.
* :class:`FunctionalMesh` — NumPy semantics of the array (dataflows,
  transposes, saturation) at instruction granularity.
* :func:`fill_latency` and :func:`matmul_cycles` — the one closed-form
  cost of a blocked matmul, for one config or a column batch of them; the
  macro kernels, the tuner screen, DSE's analytic fidelity and the SJF
  oracle all price a matmul with it.

numpy is imported only where arrays are built: a timing-only run prices
matmuls on plain ints and never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import GemminiConfig
from repro.core.dtypes import is_array

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------- #
# Structural, cycle-exact model                                           #
# ---------------------------------------------------------------------- #


class StructuralMesh:
    """Cycle-exact two-level spatial array (Figure 2 microarchitecture).

    Registers sit only at tile boundaries: a value crossing from tile to
    tile takes a cycle, while propagation inside a tile is combinational.
    Inputs are fed with the skew the register structure requires, exactly as
    the RTL's edge shifters do.

    :meth:`run_ws` and :meth:`run_os` step every PE in Python each cycle
    (O(dim^2) work per cycle): slow, but trivially auditable against the
    RTL.  Nothing on a simulation path calls them; tests pin
    :class:`FunctionalMesh` results to them and check
    :func:`fill_latency` against them.
    """

    def __init__(self, config: GemminiConfig) -> None:
        self.config = config
        self.dim = config.dim
        self.tile_rows = config.tile_rows
        self.tile_cols = config.tile_cols

    # -- register-count helpers ---------------------------------------- #

    def row_regs_above(self, r: int) -> int:
        """Pipeline registers crossed travelling from the top edge to PE row r."""
        return r // self.tile_rows

    def col_regs_left(self, c: int) -> int:
        """Pipeline registers crossed travelling from the left edge to PE col c."""
        return c // self.tile_cols

    def _ws_cycles(self, m: int) -> int:
        """Total cycles a WS block of ``m`` rows occupies (stream + drain)."""
        max_row_skew = self.row_regs_above(self.dim - 1)
        max_col_skew = self.col_regs_left(self.dim - 1)
        drain = self.dim + max_row_skew + max_col_skew + 2
        return m + drain

    def _os_cycles(self, k: int) -> int:
        """Cycles an OS block of depth ``k`` occupies, excluding the drain."""
        max_row_skew = self.row_regs_above(self.dim - 1)
        max_col_skew = self.col_regs_left(self.dim - 1)
        return k + max_row_skew + max_col_skew + 1

    # -- weight-stationary --------------------------------------------- #

    def run_ws(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Compute ``C = D + A @ B`` cycle by cycle.

        ``a`` is (m, dim), ``b`` is (dim, dim) stationary, ``d`` is (m, dim).
        Returns (C as float64 (m, dim), total cycles simulated).
        """
        import numpy as np

        dim = self.dim
        m = a.shape[0]
        if a.shape != (m, dim) or b.shape != (dim, dim) or d.shape != (m, dim):
            raise ValueError("run_ws shape mismatch")
        a, b, d = a.astype(np.float64), b.astype(np.float64), d.astype(np.float64)

        # Registered state between cycles (value leaving PE (r, c)).
        a_reg = np.zeros((dim, dim))
        p_reg = np.zeros((dim, dim))
        out = np.zeros((m, dim))
        out_seen = np.zeros((m, dim), dtype=bool)

        total_cycles = self._ws_cycles(m)

        for t in range(total_cycles):
            a_wire = np.zeros((dim, dim))
            p_wire = np.zeros((dim, dim))
            for r in range(dim):
                for c in range(dim):
                    # A operand from the left.
                    if c == 0:
                        i = t - self.row_regs_above(r)
                        a_left = a[i, r] if 0 <= i < m else 0.0
                    elif c % self.tile_cols == 0:
                        a_left = a_reg[r, c - 1]
                    else:
                        a_left = a_wire[r, c - 1]
                    # Partial sum from the top (D enters at the top edge).
                    if r == 0:
                        i = t - self.col_regs_left(c)
                        p_top = d[i, c] if 0 <= i < m else 0.0
                    elif r % self.tile_rows == 0:
                        p_top = p_reg[r - 1, c]
                    else:
                        p_top = p_wire[r - 1, c]
                    a_wire[r, c] = a_left
                    p_wire[r, c] = p_top + a_left * b[r, c]
            # Collect bottom-edge outputs (wire out of the last PE row).
            for c in range(dim):
                i = t - self.col_regs_left(c) - self.row_regs_above(dim - 1)
                if 0 <= i < m and not out_seen[i, c]:
                    out[i, c] = p_wire[dim - 1, c]
                    out_seen[i, c] = True
            a_reg = a_wire
            p_reg = p_wire

        if not out_seen.all():
            raise RuntimeError("structural WS simulation failed to drain")
        return out, total_cycles

    # -- output-stationary ---------------------------------------------- #

    def run_os(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Compute ``C = D + A @ B`` with C resident in the PEs.

        ``a`` is (dim, k), ``b`` is (k, dim), ``d`` is (dim, dim).
        Returns (C, cycles including the drain phase).
        """
        import numpy as np

        dim = self.dim
        k = a.shape[1]
        if a.shape != (dim, k) or b.shape != (k, dim) or d.shape != (dim, dim):
            raise ValueError("run_os shape mismatch")
        a, b = a.astype(np.float64), b.astype(np.float64)
        acc = d.astype(np.float64)  # a private copy, accumulated in place
        a_reg = np.zeros((dim, dim))
        b_reg = np.zeros((dim, dim))

        total_cycles = self._os_cycles(k)

        for t in range(total_cycles):
            a_wire = np.zeros((dim, dim))
            b_wire = np.zeros((dim, dim))
            for r in range(dim):
                for c in range(dim):
                    if c == 0:
                        step = t - self.row_regs_above(r)
                        a_left = a[r, step] if 0 <= step < k else 0.0
                    elif c % self.tile_cols == 0:
                        a_left = a_reg[r, c - 1]
                    else:
                        a_left = a_wire[r, c - 1]
                    if r == 0:
                        step = t - self.col_regs_left(c)
                        b_top = b[step, c] if 0 <= step < k else 0.0
                    elif r % self.tile_rows == 0:
                        b_top = b_reg[r - 1, c]
                    else:
                        b_top = b_wire[r - 1, c]
                    a_wire[r, c] = a_left
                    b_wire[r, c] = b_top
                    acc[r, c] += a_left * b_top
            a_reg = a_wire
            b_reg = b_wire

        drain_cycles = dim  # results propagate out column by column
        return acc, total_cycles + drain_cycles


# ---------------------------------------------------------------------- #
# Functional model                                                        #
# ---------------------------------------------------------------------- #


class FunctionalMesh:
    """Instruction-granularity functional semantics of the spatial array.

    Holds the staged/active weight buffers (WS) and the output-stationary
    accumulator registers (OS).  All arithmetic happens at accumulator
    precision; saturation to the input type happens downstream, in the
    accumulator's output pipeline.
    """

    def __init__(self, config: GemminiConfig) -> None:
        self.config = config
        self.dim = config.dim
        self._acc_np = config.acc_type.np_dtype
        # None reads as all zeros: the registers are built on first use.
        self.active_b = None
        self.staged_b = None
        self.os_acc = None

    def _zeros(self) -> np.ndarray:
        import numpy as np

        return np.zeros((self.dim, self.dim), dtype=self._acc_np)

    def stage_weights(self, b: np.ndarray) -> None:
        """PRELOAD: stage B into the double buffer (WS dataflow)."""
        block = self._zeros()
        block[: b.shape[0], : b.shape[1]] = b
        self.staged_b = block

    def flip_weights(self) -> None:
        """Make staged weights active (start of a COMPUTE_PRELOADED)."""
        self.active_b = self.staged_b

    def compute_ws(self, a: np.ndarray, d: np.ndarray | None) -> np.ndarray:
        """C = D + A @ B_active at accumulator precision; A is (m, dim)."""
        import numpy as np

        m = a.shape[0]
        a_wide = np.zeros((m, self.dim), dtype=self._acc_np)
        a_wide[:, : a.shape[1]] = a
        active = self.active_b if self.active_b is not None else self._zeros()
        result = a_wide @ active
        if d is not None:
            d_wide = np.zeros((m, self.dim), dtype=self._acc_np)
            d_wide[: d.shape[0], : d.shape[1]] = d
            result = result + d_wide
        return result

    def preload_os(self, d: np.ndarray | None) -> None:
        """PRELOAD in OS mode: seed the per-PE accumulators with D (or 0)."""
        self.os_acc = None
        if d is not None:
            self.os_acc = self._zeros()
            self.os_acc[: d.shape[0], : d.shape[1]] = d

    def compute_os(self, a: np.ndarray, b: np.ndarray) -> None:
        """Accumulate A @ B into the resident C registers; A is (dim, k)."""
        import numpy as np

        a_wide = np.zeros((self.dim, a.shape[1]), dtype=self._acc_np)
        a_wide[: a.shape[0], :] = a
        b_wide = np.zeros((a.shape[1], self.dim), dtype=self._acc_np)
        b_wide[:, : b.shape[1]] = b
        acc = self.os_acc if self.os_acc is not None else self._zeros()
        self.os_acc = acc + a_wide @ b_wide

    def drain_os(self) -> np.ndarray:
        """Read the output-stationary results out of the array."""
        result = self.os_acc if self.os_acc is not None else self._zeros()
        self.os_acc = None
        return result


# ---------------------------------------------------------------------- #
# Analytic cycle model                                                    #
# ---------------------------------------------------------------------- #
#
# Both functions take a :class:`~repro.core.config.GemminiConfig` or the
# :class:`~repro.dse.batch.ConfigColumns` of a batch of them: the integer
# arithmetic is the same on ints and on int64 columns, so one config with
# plain ints costs no numpy call, and columns broadcast against shape
# arrays into one cost per (shape, design) pair.


def fill_latency(geometry):
    """Cycles for a wavefront to cross the array: one per pipeline register
    row plus one per register column, plus the combinational traversal of
    the final tile (one cycle)."""
    return (geometry.mesh_rows - 1) + (geometry.mesh_cols - 1) + 2


def matmul_cycles(geometry, m, k, n):
    """Cycles to compute an ``m x k @ k x n`` matmul resident in the
    scratchpad (no DMA), at DIM-block granularity.

    Each (k, n) block pair streams the ``m`` rows of A through the array,
    one row per cycle; an output-stationary array (``os_dataflow``; a BOTH
    array runs WS) also drains every output block through the array, one
    column wave of ``dim`` cycles; the result's first row waits one
    :func:`fill_latency`.  Plain ints give a Python float; broadcastable
    int64 arrays give a float64 array.
    """
    dim = geometry.dim
    mb = -(-m // dim)
    kb = -(-k // dim)
    nb = -(-n // dim)
    total = kb * nb * m + mb * nb * dim * geometry.os_dataflow + fill_latency(geometry)
    if not is_array(total):
        if min(m, k, n) <= 0:
            raise ValueError("matmul dimensions must be positive")
        return float(total)
    import numpy as np

    if min(np.min(m), np.min(k), np.min(n)) <= 0:
        raise ValueError("matmul dimensions must be positive")
    return total.astype(np.float64)
