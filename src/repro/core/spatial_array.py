"""Spatial-array models: structural (cycle-exact), functional, and analytic.

Three views of the same hardware, used at different simulation speeds:

* :class:`StructuralMesh` — per-cycle simulation of the two-level
  tiles-of-PEs grid with explicit input skewing and pipeline registers.
  Used by tests and the structural-check mode to validate the other two
  views.
* :class:`FunctionalMesh` — NumPy semantics of the array (dataflows,
  transposes, saturation) at instruction granularity.
* :class:`SpatialArrayModel` — closed-form cycle costs for instructions and
  whole blocked matmuls; this is what the performance simulator uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Dataflow, GemminiConfig


# ---------------------------------------------------------------------- #
# Structural, cycle-exact model                                           #
# ---------------------------------------------------------------------- #


class StructuralMesh:
    """Cycle-exact two-level spatial array (Figure 2 microarchitecture).

    Registers sit only at tile boundaries: a value crossing from tile to
    tile takes a cycle, while propagation inside a tile is combinational.
    Inputs are fed with the skew the register structure requires, exactly as
    the RTL's edge shifters do.

    :meth:`run_ws` and :meth:`run_os` advance the whole array per cycle
    with one numpy wavefront slab update.  Within a tile, operand wires are
    constant along the combinational direction and partial sums are a
    running (cumulative) sum down the tile, so each cycle reduces to
    gathers, a broadcasted multiply, and per-tile-row cumulative sums.

    :meth:`run_ws_reference` and :meth:`run_os_reference` are the oracle:
    triple-nested per-PE loops, trivially auditable against the RTL and
    slow (O(dim^2) Python work per cycle).  The wavefront performs the
    arithmetic in exactly their order, so outputs and cycle counts are
    bitwise identical (enforced by property tests).
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

    def _ws_operands(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shape-check WS operands and widen them to float64."""
        dim = self.dim
        m = a.shape[0]
        if a.shape != (m, dim) or b.shape != (dim, dim) or d.shape != (m, dim):
            raise ValueError("run_ws shape mismatch")
        return a.astype(np.float64), b.astype(np.float64), d.astype(np.float64)

    def run_ws_reference(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """:meth:`run_ws` by stepping every PE in Python (the oracle)."""
        a, b, d = self._ws_operands(a, b, d)
        dim = self.dim
        m = a.shape[0]

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

    def _wavefront_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row and per-column register (skew) counts as index vectors."""
        rows = np.arange(self.dim)
        cols = np.arange(self.dim)
        return rows // self.tile_rows, cols // self.tile_cols

    def run_ws(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Compute ``C = D + A @ B`` cycle by cycle.

        ``a`` is (m, dim), ``b`` is (dim, dim) stationary, ``d`` is (m, dim).
        Returns (C as float64 (m, dim), total cycles simulated).

        One slab update over the whole array per cycle, exploiting two
        structural facts.  (1) The A operand is combinational within a
        tile, so along each PE row it is piecewise-constant per tile
        column: one gather of the tile-boundary registers (plus the left-edge
        feed) reconstructs the whole ``a_wire`` plane.  (2) The partial sum
        chains combinationally down a tile, so within each tile row it is a
        cumulative sum of ``a_wire * b`` seeded by the incoming registered
        value.  Both are computed with :meth:`run_ws_reference`'s exact
        addition order, keeping results bitwise identical.
        """
        a, b, d = self._ws_operands(a, b, d)
        dim = self.dim
        m = a.shape[0]
        tile_rows, tile_cols = self.tile_rows, self.tile_cols
        mesh_rows, mesh_cols = dim // tile_rows, dim // tile_cols

        rows = np.arange(dim)
        cols = np.arange(dim)
        row_skew, col_skew = self._wavefront_indices()
        out_lat = int(row_skew[-1])  # registers between top edge and last PE row
        max_col_skew = int(col_skew[-1])
        #: registered columns/rows feeding tile blocks 1..mesh-1
        col_feed = tile_cols * np.arange(1, mesh_cols) - 1
        row_feed = tile_rows * np.arange(1, mesh_rows) - 1
        block_starts = tile_rows * np.arange(1, mesh_rows)

        total_cycles = self._ws_cycles(m)

        # Zero-padded edge feeds: row i of A enters PE row r at cycle
        # i + row_skew[r]; indexing the padded plane replaces per-cycle
        # bounds masking (out-of-range cycles read the same 0.0 the edge
        # shifters would drive).
        a_pad = np.zeros((total_cycles + out_lat, dim))
        a_pad[out_lat : out_lat + m] = a
        a_idx = out_lat - row_skew
        d_pad = np.zeros((total_cycles + max_col_skew, dim))
        d_pad[max_col_skew : max_col_skew + m] = d
        d_idx = max_col_skew - col_skew

        a_reg = np.zeros((dim, dim))
        p_reg = np.zeros((dim, dim))
        #: bottom-edge wire observed each cycle; unskewed into C afterwards
        bottom = np.empty((total_cycles, dim))

        for t in range(total_cycles):
            # Left-edge A feed plus the tile-boundary registers reconstruct
            # the whole combinational a_wire plane.
            entering = np.empty((dim, mesh_cols))
            entering[:, 0] = a_pad[t + a_idx, rows]
            if mesh_cols > 1:
                entering[:, 1:] = a_reg[:, col_feed]
            a_wire = np.repeat(entering, tile_cols, axis=1)

            # Partial sums: seed each tile row with its incoming value, then
            # accumulate down the tile.
            p_wire = a_wire * b
            p_wire[0] += d_pad[t + d_idx, cols]
            if mesh_rows > 1:
                p_wire[block_starts] += p_reg[row_feed]
            if tile_rows > 1:
                for start in range(0, dim, tile_rows):
                    np.cumsum(
                        p_wire[start : start + tile_rows],
                        axis=0,
                        out=p_wire[start : start + tile_rows],
                    )

            bottom[t] = p_wire[dim - 1]
            a_reg = a_wire
            p_reg = p_wire

        # Result row i leaves column c at cycle i + col_skew[c] + out_lat;
        # one gather undoes the output skew.
        out_t = np.arange(m)[:, None] + (col_skew + out_lat)[None, :]
        out = bottom[out_t, cols[None, :]]
        return out, total_cycles

    # -- output-stationary ---------------------------------------------- #

    def _os_operands(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shape-check OS operands and widen them to float64 copies."""
        dim = self.dim
        k = a.shape[1]
        if a.shape != (dim, k) or b.shape != (k, dim) or d.shape != (dim, dim):
            raise ValueError("run_os shape mismatch")
        return a.astype(np.float64), b.astype(np.float64), d.astype(np.float64)

    def run_os_reference(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """:meth:`run_os` by stepping every PE in Python (the oracle)."""
        a, b, d = self._os_operands(a, b, d)
        dim = self.dim
        k = a.shape[1]

        acc = d  # a private copy: _os_operands widened it
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

    def run_os(
        self, a: np.ndarray, b: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Compute ``C = D + A @ B`` with C resident in the PEs.

        ``a`` is (dim, k), ``b`` is (k, dim), ``d`` is (dim, dim).
        Returns (C, cycles including the drain phase).

        Both moving operands are piecewise-constant inside a tile (A along
        rows, B down columns), so each cycle is two gathers of tile-boundary
        registers plus one fused multiply-accumulate over the whole array —
        the same per-element additions as :meth:`run_os_reference`, in the
        same order.
        """
        a, b, d = self._os_operands(a, b, d)
        dim = self.dim
        k = a.shape[1]
        tile_rows, tile_cols = self.tile_rows, self.tile_cols
        mesh_rows, mesh_cols = dim // tile_rows, dim // tile_cols

        rows = np.arange(dim)
        cols = np.arange(dim)
        row_skew, col_skew = self._wavefront_indices()
        max_row_skew = int(row_skew[-1])
        max_col_skew = int(col_skew[-1])
        col_feed = tile_cols * np.arange(1, mesh_cols) - 1
        row_feed = tile_rows * np.arange(1, mesh_rows) - 1

        total_cycles = self._os_cycles(k)

        # Zero-padded edge feeds (see run_ws).
        a_pad = np.zeros((dim, total_cycles + max_row_skew))
        a_pad[:, max_row_skew : max_row_skew + k] = a
        a_idx = max_row_skew - row_skew
        b_pad = np.zeros((total_cycles + max_col_skew, dim))
        b_pad[max_col_skew : max_col_skew + k] = b
        b_idx = max_col_skew - col_skew

        acc = d  # a private copy: _os_operands widened it
        a_reg = np.zeros((dim, dim))
        b_reg = np.zeros((dim, dim))

        for t in range(total_cycles):
            entering_cols = np.empty((dim, mesh_cols))
            entering_cols[:, 0] = a_pad[rows, t + a_idx]
            if mesh_cols > 1:
                entering_cols[:, 1:] = a_reg[:, col_feed]
            a_wire = np.repeat(entering_cols, tile_cols, axis=1)

            entering_rows = np.empty((mesh_rows, dim))
            entering_rows[0] = b_pad[t + b_idx, cols]
            if mesh_rows > 1:
                entering_rows[1:] = b_reg[row_feed]
            b_wire = np.repeat(entering_rows, tile_rows, axis=0)

            acc += a_wire * b_wire
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
        self.active_b = np.zeros((self.dim, self.dim), dtype=self._acc_np)
        self.staged_b = np.zeros((self.dim, self.dim), dtype=self._acc_np)
        self.os_acc = np.zeros((self.dim, self.dim), dtype=self._acc_np)

    def stage_weights(self, b: np.ndarray) -> None:
        """PRELOAD: stage B into the double buffer (WS dataflow)."""
        block = np.zeros((self.dim, self.dim), dtype=self._acc_np)
        block[: b.shape[0], : b.shape[1]] = b
        self.staged_b = block

    def flip_weights(self) -> None:
        """Make staged weights active (start of a COMPUTE_PRELOADED)."""
        self.active_b = self.staged_b

    def compute_ws(self, a: np.ndarray, d: np.ndarray | None) -> np.ndarray:
        """C = D + A @ B_active at accumulator precision; A is (m, dim)."""
        m = a.shape[0]
        a_wide = np.zeros((m, self.dim), dtype=self._acc_np)
        a_wide[:, : a.shape[1]] = a
        result = a_wide @ self.active_b
        if d is not None:
            d_wide = np.zeros((m, self.dim), dtype=self._acc_np)
            d_wide[: d.shape[0], : d.shape[1]] = d
            result = result + d_wide
        return result

    def preload_os(self, d: np.ndarray | None) -> None:
        """PRELOAD in OS mode: seed the per-PE accumulators with D (or 0)."""
        self.os_acc = np.zeros((self.dim, self.dim), dtype=self._acc_np)
        if d is not None:
            self.os_acc[: d.shape[0], : d.shape[1]] = d

    def compute_os(self, a: np.ndarray, b: np.ndarray) -> None:
        """Accumulate A @ B into the resident C registers; A is (dim, k)."""
        a_wide = np.zeros((self.dim, a.shape[1]), dtype=self._acc_np)
        a_wide[: a.shape[0], :] = a
        b_wide = np.zeros((a.shape[1], self.dim), dtype=self._acc_np)
        b_wide[:, : b.shape[1]] = b
        self.os_acc = self.os_acc + a_wide @ b_wide

    def drain_os(self) -> np.ndarray:
        """Read the output-stationary results out of the array."""
        result = self.os_acc.copy()
        self.os_acc = np.zeros((self.dim, self.dim), dtype=self._acc_np)
        return result


# ---------------------------------------------------------------------- #
# Analytic cycle model                                                    #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class MatmulCost:
    """Cycle breakdown of a blocked matmul on the array.

    Plain numbers for one matmul (:meth:`SpatialArrayModel.matmul_cost`);
    numpy arrays with one entry per (shape, design) pair for a batch
    (:func:`matmul_cost_batch`).
    """

    compute_cycles: float
    drain_cycles: float
    fill_latency: float
    blocks: int

    @property
    def total(self) -> float:
        return self.compute_cycles + self.drain_cycles + self.fill_latency


def _fill_latency(geometry) -> int:
    """Cycles for a wavefront to cross the array: one per pipeline register
    row plus one per register column, plus the combinational traversal of
    the final tile (one cycle).  ``geometry`` is a
    :class:`~repro.core.config.GemminiConfig` or a
    :class:`~repro.dse.batch.ConfigColumns`."""
    return (geometry.mesh_rows - 1) + (geometry.mesh_cols - 1) + 2


def _block_counts(m, k, n, dim):
    """Integer core of the blocked-matmul cost, on ints or int64 arrays.

    Returns ``(output blocks, blocks, compute cycles)`` of an ``m x k @ k x
    n`` matmul at DIM-block granularity.
    """
    mb = -(-m // dim)
    kb = -(-k // dim)
    nb = -(-n // dim)
    last_m = m - (mb - 1) * dim
    # Each (k, n) block streams the M dimension through the array.
    full_col_cycles = (mb - 1) * dim + last_m
    return mb * nb, mb * kb * nb, kb * nb * full_col_cycles


def matmul_cost_batch(cols, shapes) -> MatmulCost:
    """:meth:`SpatialArrayModel.matmul_cost` of every ``(m, k, n)`` in
    ``shapes`` on every design of ``cols``, as ``(shapes, designs)`` arrays.

    ``cols`` is a :class:`~repro.dse.batch.ConfigColumns`, whose
    ``os_dataflow`` column has BOTH already resolved to WS.  Every term is
    the scalar method's, so the costs are bitwise equal to it.
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    if int(shapes.min()) <= 0:
        raise ValueError("matmul dimensions must be positive")
    dim = cols.dim[None, :]
    out_blocks, blocks, compute = _block_counts(
        shapes[:, 0][:, None], shapes[:, 1][:, None], shapes[:, 2][:, None], dim
    )
    compute = compute.astype(np.float64)
    # OS drains each output block through the array (one column wave of
    # ``dim`` cycles); WS streams results straight out.
    drain = np.where(cols.os_dataflow[None, :], (out_blocks * dim).astype(np.float64), 0.0)
    fill = _fill_latency(cols).astype(np.float64)
    return MatmulCost(
        compute_cycles=compute,
        drain_cycles=drain,
        fill_latency=np.broadcast_to(fill, compute.shape).copy(),
        blocks=blocks,
    )


class SpatialArrayModel:
    """Closed-form cycle costs, consistent with the structural model.

    The consistency is enforced by tests: for random small shapes, the
    structural simulation's cycle count equals ``fill_latency + rows`` for a
    single WS block (and the OS equivalent).
    """

    def __init__(self, config: GemminiConfig) -> None:
        self.config = config
        self.dim = config.dim

    # -- per-instruction costs ----------------------------------------- #

    @property
    def fill_latency(self) -> int:
        """Cycles for a wavefront to cross the array (see :func:`_fill_latency`)."""
        return _fill_latency(self.config)

    def compute_cycles(self, rows: int) -> int:
        """Occupancy of one COMPUTE streaming ``rows`` operand rows.

        The array accepts one row per cycle; the preload of the next
        stationary operand overlaps via the double-buffered weight
        registers, so back-to-back COMPUTEs sustain one row per cycle.
        """
        return max(1, rows)

    def preload_cycles(self) -> int:
        """PRELOAD occupies the issue path only (weights stream in through
        the same wavefront as the following COMPUTE)."""
        return 1

    def os_drain_cycles(self) -> int:
        """Reading C out of an output-stationary array: one column wave."""
        return self.dim

    # -- blocked-matmul costs ------------------------------------------- #

    def matmul_cost(
        self, m: int, k: int, n: int, dataflow: Dataflow = Dataflow.WS
    ) -> MatmulCost:
        """Cycles to compute an ``m x k @ k x n`` matmul resident in the
        scratchpad (no DMA), at DIM-block granularity."""
        if min(m, k, n) <= 0:
            raise ValueError("matmul dimensions must be positive")
        out_blocks, blocks, compute = _block_counts(m, k, n, self.dim)
        if dataflow is Dataflow.OS:
            # OS drains each output block through the array.
            drain = float(out_blocks * self.os_drain_cycles())
        else:
            drain = 0.0  # WS (and BOTH, which runs WS) streams results out
        return MatmulCost(
            compute_cycles=float(compute),
            drain_cycles=drain,
            fill_latency=float(_fill_latency(self.config)),
            blocks=blocks,
        )

    def ideal_macs_per_cycle(self) -> int:
        return self.config.num_pes

    def utilisation(self, m: int, k: int, n: int, dataflow: Dataflow = Dataflow.WS) -> float:
        """Achieved MACs/cycle over peak for a scratchpad-resident matmul."""
        cost = self.matmul_cost(m, k, n, dataflow)
        macs = m * k * n
        return macs / (cost.total * self.ideal_macs_per_cycle())
