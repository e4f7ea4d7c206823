"""Runtime tile-size selection (the paper's "data staging and mapping").

At runtime, based on the dimensions of a layer's inputs and the hardware
parameters of the accelerator instantiation, Gemmini "uses heuristics to
maximize the amount of data moved into the scratchpad per iteration"
(Section III-B).  This module implements that heuristic for blocked matmuls:
grow the tile dimensions greedily while the A and B tiles fit in half the
scratchpad (double buffering) and the C tile fits in half the accumulator.
Manual tile sizes may also be supplied, mirroring the low-level API.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.generator import SoftwareParams

#: outer-loop orders a schedule may use.  k stays innermost in both so a C
#: tile fully accumulates before its store; "jik" swaps which operand's
#: tiles enjoy L2 temporal locality across consecutive iterations.
LOOP_ORDERS = ("ijk", "jik")


@dataclass(frozen=True)
class MatmulTiling:
    """A blocked matmul schedule, dimensions in units of DIM blocks.

    The inner tile computes ``(i_blocks*DIM) x (k_blocks*DIM) @
    (k_blocks*DIM) x (j_blocks*DIM)``; outer loops sweep the full matrices.
    ``loop_order`` picks which of the (i, j) outer loops runs outermost;
    ``double_buffer`` ping-pongs the scratchpad/accumulator halves so loads
    of iteration *n+1* overlap compute of iteration *n* (False serialises
    them but makes the full memories available to one iteration).
    """

    i_blocks: int
    j_blocks: int
    k_blocks: int
    dim: int
    m: int
    k: int
    n: int
    loop_order: str = "ijk"
    double_buffer: bool = True

    def __post_init__(self) -> None:
        if min(self.i_blocks, self.j_blocks, self.k_blocks) < 1:
            raise ValueError("tile block counts must be >= 1")
        if min(self.m, self.k, self.n) < 1:
            raise ValueError("matmul dimensions must be >= 1")
        if self.loop_order not in LOOP_ORDERS:
            raise ValueError(
                f"loop_order must be one of {LOOP_ORDERS}, got {self.loop_order!r}"
            )

    # -- tile extents in elements ---------------------------------------- #

    @property
    def tile_m(self) -> int:
        return self.i_blocks * self.dim

    @property
    def tile_k(self) -> int:
        return self.k_blocks * self.dim

    @property
    def tile_n(self) -> int:
        return self.j_blocks * self.dim

    # -- outer loop trip counts ------------------------------------------- #

    @property
    def outer_i(self) -> int:
        return -(-self.m // self.tile_m)

    @property
    def outer_j(self) -> int:
        return -(-self.n // self.tile_n)

    @property
    def outer_k(self) -> int:
        return -(-self.k // self.tile_k)

    @property
    def total_iterations(self) -> int:
        return self.outer_i * self.outer_j * self.outer_k

    # -- footprints -------------------------------------------------------- #

    def sp_rows_used(self) -> int:
        """Scratchpad rows one iteration's A and B tiles occupy."""
        a_rows = self.i_blocks * self.dim * self.k_blocks
        b_rows = self.k_blocks * self.dim * self.j_blocks
        return a_rows + b_rows

    def acc_rows_used(self) -> int:
        return self.i_blocks * self.dim * self.j_blocks

    def clipped(self, i0: int, j0: int, k0: int) -> tuple[int, int, int]:
        """Actual (m, k, n) extents of the iteration at outer indices."""
        m = min(self.tile_m, self.m - i0 * self.tile_m)
        k = min(self.tile_k, self.k - k0 * self.tile_k)
        n = min(self.tile_n, self.n - j0 * self.tile_n)
        return m, k, n

    # -- serialisation (the schedule cache's record payload) --------------- #

    def to_dict(self) -> dict:
        return {
            "i_blocks": self.i_blocks,
            "j_blocks": self.j_blocks,
            "k_blocks": self.k_blocks,
            "dim": self.dim,
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "loop_order": self.loop_order,
            "double_buffer": self.double_buffer,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatmulTiling":
        return cls(
            i_blocks=int(data["i_blocks"]),
            j_blocks=int(data["j_blocks"]),
            k_blocks=int(data["k_blocks"]),
            dim=int(data["dim"]),
            m=int(data["m"]),
            k=int(data["k"]),
            n=int(data["n"]),
            loop_order=str(data.get("loop_order", "ijk")),
            double_buffer=bool(data.get("double_buffer", True)),
        )


def fits_budgets(params: SoftwareParams, tiling: MatmulTiling) -> bool:
    """Whether a tiling's footprint fits the memories under its own
    buffering mode (half of each memory when double-buffered)."""
    div = 2 if tiling.double_buffer else 1
    return (
        tiling.sp_rows_used() <= params.sp_rows // div
        and tiling.acc_rows_used() <= params.acc_rows // div
    )


@lru_cache(maxsize=4096)
def plan_matmul_tiling(
    params: SoftwareParams,
    m: int,
    k: int,
    n: int,
) -> MatmulTiling:
    """Choose tile sizes that maximise scratchpad use (Gemmini heuristic).

    Grows (i, j, k) block counts round-robin — favouring the dimensions that
    increase arithmetic intensity — while the footprint fits half of the
    scratchpad and accumulator: the greedy plan is always double-buffered
    (single-buffered tilings come from the tuner's
    :func:`~repro.sw.tune.enumerate_tilings`).

    Memoized per (params, m, k, n): the planner is pure,
    ``SoftwareParams`` is frozen, and the same layer shapes recur on every
    run, so within a process each plan is computed once.
    """
    if min(m, k, n) < 1:
        raise ValueError("matmul dimensions must be >= 1")
    dim = params.dim
    sp_budget = params.sp_rows // 2
    acc_budget = params.acc_rows // 2

    # Full extents in blocks (never grow beyond the actual matrix).
    max_i = -(-m // dim)
    max_j = -(-n // dim)
    max_k = -(-k // dim)

    i_blocks = j_blocks = k_blocks = 1

    def fits(i: int, j: int, kk: int) -> bool:
        sp_rows = (i * kk + kk * j) * dim
        acc_rows = i * j * dim
        return sp_rows <= sp_budget and acc_rows <= acc_budget

    if not fits(1, 1, 1):
        raise ValueError(
            f"scratchpad too small for even one {dim}x{dim} tile pair "
            f"(sp_budget={sp_budget} rows)"
        )

    # Greedy round-robin growth: i and j first (they add C reuse), then k.
    progress = True
    while progress:
        progress = False
        for dim_name in ("i", "j", "k"):
            i, j, kk = i_blocks, j_blocks, k_blocks
            if dim_name == "i" and i < max_i and fits(i + 1, j, kk):
                i_blocks += 1
                progress = True
            elif dim_name == "j" and j < max_j and fits(i, j + 1, kk):
                j_blocks += 1
                progress = True
            elif dim_name == "k" and kk < max_k and fits(i, j, kk + 1):
                k_blocks += 1
                progress = True

    return MatmulTiling(
        i_blocks=i_blocks,
        j_blocks=j_blocks,
        k_blocks=k_blocks,
        dim=dim,
        m=m,
        k=k,
        n=n,
    )


def manual_tiling(
    params: SoftwareParams,
    m: int,
    k: int,
    n: int,
    i_blocks: int,
    j_blocks: int,
    k_blocks: int,
    double_buffer: bool = True,
) -> MatmulTiling:
    """Programmer-specified tile sizes (the low-level API escape hatch).

    Raises if the requested tiles do not fit the accelerator's memories.
    """
    tiling = MatmulTiling(
        i_blocks, j_blocks, k_blocks, params.dim, m, k, n,
        double_buffer=double_buffer,
    )
    sp_budget = params.sp_rows // (2 if double_buffer else 1)
    acc_budget = params.acc_rows // (2 if double_buffer else 1)
    if tiling.sp_rows_used() > sp_budget:
        raise ValueError(
            f"manual tiling needs {tiling.sp_rows_used()} scratchpad rows, "
            f"budget is {sp_budget}"
        )
    if tiling.acc_rows_used() > acc_budget:
        raise ValueError(
            f"manual tiling needs {tiling.acc_rows_used()} accumulator rows, "
            f"budget is {acc_budget}"
        )
    return tiling
