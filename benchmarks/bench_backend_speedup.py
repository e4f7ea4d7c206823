"""Structural simulation: the wavefront against the per-PE reference.

``StructuralMesh.run_ws``/``run_os`` advance the whole array per cycle with
numpy slab operations and must be bitwise-identical to the per-PE
reference loops (``run_ws_reference``/``run_os_reference``) while being at
least an order of magnitude faster on a 32x32 array — the margin that
makes large-array sweeps and the structural-check execution mode
affordable.
"""

import time

import numpy as np

from benchmarks.conftest import once
from repro.core.config import GemminiConfig
from repro.core.spatial_array import StructuralMesh


def _mesh_config(dim: int, tile: int) -> GemminiConfig:
    return GemminiConfig(
        mesh_rows=dim // tile,
        mesh_cols=dim // tile,
        tile_rows=tile,
        tile_cols=tile,
        sp_capacity_bytes=dim * 256,
        sp_banks=1,
        acc_capacity_bytes=dim * 4 * 64,
        acc_banks=1,
    )


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(dim: int = 32) -> list[tuple]:
    """Reference vs wavefront wall time for a dim x dim WS and OS matmul."""
    rng = np.random.default_rng(0xBEEF)
    rows = []
    for tile in (1, dim):
        mesh = StructuralMesh(_mesh_config(dim, tile))
        a = rng.integers(-8, 8, size=(dim, dim))
        b = rng.integers(-8, 8, size=(dim, dim))
        d = rng.integers(-8, 8, size=(dim, dim))

        out_r, cyc_r = mesh.run_ws_reference(a, b, d)
        out_w, cyc_w = mesh.run_ws(a, b, d)
        assert np.array_equal(out_r, out_w) and cyc_r == cyc_w

        # Best-of-N on both sides: the ratio gates CI, so keep scheduler
        # noise out of both the numerator and the denominator.
        t_reference = min(_time(lambda: mesh.run_ws_reference(a, b, d)) for __ in range(2))
        t_wavefront = min(_time(lambda: mesh.run_ws(a, b, d)) for __ in range(3))
        rows.append((f"WS {dim}x{dim} tile {tile}x{tile}", t_reference, t_wavefront))

        t_reference = min(_time(lambda: mesh.run_os_reference(a, b, d)) for __ in range(2))
        t_wavefront = min(_time(lambda: mesh.run_os(a, b, d)) for __ in range(3))
        rows.append((f"OS {dim}x{dim} tile {tile}x{tile}", t_reference, t_wavefront))
    return rows


def test_wavefront_speedup(benchmark, emit):
    rows = once(benchmark, measure)

    from repro.eval.report import format_table

    text = format_table(
        ["simulation", "reference (ms)", "wavefront (ms)", "speedup"],
        [
            (name, f"{ts * 1e3:.1f}", f"{tv * 1e3:.2f}", f"{ts / tv:.1f}x")
            for name, ts, tv in rows
        ],
        title="Structural mesh: per-PE reference vs wavefront",
    )
    emit("backend_speedup", text)

    # Acceptance: a 32x32 structural matmul must be >=10x faster as a wavefront.
    for name, t_reference, t_wavefront in rows:
        assert t_reference / t_wavefront >= 10.0, (
            f"{name}: wavefront only {t_reference / t_wavefront:.1f}x faster"
        )
