"""Peripheral compute blocks: im2col, transposer, pooling, matrix-scalar.

These are the "configurable, peripheral circuitry" of Figure 1.  Each block
has a functional NumPy implementation (bit-accurate with the datapath) plus
a cycle-cost hook used by the performance model.  The im2col unit is the
optional block whose presence/absence drives the host-CPU sensitivity study
of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------- #
# im2col                                                                  #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConvParams:
    """Geometry of a 2-D convolution (single image, channels-last)."""

    in_h: int
    in_w: int
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        if min(self.in_h, self.in_w, self.in_ch, self.out_ch, self.kernel) < 1:
            raise ValueError("conv dimensions must be >= 1")
        if self.stride < 1 or self.padding < 0:
            raise ValueError("invalid stride/padding")
        if self.out_h < 1 or self.out_w < 1:
            raise ValueError("convolution output would be empty")

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def patch_size(self) -> int:
        """K dimension of the im2col matmul: kernel*kernel*in_ch."""
        return self.kernel * self.kernel * self.in_ch

    @property
    def num_patches(self) -> int:
        """M dimension of the im2col matmul: out_h*out_w."""
        return self.out_h * self.out_w

    @property
    def macs(self) -> int:
        return self.num_patches * self.patch_size * self.out_ch


def im2col(image: np.ndarray, params: ConvParams) -> np.ndarray:
    """Lower a convolution input to a patch matrix.

    ``image`` is (H, W, C) channels-last.  Returns
    (out_h*out_w, kernel*kernel*C), with zero padding applied, matching what
    the on-the-fly im2col block feeds the spatial array.
    """
    if image.shape != (params.in_h, params.in_w, params.in_ch):
        raise ValueError(
            f"image shape {image.shape} does not match conv params "
            f"({params.in_h}, {params.in_w}, {params.in_ch})"
        )
    import numpy as np

    k, s, p = params.kernel, params.stride, params.padding
    padded = np.pad(image, ((p, p), (p, p), (0, 0)))
    rows = np.empty((params.num_patches, params.patch_size), dtype=image.dtype)
    index = 0
    for oy in range(params.out_h):
        for ox in range(params.out_w):
            patch = padded[oy * s : oy * s + k, ox * s : ox * s + k, :]
            rows[index] = patch.reshape(-1)
            index += 1
    return rows


def conv_reference(
    image: np.ndarray, weights: np.ndarray, params: ConvParams
) -> np.ndarray:
    """Direct convolution reference (float64 accumulate).

    ``weights`` is (kernel*kernel*in_ch, out_ch); returns
    (out_h, out_w, out_ch).
    """
    import numpy as np

    patches = im2col(image, params).astype(np.float64)
    out = patches @ weights.astype(np.float64)
    return out.reshape(params.out_h, params.out_w, params.out_ch)


class Im2colUnit:
    """The optional on-the-fly im2col block.

    When present, convolution inputs are lowered as they stream from the
    scratchpad to the array, emitting one patch row per cycle — so the
    lowering is fully hidden behind the array's own row-per-cycle intake and
    the host CPU never touches the data.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def patch_rows_cycles(self, num_rows: int) -> int:
        """Cycles to emit ``num_rows`` patch rows (one per cycle)."""
        return max(1, num_rows)


# ---------------------------------------------------------------------- #
# Transposer                                                              #
# ---------------------------------------------------------------------- #


class Transposer:
    """A DIM x DIM in-flight transposer (needed by OS dataflow for A^T)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def transpose(self, block: np.ndarray) -> np.ndarray:
        if block.ndim != 2:
            raise ValueError("transpose expects a 2-D block")
        import numpy as np

        return np.ascontiguousarray(block.T)

    def cycles(self) -> int:
        """Cycles to rotate one block through the transposer array."""
        return self.dim


# ---------------------------------------------------------------------- #
# Pooling engine                                                          #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class PoolParams:
    size: int
    stride: int
    in_h: int
    in_w: int

    def __post_init__(self) -> None:
        if self.size < 1 or self.stride < 1:
            raise ValueError("pool size/stride must be >= 1")
        if self.out_h < 1 or self.out_w < 1:
            raise ValueError("pool output would be empty")

    @property
    def out_h(self) -> int:
        return (self.in_h - self.size) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w - self.size) // self.stride + 1


class PoolingEngine:
    """Max pooling fused into MVOUT (the paper's pooling block)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def max_pool(self, image: np.ndarray, params: PoolParams) -> np.ndarray:
        """``image`` is (H, W, C); returns (out_h, out_w, C)."""
        if image.shape[0] != params.in_h or image.shape[1] != params.in_w:
            raise ValueError("image does not match pool params")
        import numpy as np

        out = np.empty(
            (params.out_h, params.out_w, image.shape[2]), dtype=image.dtype
        )
        s, k = params.stride, params.size
        for oy in range(params.out_h):
            for ox in range(params.out_w):
                window = image[oy * s : oy * s + k, ox * s : ox * s + k, :]
                out[oy, ox] = window.max(axis=(0, 1))
        return out

    def cycles(self, params: PoolParams, channels: int) -> int:
        """One comparison lane per output element per DIM channels."""
        blocks = -(-channels // self.dim)
        return params.out_h * params.out_w * params.size * params.size * blocks


# ---------------------------------------------------------------------- #
# Matrix-scalar multiplier                                                #
# ---------------------------------------------------------------------- #


class MatrixScalarUnit:
    """Scales matrices by a scalar during MVIN (Figure 1's MSM block)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def scale(self, block: np.ndarray, scalar: float, out_dtype) -> np.ndarray:
        import numpy as np

        scaled = block.astype(np.float64) * scalar
        return out_dtype.saturate(scaled)

    def cycles(self, rows: int) -> int:
        return max(1, rows)
