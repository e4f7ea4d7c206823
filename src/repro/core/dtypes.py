"""Element datatypes supported by the architectural template.

The paper differentiates Gemmini from prior generators by supporting *both*
floating- and fixed-point datatypes (Table I).  Each :class:`DType` couples a
NumPy storage dtype with saturation bounds so functional models can implement
hardware-accurate saturating arithmetic.

Only functional models build arrays, so numpy is imported on first use:
timing-only runs never load it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


def is_array(value) -> bool:
    """Whether ``value`` is a numpy array, without importing numpy: an
    array can only exist once numpy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


class StorageDType:
    """A NumPy storage dtype named before numpy is imported.

    NumPy accepts it wherever a dtype is expected (through :attr:`dtype`),
    and its ``repr`` is the dtype's own, so config hashes read the same
    whether or not numpy is loaded.  Equality and hashing go by name.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def dtype(self):
        import numpy as np

        return np.dtype(self.name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StorageDType):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"dtype({self.name!r})"


@dataclass(frozen=True)
class DType:
    """A hardware element type."""

    name: str
    bits: int
    np_dtype: StorageDType
    is_float: bool

    @property
    def bytes(self) -> int:
        return self.bits // 8

    @property
    def min_value(self) -> float:
        import numpy as np

        if self.is_float:
            return float(np.finfo(self.np_dtype.dtype).min)
        return float(np.iinfo(self.np_dtype.dtype).min)

    @property
    def max_value(self) -> float:
        import numpy as np

        if self.is_float:
            return float(np.finfo(self.np_dtype.dtype).max)
        return float(np.iinfo(self.np_dtype.dtype).max)

    def saturate(self, values):
        """Clamp ``values`` into this type's range and cast (hardware cast)."""
        import numpy as np

        if self.is_float:
            return values.astype(self.np_dtype.dtype)
        clipped = np.clip(values, self.min_value, self.max_value)
        return np.rint(clipped).astype(self.np_dtype.dtype)

    def __str__(self) -> str:
        return self.name


INT8 = DType("int8", 8, StorageDType("int8"), False)
INT16 = DType("int16", 16, StorageDType("int16"), False)
INT32 = DType("int32", 32, StorageDType("int32"), False)
FP32 = DType("fp32", 32, StorageDType("float32"), True)
# BF16 storage is emulated with float32 arithmetic; only the storage *width*
# (2 bytes) differs, which is what the area and bandwidth models consume.
BF16 = DType("bf16", 16, StorageDType("float32"), True)

BY_NAME = {t.name: t for t in (INT8, INT16, INT32, FP32, BF16)}


def dtype_by_name(name: str) -> DType:
    try:
        return BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown dtype {name!r}; known: {sorted(BY_NAME)}") from None


def rounding_right_shift(values, shift: int):
    """Round-to-nearest-even right shift, as Gemmini's output scaling does.

    Operates on integer arrays; ``shift == 0`` is the identity.
    """
    if shift < 0:
        raise ValueError("shift must be non-negative")
    if shift == 0:
        return values
    import numpy as np

    values = values.astype(np.int64)
    half = np.int64(1) << (shift - 1)
    mask = (np.int64(1) << shift) - 1
    quotient = values >> shift
    remainder = values & mask
    round_up = (remainder > half) | ((remainder == half) & ((quotient & 1) == 1))
    return quotient + round_up.astype(np.int64)
