"""The accumulator SRAM: wide partial sums plus the output pipeline.

Accumulator rows hold ``DIM`` elements at accumulator precision (e.g. int32
for an int8 datapath).  Writes may *accumulate* into existing contents
(the '+=' the spatial array's partial results need); reads pass through the
output pipeline — scaling (floating multiplier or rounding right-shift),
activation (ReLU/ReLU6), and a saturating cast down to the input type.

Like the scratchpad's, the row storage is allocated on first data access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import Activation, GemminiConfig
from repro.core.dtypes import rounding_right_shift
from repro.sim.stats import StatsRegistry
from repro.sim.timeline import Timeline

if TYPE_CHECKING:
    import numpy as np


def apply_activation(values: np.ndarray, activation: Activation) -> np.ndarray:
    """Apply an activation function at accumulator precision."""
    if activation is Activation.NONE:
        return values
    import numpy as np

    if activation is Activation.RELU:
        return np.maximum(values, 0)
    if activation is Activation.RELU6:
        return np.clip(values, 0, 6)
    raise ValueError(f"unknown activation {activation!r}")


class Accumulator:
    """Banked accumulator SRAM with an accumulate port and output pipeline."""

    def __init__(self, config: GemminiConfig, name: str = "acc") -> None:
        self.config = config
        self.name = name
        self.rows = config.acc_rows
        self.bank_rows = config.acc_bank_rows
        self.num_banks = config.acc_banks
        self.dim = config.dim
        self._dtype = config.acc_type.np_dtype
        self._banks = None
        self.ports = [Timeline(f"{name}.bank{i}") for i in range(self.num_banks)]
        self.stats = StatsRegistry(owner=name)

    @property
    def banks(self) -> list:
        """Per-bank row storage, zero-filled on first access."""
        if self._banks is None:
            import numpy as np

            self._banks = [
                np.zeros((self.bank_rows, self.dim), dtype=self._dtype)
                for _ in range(self.num_banks)
            ]
        return self._banks

    # ------------------------------------------------------------------ #

    def _check_range(self, row: int, nrows: int) -> None:
        if nrows <= 0:
            raise ValueError("nrows must be positive")
        if row < 0 or row + nrows > self.rows:
            raise IndexError(
                f"accumulator rows [{row}, {row + nrows}) out of range 0..{self.rows}"
            )

    def _bank_spans(self, row: int, nrows: int):
        spans = []
        while nrows > 0:
            bank = row // self.bank_rows
            offset = row % self.bank_rows
            count = min(nrows, self.bank_rows - offset)
            spans.append((bank, offset, count))
            row += count
            nrows -= count
        return spans

    # ------------------------------------------------------------------ #

    def write(self, now: float, row: int, data: np.ndarray, accumulate: bool) -> float:
        """Write or accumulate ``data`` (nrows x <=DIM) starting at ``row``."""
        nrows = data.shape[0]
        self._check_range(row, nrows)
        if data.ndim != 2 or data.shape[1] > self.dim:
            raise ValueError(f"data shape {data.shape} exceeds row width {self.dim}")
        self.stats.counter("accumulates" if accumulate else "writes").add(nrows)
        cols = data.shape[1]
        data = data.astype(self._dtype, copy=False)
        banks = self.banks
        end = now
        cursor = 0
        for bank, offset, count in self._bank_spans(row, nrows):
            __, bank_end = self.ports[bank].book(now, count)
            end = max(end, bank_end)
            target = banks[bank][offset : offset + count]
            chunk = data[cursor : cursor + count]
            if accumulate:
                target[:, :cols] += chunk
            else:
                target[:, :cols] = chunk
                if cols < self.dim:
                    target[:, cols:] = 0
            cursor += count
        return end

    def read_raw(self, now: float, row: int, nrows: int) -> tuple[float, np.ndarray]:
        """Read full-precision accumulator contents (MVOUT with read_full)."""
        self._check_range(row, nrows)
        self.stats.counter("reads_full").add(nrows)
        return self._read(now, row, nrows)

    def read_scaled(
        self,
        now: float,
        row: int,
        nrows: int,
        scale: float = 1.0,
        shift: int = 0,
        activation: Activation = Activation.NONE,
    ) -> tuple[float, np.ndarray]:
        """Read through the output pipeline: scale, activate, saturate.

        Integer datapaths apply the rounding right ``shift`` then the
        floating ``scale``; float datapaths apply only ``scale``.  The result
        is saturated/cast to the input type.
        """
        import numpy as np

        self._check_range(row, nrows)
        self.stats.counter("reads_scaled").add(nrows)
        end, raw = self._read(now, row, nrows)
        values = raw.astype(np.float64) if self.config.input_type.is_float else raw
        if not self.config.input_type.is_float and shift:
            values = rounding_right_shift(values, shift)
        if scale != 1.0:
            values = values * scale
        values = apply_activation(values, activation)
        return end, self.config.input_type.saturate(np.asarray(values))

    def _read(self, now: float, row: int, nrows: int) -> tuple[float, np.ndarray]:
        banks = self.banks
        pieces = []
        end = now
        for bank, offset, count in self._bank_spans(row, nrows):
            __, bank_end = self.ports[bank].book(now, count)
            end = max(end, bank_end)
            pieces.append(banks[bank][offset : offset + count])
        if len(pieces) == 1:
            return end, pieces[0].copy()
        import numpy as np

        return end, np.concatenate(pieces, axis=0)

    # ------------------------------------------------------------------ #

    def capacity_bytes(self) -> int:
        return self.rows * self.config.acc_row_bytes

    def reset(self) -> None:
        self._banks = None
        for port in self.ports:
            port.reset()
        self.stats.reset()
