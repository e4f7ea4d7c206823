"""The accelerator's private, explicitly managed scratchpad.

A banked SRAM array of rows, each row holding ``DIM`` input-type elements.
Banks serve one row per cycle each, so concurrent streams (DMA fill vs
array read) only conflict when they target the same bank — the behaviour
that makes double-buffered tilings overlap cleanly.

The row storage is allocated on first data access, so a timing-only run
(which never moves data through the SRAM) never imports numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import GemminiConfig
from repro.sim.stats import StatsRegistry
from repro.sim.timeline import Timeline

if TYPE_CHECKING:
    import numpy as np


class Scratchpad:
    """Banked scratchpad SRAM (functional storage + per-bank port timing)."""

    def __init__(self, config: GemminiConfig, name: str = "spad") -> None:
        self.config = config
        self.name = name
        self.rows = config.sp_rows
        self.bank_rows = config.sp_bank_rows
        self.num_banks = config.sp_banks
        self.dim = config.dim
        self._dtype = config.input_type.np_dtype
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
                f"scratchpad rows [{row}, {row + nrows}) out of range 0..{self.rows}"
            )

    def _bank_spans(self, row: int, nrows: int):
        """Split a row range into (bank, first_row_in_bank, count) spans."""
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

    def read(self, now: float, row: int, nrows: int) -> tuple[float, np.ndarray]:
        """Read ``nrows`` rows starting at ``row``; one row per bank-cycle."""
        self._check_range(row, nrows)
        self.stats.counter("reads").add(nrows)
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

    def write(self, now: float, row: int, data: np.ndarray) -> float:
        """Write ``data`` (nrows x <=DIM) starting at ``row``."""
        nrows = data.shape[0]
        self._check_range(row, nrows)
        if data.ndim != 2 or data.shape[1] > self.dim:
            raise ValueError(f"data shape {data.shape} exceeds row width {self.dim}")
        self.stats.counter("writes").add(nrows)
        cols = data.shape[1]
        banks = self.banks
        end = now
        cursor = 0
        for bank, offset, count in self._bank_spans(row, nrows):
            __, bank_end = self.ports[bank].book(now, count)
            end = max(end, bank_end)
            target = banks[bank][offset : offset + count]
            target[:, :cols] = data[cursor : cursor + count]
            if cols < self.dim:
                target[:, cols:] = 0
            cursor += count
        return end

    # ------------------------------------------------------------------ #

    def capacity_bytes(self) -> int:
        return self.rows * self.config.sp_row_bytes

    def reset(self) -> None:
        self._banks = None
        for port in self.ports:
            port.reset()
        self.stats.reset()
