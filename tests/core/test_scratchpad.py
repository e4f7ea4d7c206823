"""Unit tests for the banked scratchpad."""

import numpy as np
import pytest

from repro.core.scratchpad import Scratchpad


class TestScratchpadFunctional:
    def test_write_read_round_trip(self, small_config, rng):
        sp = Scratchpad(small_config)
        data = rng.integers(-128, 128, size=(8, 4)).astype(np.int8)
        sp.write(0.0, 10, data)
        __, out = sp.read(0.0, 10, 8)
        assert (out == data).all()

    def test_partial_row_zero_pads(self, small_config):
        sp = Scratchpad(small_config)
        data = np.full((2, 2), 7, dtype=np.int8)
        sp.write(0.0, 0, data)
        __, out = sp.read(0.0, 0, 2)
        assert (out[:, :2] == 7).all()
        assert (out[:, 2:] == 0).all()

    def test_cross_bank_access(self, small_config, rng):
        sp = Scratchpad(small_config)
        boundary = sp.bank_rows - 2
        data = rng.integers(-10, 10, size=(4, 4)).astype(np.int8)
        sp.write(0.0, boundary, data)
        __, out = sp.read(0.0, boundary, 4)
        assert (out == data).all()

    def test_out_of_range_rejected(self, small_config):
        sp = Scratchpad(small_config)
        with pytest.raises(IndexError):
            sp.read(0.0, sp.rows - 1, 2)
        with pytest.raises(ValueError):
            sp.read(0.0, 0, 0)

    def test_too_wide_write_rejected(self, small_config):
        sp = Scratchpad(small_config)
        with pytest.raises(ValueError):
            sp.write(0.0, 0, np.zeros((1, 5), dtype=np.int8))

    def test_capacity(self, small_config):
        sp = Scratchpad(small_config)
        assert sp.capacity_bytes() == small_config.sp_capacity_bytes


class TestScratchpadTiming:
    def test_row_per_cycle(self, small_config):
        sp = Scratchpad(small_config)
        end = sp.write(0.0, 0, np.zeros((8, 4), dtype=np.int8))
        assert end == pytest.approx(8.0)

    def test_same_bank_conflicts_serialize(self, small_config):
        sp = Scratchpad(small_config)
        sp.write(0.0, 0, np.zeros((4, 4), dtype=np.int8))
        end = sp.write(0.0, 4, np.zeros((4, 4), dtype=np.int8))
        assert end == pytest.approx(8.0)

    def test_different_banks_parallel(self, small_config):
        sp = Scratchpad(small_config)
        sp.write(0.0, 0, np.zeros((4, 4), dtype=np.int8))
        end = sp.write(0.0, sp.bank_rows, np.zeros((4, 4), dtype=np.int8))
        assert end == pytest.approx(4.0)

    def test_stats_counting(self, small_config):
        sp = Scratchpad(small_config)
        sp.write(0.0, 0, np.zeros((3, 4), dtype=np.int8))
        sp.read(0.0, 0, 2)
        assert sp.stats.value("writes") == 3
        assert sp.stats.value("reads") == 2

    def test_reset(self, small_config):
        sp = Scratchpad(small_config)
        sp.write(0.0, 0, np.ones((1, 4), dtype=np.int8))
        sp.reset()
        __, out = sp.read(0.0, 0, 1)
        assert (out == 0).all()
        assert sp.stats.value("writes") == 0


class TestScratchpadStorage:
    """Row storage is built on first data access and dropped by reset()."""

    def test_fresh_reads_zeros(self, small_config):
        sp = Scratchpad(small_config)
        __, out = sp.read(0.0, 0, sp.rows)
        assert out.shape == (sp.rows, sp.dim)
        assert out.dtype == np.int8
        assert not out.any()

    def test_reads_zeros_after_reset(self, small_config):
        sp = Scratchpad(small_config)
        # Span a bank boundary so every bank holds data before the reset.
        sp.write(0.0, sp.bank_rows - 2, np.full((4, 4), 5, dtype=np.int8))
        sp.reset()
        __, out = sp.read(0.0, 0, sp.rows)
        assert out.shape == (sp.rows, sp.dim)
        assert not out.any()
        sp.write(0.0, 0, np.ones((1, 4), dtype=np.int8))
        __, out = sp.read(0.0, 0, 2)
        assert out.tolist() == [[1, 1, 1, 1], [0, 0, 0, 0]]
