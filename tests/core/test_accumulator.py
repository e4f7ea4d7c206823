"""Unit tests for the accumulator SRAM and output pipeline."""

import numpy as np
import pytest

from repro.core.accumulator import Accumulator, apply_activation
from repro.core.config import Activation


class TestActivationFunctions:
    def test_none_identity(self):
        values = np.array([-5, 0, 5])
        assert (apply_activation(values, Activation.NONE) == values).all()

    def test_relu(self):
        values = np.array([-5, 0, 5])
        assert list(apply_activation(values, Activation.RELU)) == [0, 0, 5]

    def test_relu6(self):
        values = np.array([-5, 3, 9])
        assert list(apply_activation(values, Activation.RELU6)) == [0, 3, 6]


class TestAccumulatorWrites:
    def test_overwrite(self, small_config, rng):
        acc = Accumulator(small_config)
        data = rng.integers(-1000, 1000, size=(4, 4)).astype(np.int32)
        acc.write(0.0, 0, data, accumulate=False)
        __, out = acc.read_raw(0.0, 0, 4)
        assert (out == data).all()

    def test_accumulate_adds(self, small_config):
        acc = Accumulator(small_config)
        ones = np.ones((2, 4), dtype=np.int32)
        acc.write(0.0, 0, ones * 10, accumulate=False)
        acc.write(0.0, 0, ones * 5, accumulate=True)
        __, out = acc.read_raw(0.0, 0, 2)
        assert (out == 15).all()

    def test_overwrite_clears_tail_columns(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.full((1, 4), 9, dtype=np.int32), accumulate=False)
        acc.write(0.0, 0, np.full((1, 2), 1, dtype=np.int32), accumulate=False)
        __, out = acc.read_raw(0.0, 0, 1)
        assert list(out[0]) == [1, 1, 0, 0]

    def test_bounds_checked(self, small_config):
        acc = Accumulator(small_config)
        with pytest.raises(IndexError):
            acc.write(0.0, acc.rows, np.zeros((1, 4), dtype=np.int32), False)


class TestOutputPipeline:
    def test_scaled_read_saturates_to_input_type(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.array([[1000, -1000, 100, -100]], dtype=np.int32), False)
        __, out = acc.read_scaled(0.0, 0, 1)
        assert out.dtype == np.int8
        assert list(out[0]) == [127, -128, 100, -100]

    def test_shift_then_scale(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.array([[256, 512, -256, 0]], dtype=np.int32), False)
        __, out = acc.read_scaled(0.0, 0, 1, shift=4)
        assert list(out[0]) == [16, 32, -16, 0]

    def test_float_scale(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.array([[100, 200, -100, 50]], dtype=np.int32), False)
        __, out = acc.read_scaled(0.0, 0, 1, scale=0.5)
        assert list(out[0]) == [50, 100, -50, 25]

    def test_relu_in_pipeline(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.array([[-10, 10, -1, 1]], dtype=np.int32), False)
        __, out = acc.read_scaled(0.0, 0, 1, activation=Activation.RELU)
        assert list(out[0]) == [0, 10, 0, 1]

    def test_relu6_clamps_after_scale(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.array([[100, 4, -5, 6]], dtype=np.int32), False)
        __, out = acc.read_scaled(0.0, 0, 1, scale=1.0, activation=Activation.RELU6)
        assert list(out[0]) == [6, 4, 0, 6]

    def test_raw_read_full_width(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.array([[1 << 20, 0, 0, 0]], dtype=np.int32), False)
        __, out = acc.read_raw(0.0, 0, 1)
        assert out.dtype == np.int32
        assert out[0, 0] == 1 << 20


class TestAccumulatorTiming:
    def test_row_per_cycle(self, small_config):
        acc = Accumulator(small_config)
        end = acc.write(0.0, 0, np.zeros((8, 4), dtype=np.int32), False)
        assert end == pytest.approx(8.0)

    def test_bank_parallelism(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.zeros((4, 4), dtype=np.int32), False)
        end = acc.write(0.0, acc.bank_rows, np.zeros((4, 4), dtype=np.int32), False)
        assert end == pytest.approx(4.0)

    def test_stats(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, 0, np.zeros((2, 4), dtype=np.int32), False)
        acc.write(0.0, 0, np.zeros((2, 4), dtype=np.int32), True)
        acc.read_scaled(0.0, 0, 1)
        assert acc.stats.value("writes") == 2
        assert acc.stats.value("accumulates") == 2
        assert acc.stats.value("reads_scaled") == 1


class TestAccumulatorStorage:
    """Row storage is built on first data access and dropped by reset()."""

    def test_fresh_reads_zeros(self, small_config):
        acc = Accumulator(small_config)
        __, raw = acc.read_raw(0.0, 0, acc.rows)
        assert raw.shape == (acc.rows, acc.dim)
        assert raw.dtype == np.int32
        assert not raw.any()
        __, scaled = acc.read_scaled(0.0, 0, acc.rows)
        assert scaled.dtype == np.int8
        assert not scaled.any()

    def test_reads_zeros_after_reset(self, small_config):
        acc = Accumulator(small_config)
        acc.write(0.0, acc.bank_rows - 2, np.full((4, 4), 9, dtype=np.int32), False)
        acc.reset()
        __, raw = acc.read_raw(0.0, 0, acc.rows)
        assert not raw.any()
        # Accumulating after a reset adds onto zeros, not the old contents.
        acc.write(0.0, acc.bank_rows - 2, np.ones((4, 4), dtype=np.int32), True)
        __, raw = acc.read_raw(0.0, acc.bank_rows - 2, 4)
        assert (raw == 1).all()
