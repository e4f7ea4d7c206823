"""Unit tests for hardware datatypes and rounding shifts."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dtypes import (
    BF16,
    BY_NAME,
    FP32,
    INT8,
    StorageDType,
    dtype_by_name,
    rounding_right_shift,
)


class TestDType:
    def test_int8_bounds(self):
        assert INT8.min_value == -128
        assert INT8.max_value == 127
        assert INT8.bytes == 1

    def test_saturate_clamps(self):
        values = np.array([-1000, -128, 0, 127, 1000], dtype=np.int64)
        out = INT8.saturate(values)
        assert out.dtype == np.int8
        assert list(out) == [-128, -128, 0, 127, 127]

    def test_saturate_rounds(self):
        values = np.array([1.4, 1.5, 2.5, -1.5])
        out = INT8.saturate(values)
        # Round half to even (numpy rint).
        assert list(out) == [1, 2, 2, -2]

    def test_float_saturate_is_cast(self):
        values = np.array([1e30, -1e30])
        out = FP32.saturate(values)
        assert out.dtype == np.float32

    def test_bf16_storage_width(self):
        assert BF16.bytes == 2
        assert BF16.is_float

    def test_lookup_by_name(self):
        assert dtype_by_name("int8") is INT8
        assert dtype_by_name("fp32") is FP32
        with pytest.raises(ValueError):
            dtype_by_name("int7")


class TestStorageDType:
    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_reads_as_the_numpy_dtype(self, name):
        handle = BY_NAME[name].np_dtype
        # repr feeds config hashes: it must be numpy's own.
        assert repr(handle) == repr(handle.dtype)
        assert np.dtype(handle) == handle.dtype
        assert np.zeros(2, dtype=handle).dtype == handle.dtype
        assert handle.dtype == handle and handle == handle.dtype

    def test_equality_and_hash_by_name(self):
        assert StorageDType("int8") == INT8.np_dtype
        assert hash(StorageDType("int8")) == hash(INT8.np_dtype)
        assert StorageDType("int8") != StorageDType("int32")
        assert FP32.np_dtype == BF16.np_dtype

    def test_pickle_round_trip(self):
        for dtype in BY_NAME.values():
            assert pickle.loads(pickle.dumps(dtype)) == dtype


class TestRoundingShift:
    def test_zero_shift_identity(self):
        values = np.array([1, 2, 3])
        assert rounding_right_shift(values, 0) is values

    def test_simple_shift(self):
        values = np.array([4, 8, 12], dtype=np.int64)
        assert list(rounding_right_shift(values, 2)) == [1, 2, 3]

    def test_round_half_to_even(self):
        # 2 >> 2 = 0.5 -> rounds to 0 (even); 6 >> 2 = 1.5 -> rounds to 2.
        values = np.array([2, 6], dtype=np.int64)
        assert list(rounding_right_shift(values, 2)) == [0, 2]

    def test_above_half_rounds_up(self):
        values = np.array([3], dtype=np.int64)  # 0.75 -> 1
        assert list(rounding_right_shift(values, 2)) == [1]

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            rounding_right_shift(np.array([1]), -1)

    @given(
        st.lists(st.integers(min_value=-(1 << 30), max_value=1 << 30), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=16),
    )
    def test_shift_matches_true_division_within_half(self, values, shift):
        array = np.array(values, dtype=np.int64)
        out = rounding_right_shift(array, shift)
        exact = array / (1 << shift)
        assert np.all(np.abs(out - exact) <= 0.5 + 1e-9)
