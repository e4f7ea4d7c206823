"""Unit tests for the functional host-memory store."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.host_memory import HostMemory


class TestHostMemory:
    def test_unwritten_reads_zero(self):
        hm = HostMemory()
        assert (hm.read(0x5000, 16) == 0).all()

    def test_write_read_round_trip(self):
        hm = HostMemory()
        data = np.arange(32, dtype=np.uint8)
        hm.write(0x1000, data)
        assert (hm.read(0x1000, 32) == data).all()

    def test_cross_page_write(self):
        hm = HostMemory(page_bytes=4096)
        data = np.arange(100, dtype=np.uint8)
        hm.write(4096 - 50, data)
        assert (hm.read(4096 - 50, 100) == data).all()
        assert len(hm._pages) == 2

    def test_matrix_round_trip_int8(self):
        hm = HostMemory()
        mat = np.arange(12, dtype=np.int8).reshape(3, 4)
        hm.write_matrix(0x2000, mat, stride_bytes=16)
        out = hm.read_matrix(0x2000, 3, 4, 16, np.int8)
        assert (out == mat).all()

    def test_matrix_round_trip_int32(self):
        hm = HostMemory()
        mat = np.arange(6, dtype=np.int32).reshape(2, 3) * 1000
        hm.write_matrix(0x3000, mat, stride_bytes=64)
        out = hm.read_matrix(0x3000, 2, 3, 64, np.int32)
        assert (out == mat).all()

    def test_strided_rows_do_not_clobber(self):
        hm = HostMemory()
        a = np.full((2, 4), 7, dtype=np.int8)
        hm.write_matrix(0x100, a, stride_bytes=8)
        # Bytes between rows untouched.
        gap = hm.read(0x104, 4)
        assert (gap == 0).all()

    def test_negative_read_rejected(self):
        hm = HostMemory()
        with pytest.raises(ValueError):
            hm.read(0, -1)

    def test_write_matrix_requires_2d(self):
        hm = HostMemory()
        with pytest.raises(ValueError):
            hm.write_matrix(0, np.zeros(4, dtype=np.int8), 4)

    @given(
        st.integers(min_value=0, max_value=1 << 20),
        st.binary(min_size=1, max_size=300),
    )
    def test_arbitrary_round_trip(self, vaddr, payload):
        hm = HostMemory()
        data = np.frombuffer(payload, dtype=np.uint8)
        hm.write(vaddr, data)
        assert (hm.read(vaddr, len(payload)) == data).all()
