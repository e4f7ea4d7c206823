"""Functional backing store for DRAM contents, indexed by virtual address.

The timing models (:mod:`repro.mem.dram`, :mod:`repro.mem.cache`) do not
hold data; this sparse page store does.  Tensors live at virtual addresses
handed out by :class:`~repro.mem.page_table.VirtualMemory`, and the
accelerator's functional executor moves real bytes through here so results
can be checked against NumPy references.  Pages are numpy arrays, built
(and numpy imported) only when a functional model first moves data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

PAGE_BYTES = 4096


class HostMemory:
    """A sparse byte-addressable memory (page-granular allocation)."""

    def __init__(self, page_bytes: int = PAGE_BYTES) -> None:
        self.page_bytes = page_bytes
        self._pages: dict[int, np.ndarray] = {}

    def _page(self, vpn: int) -> np.ndarray:
        page = self._pages.get(vpn)
        if page is None:
            import numpy as np

            page = np.zeros(self.page_bytes, dtype=np.uint8)
            self._pages[vpn] = page
        return page

    # -- raw byte access ------------------------------------------------ #

    def read(self, vaddr: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` as a uint8 array (zero-filled where unwritten)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        import numpy as np

        out = np.empty(nbytes, dtype=np.uint8)
        cursor = 0
        while cursor < nbytes:
            vpn, offset = divmod(vaddr + cursor, self.page_bytes)
            count = min(nbytes - cursor, self.page_bytes - offset)
            out[cursor : cursor + count] = self._page(vpn)[offset : offset + count]
            cursor += count
        return out

    def write(self, vaddr: int, data: np.ndarray) -> None:
        """Write a uint8 array at ``vaddr``."""
        import numpy as np

        data = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        nbytes = data.size
        cursor = 0
        while cursor < nbytes:
            vpn, offset = divmod(vaddr + cursor, self.page_bytes)
            count = min(nbytes - cursor, self.page_bytes - offset)
            self._page(vpn)[offset : offset + count] = data[cursor : cursor + count]
            cursor += count

    # -- typed matrix access ---------------------------------------------- #

    def read_matrix(
        self, vaddr: int, rows: int, cols: int, stride_bytes: int, dtype: np.dtype
    ) -> np.ndarray:
        """Read a strided row-major matrix of ``dtype`` elements."""
        import numpy as np

        elem = np.dtype(dtype).itemsize
        out = np.empty((rows, cols), dtype=dtype)
        for r in range(rows):
            raw = self.read(vaddr + r * stride_bytes, cols * elem)
            out[r] = raw.view(dtype)[:cols]
        return out

    def write_matrix(self, vaddr: int, data: np.ndarray, stride_bytes: int) -> None:
        """Write a 2-D array as strided row-major ``data.dtype`` elements."""
        if data.ndim != 2:
            raise ValueError("write_matrix expects a 2-D array")
        import numpy as np

        for r in range(data.shape[0]):
            self.write(vaddr + r * stride_bytes, np.ascontiguousarray(data[r]).view(np.uint8))
