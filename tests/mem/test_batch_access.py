"""Batch-vs-scalar parity for ``TranslationSystem.translate_batch``.

Trace replay re-resolves a contended op's translations through
``translate_batch`` (its physical accesses go through the exact segment
path, ``MemorySystem.access``).  These suites drive the same VPN streams
through one-request ``translate_chain`` calls and the batched call on twin
instances (``translate_chain`` is the reference) and require
identical TLB/filter state, counters and PTW bookings, with end times equal
up to float association.
"""

import random

import numpy as np
import pytest

from repro.mem.tlb import TLBConfig, TranslationSystem
from repro.sim.timeline import Timeline

RTOL = 1e-9


class TestTranslateBatch:
    @pytest.mark.parametrize("filters", [False, True])
    @pytest.mark.parametrize("private,shared", [(16, 128), (4, 0), (0, 32), (0, 0)])
    def test_parity_with_scalar_loop(self, filters, private, shared):
        rng = random.Random(private * 7 + shared + int(filters))
        cfg = TLBConfig(private_entries=private, shared_entries=shared, filter_registers=filters)
        a = TranslationSystem(cfg, ptw=Timeline("a"))
        b = TranslationSystem(cfg, ptw=Timeline("b"))
        n = 400
        now = np.cumsum([rng.random() * 10 for __ in range(n)])
        vpns = np.array([rng.randrange(0, 40) for __ in range(n)])
        vpns[::4] = vpns[0]  # consecutive same-page runs exercise the filters
        wr = np.array([rng.random() < 0.3 for __ in range(n)])
        scalar = np.array(
            [a.translate_chain([t], [int(v)], bool(w))[1][0] for t, v, w in zip(now, vpns, wr)]
        )
        batch = b.translate_batch(now, vpns, wr)
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)
        assert a.stats.snapshot() == b.stats.snapshot()
        assert list(a.private._lru) == list(b.private._lru)
        assert list(a.shared._lru) == list(b.shared._lru)
        assert a._last_vpn == b._last_vpn
        # The miss-rate series carries identical *values* (runs fold at the
        # same window boundaries); only emission timestamps coarsen.
        assert a.miss_window.series.values == b.miss_window.series.values

    def test_shared_ptw_bookings_match(self):
        ptw_a, ptw_b = Timeline("a"), Timeline("b")
        cfg = TLBConfig(private_entries=2, shared_entries=0)
        a = TranslationSystem(cfg, ptw=ptw_a)
        b = TranslationSystem(cfg, ptw=ptw_b)
        vpns = np.arange(50) % 7
        now = np.arange(50, dtype=float) * 5
        wr = np.zeros(50, bool)
        for t, v in zip(now, vpns):
            a.translate_chain([float(t)], [int(v)], False)
        b.translate_batch(now, vpns, wr)
        assert ptw_a.bookings == ptw_b.bookings
        assert ptw_a.next_free == pytest.approx(ptw_b.next_free, rel=RTOL)
