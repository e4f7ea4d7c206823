"""Unit tests for the dispatch policies."""

import pytest

from repro.serve.request import Request
from repro.serve.scheduler import (
    SCHEDULERS,
    BatchScheduler,
    FCFSScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    SJFScheduler,
    make_scheduler,
)

KEY = ("squeezenet", 64, 32)


def req(tenant="t", index=0, arrival=0.0, priority=0, pin=None, model=KEY):
    return Request(
        tenant=tenant,
        index=index,
        model_key=model,
        arrival=arrival,
        priority=priority,
        pin_tile=pin,
    )


def drain(sched, tile=0, now=1e12):
    out = []
    while True:
        picked = sched.pick(tile, now)
        if picked is None:
            return out
        out.append(picked)


class TestFCFS:
    def test_orders_by_arrival(self):
        s = FCFSScheduler()
        for r in (req(index=0, arrival=30.0), req(index=1, arrival=10.0), req(index=2, arrival=20.0)):
            s.add(r)
        assert [r.index for r in drain(s)] == [1, 2, 0]

    def test_tie_breaks_by_tenant_then_index(self):
        s = FCFSScheduler()
        for r in (req(tenant="b", index=0), req(tenant="a", index=1), req(tenant="a", index=0)):
            s.add(r)
        assert [(r.tenant, r.index) for r in drain(s)] == [("a", 0), ("a", 1), ("b", 0)]

    def test_empty_pick_returns_none(self):
        assert FCFSScheduler().pick(0, 0.0) is None


class TestPriority:
    def test_higher_priority_first(self):
        s = PriorityScheduler()
        s.add(req(tenant="lo", arrival=0.0, priority=0))
        s.add(req(tenant="hi", arrival=50.0, priority=3))
        assert drain(s)[0].tenant == "hi"


class TestSJF:
    def test_shortest_estimate_first(self):
        s = SJFScheduler()
        s.bind_tile_costs(lambda r, tile: {"big": 9e6, "small": 1e6}[r.tenant])
        s.add(req(tenant="big", arrival=0.0))
        s.add(req(tenant="small", arrival=5.0))
        assert [r.tenant for r in drain(s)] == ["small", "big"]


class TestDrainAccounting:
    def test_drain_empties_the_queue(self):
        s = FCFSScheduler()
        for i in range(3):
            s.add(req(index=i, arrival=float(i)))
        drained = s.drain()
        assert [r.index for r in drained] == [0, 1, 2]
        assert len(s) == 0 and s.pending == ()
        assert s.drain() == []

    def test_open_batch_counts_in_len_and_pending(self):
        """Regression: requests moved from the queue into an open batch
        vanished from __len__/pending the moment the batch formed."""
        s = BatchScheduler(batch_size=2, window_cycles=100.0)
        s.add(req(index=0, arrival=0.0))
        s.add(req(index=1, arrival=5.0))
        assert len(s) == 2
        first = s.pick(0, now=5.0)  # batch forms; first member dispatched
        assert first.index == 0
        # The second member is staged in the open batch: still pending work.
        assert len(s) == 1
        assert [r.index for r in s.pending] == [1]

    def test_drain_reaches_open_batches(self):
        """Regression: a batch opened on a tile that never picks again must
        surface through drain() so the engine can count it as dropped."""
        s = BatchScheduler(batch_size=3, window_cycles=0.0)
        for i in range(3):
            s.add(req(index=i, arrival=float(i)))
        s.add(req(index=9, arrival=50.0, model=("bert", 64, 16)))
        assert s.pick(0, now=60.0).index == 0  # opens the 3-batch on tile 0
        drained = s.drain()
        assert sorted(r.index for r in drained) == [1, 2, 9]
        assert len(s) == 0 and s.pending == ()


class TestRoundRobin:
    def test_rotates_between_tenants(self):
        s = RoundRobinScheduler()
        for i in range(3):
            s.add(req(tenant="a", index=i, arrival=float(i)))
        for i in range(3):
            s.add(req(tenant="b", index=i, arrival=float(i) + 0.5))
        order = [(r.tenant, r.index) for r in drain(s)]
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]

    def test_single_tenant_degenerates_to_fcfs(self):
        s = RoundRobinScheduler()
        for i in (2, 0, 1):
            s.add(req(index=i, arrival=float(i)))
        assert [r.index for r in drain(s)] == [0, 1, 2]

    def test_drained_tenant_leaves_the_rotation(self):
        """Regression: departed tenants stayed in the rotation forever, so
        long multi-phase traces scanned dead tenants on every pick."""
        s = RoundRobinScheduler()
        s.add(req(tenant="once", index=0, arrival=0.0))
        for i in range(2):
            s.add(req(tenant="steady", index=i, arrival=float(i) + 0.5))
        assert s.pick(0, 10.0).tenant == "once"
        assert s._rotation == ["steady"]  # "once" pruned, order preserved
        assert s.pick(0, 10.0).tenant == "steady"

    def test_tenant_that_drains_and_rearrives_resumes_fairly(self):
        """A drained tenant re-enters at the back of the rotation — the
        exact position a just-served tenant would hold — so fairness and
        determinism survive multi-phase traffic."""
        s = RoundRobinScheduler()
        s.add(req(tenant="a", index=0, arrival=0.0))
        for i in range(3):
            s.add(req(tenant="b", index=i, arrival=float(i)))
        assert [r.tenant for r in (s.pick(0, 99.0), s.pick(0, 99.0))] == ["a", "b"]
        # Phase two: "a" re-arrives after fully draining; it queues behind
        # the just-served "b" and the alternation resumes.
        s.add(req(tenant="a", index=1, arrival=50.0))
        order = [(r.tenant, r.index) for r in drain(s)]
        assert order == [("b", 1), ("a", 1), ("b", 2)]

    def test_pinned_requests_keep_their_tenant_in_rotation(self):
        """A tenant whose remaining work is pinned elsewhere is not
        'departed' — it must keep its rotation slot."""
        s = RoundRobinScheduler()
        s.add(req(tenant="a", index=0, arrival=0.0))
        s.add(req(tenant="a", index=1, arrival=1.0, pin=1))
        assert s.pick(0, 10.0).index == 0
        assert s._rotation == ["a"]
        assert s.pick(1, 10.0).index == 1


class TestPinning:
    def test_pinned_request_only_runs_on_its_tile(self):
        s = FCFSScheduler()
        s.add(req(tenant="pinned", pin=1))
        assert s.pick(0, 0.0) is None
        assert s.pick(1, 0.0).tenant == "pinned"

    def test_unpinned_requests_run_anywhere(self):
        s = FCFSScheduler()
        s.add(req())
        assert s.pick(3, 0.0) is not None


class TestBatch:
    def test_holds_until_batch_fills(self):
        s = BatchScheduler(batch_size=2, window_cycles=100.0)
        s.add(req(index=0, arrival=0.0))
        assert s.pick(0, now=10.0) is None  # one request, window open
        s.add(req(index=1, arrival=20.0))
        assert s.pick(0, now=20.0).index == 0  # batch full: release
        assert s.pick(0, now=20.0).index == 1  # rest of the batch drains
        assert s.pick(0, now=20.0) is None

    def test_window_expiry_releases_partial_batch(self):
        s = BatchScheduler(batch_size=4, window_cycles=100.0)
        s.add(req(index=0, arrival=0.0))
        assert s.pick(0, now=99.0) is None
        assert s.pick(0, now=100.0).index == 0

    def test_wakeup_reports_window_expiry(self):
        s = BatchScheduler(batch_size=4, window_cycles=100.0)
        assert s.wakeup(0, 0.0) is None
        s.add(req(index=0, arrival=40.0))
        assert s.wakeup(0, 50.0) == pytest.approx(140.0)
        # Expired window: pick() would succeed, so there is nothing to
        # wake up for — returning "now" would make idle tiles busy-spin.
        assert s.wakeup(0, 200.0) is None

    def test_wakeup_ignores_requests_pinned_to_other_tiles(self):
        """A tile must not be woken (cycle by cycle!) for work it can
        never pick — the engine falls back to its coarse idle quantum."""
        s = BatchScheduler(batch_size=4, window_cycles=100.0)
        s.add(req(index=0, arrival=0.0, pin=0))
        assert s.wakeup(1, 500.0) is None
        assert s.wakeup(0, 50.0) == pytest.approx(100.0)

    def test_batches_group_same_model_only(self):
        other = ("bert", 64, 16)
        s = BatchScheduler(batch_size=2, window_cycles=1e9)
        s.add(req(index=0, arrival=0.0, model=KEY))
        s.add(req(index=1, arrival=1.0, model=other))
        s.add(req(index=2, arrival=2.0, model=KEY))
        first = s.pick(0, now=2.0)
        second = s.pick(0, now=2.0)
        assert (first.index, second.index) == (0, 2)  # same-model batch

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(batch_size=0)


class TestFactory:
    def test_all_registered(self):
        assert set(SCHEDULERS) == {"fcfs", "priority", "sjf", "rr", "batch"}
        for name in SCHEDULERS:
            assert make_scheduler(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("lifo")

    def test_options_reach_constructor(self):
        sched = make_scheduler("batch", batch_size=8, window_cycles=5.0)
        assert sched.batch_size == 8 and sched.window_cycles == 5.0
