"""Integration tests for the serving cluster engine.

Uses squeezenet at 32px — the cheapest zoo workload — so each simulation
stays well under a second while still exercising the full SoC stack
(compiler, runtime, DMA, shared L2/DRAM, TLB).
"""

from dataclasses import replace

import pytest

from repro.serve import (
    ServingSimulation,
    TenantSpec,
    TrafficProfile,
    simulate_serving,
)

MODEL = dict(model="squeezenet", input_hw=32)


def tenant(name="t", qps=150.0, n=4, **overrides):
    base = dict(name=name, arrival="poisson", rate_qps=qps, num_requests=n, **MODEL)
    base.update(overrides)
    return TenantSpec(**base)


@pytest.fixture(scope="module")
def two_tenant_result():
    profile = TrafficProfile(
        tenants=(tenant("a", slo_ms=3.0), tenant("b", slo_ms=3.0)),
        num_tiles=2,
        scheduler="fcfs",
        seed=0,
    )
    return profile, simulate_serving(profile)


class TestBasicExecution:
    def test_every_request_served(self, two_tenant_result):
        profile, result = two_tenant_result
        assert result.completed == profile.total_requests
        assert result.dropped == {}
        assert result.issued == profile.total_requests

    def test_records_are_causal(self, two_tenant_result):
        __, result = two_tenant_result
        for record in result.records:
            assert record.start >= record.arrival
            assert record.finish > record.start
            assert 0 <= record.tile < 2

    def test_indices_are_dense_per_tenant(self, two_tenant_result):
        __, result = two_tenant_result
        for name in ("a", "b"):
            indices = sorted(r.index for r in result.records if r.tenant == name)
            assert indices == list(range(4))

    def test_report_totals_match_records(self, two_tenant_result):
        __, result = two_tenant_result
        report = result.report
        assert report.overall.completed == len(result.records)
        assert report.overall.p99_ms > 0
        assert report.overall.throughput_qps > 0
        assert 0 < report.fairness <= 1.0

    def test_memory_system_saw_traffic(self, two_tenant_result):
        __, result = two_tenant_result
        assert result.dram_bytes > 0
        assert 0 <= result.l2_miss_rate <= 1


class TestDeterminism:
    def test_identical_request_logs_and_quantiles(self, two_tenant_result):
        """The acceptance bar: same seed, same logs, same p50/p95/p99."""
        profile, first = two_tenant_result
        second = simulate_serving(profile)
        assert first.records == second.records
        assert first.report.overall.summary() == second.report.overall.summary()
        for a, b in zip(first.report.tenants, second.report.tenants):
            assert a.summary() == b.summary()

    def test_seed_changes_arrivals(self, two_tenant_result):
        profile, first = two_tenant_result
        other = simulate_serving(profile.with_seed(1))
        assert [r.arrival for r in first.records] != [r.arrival for r in other.records]


class TestContention:
    def test_colocated_p99_strictly_above_isolation(self):
        """Pinned tenants never share a queue, so the co-located p99 rise
        is shared-L2/DRAM/PTW contention — the Fig. 9c mechanism."""
        a = tenant("a", qps=100.0, n=5, pin_tile=0)
        b = tenant("b", qps=100.0, n=5, pin_tile=1)
        iso_a = simulate_serving(
            TrafficProfile(tenants=(replace(a, pin_tile=0),), num_tiles=1, seed=0)
        )
        iso_b = simulate_serving(
            TrafficProfile(tenants=(replace(b, pin_tile=0),), num_tiles=1, seed=0)
        )
        co = simulate_serving(TrafficProfile(tenants=(a, b), num_tiles=2, seed=0))
        # Same seed + per-tenant RNG: the arrival streams are identical.
        assert [r.arrival for r in iso_a.records] == sorted(
            r.arrival for r in co.records if r.tenant == "a"
        )
        assert co.report.tenant("a").p99_ms > iso_a.report.tenant("a").p99_ms
        assert co.report.tenant("b").p99_ms > iso_b.report.tenant("b").p99_ms


class TestSchedulers:
    def test_priority_tenant_sees_lower_queueing(self):
        """On one tile under overload, the high-priority tenant's mean
        queueing delay must beat the low-priority tenant's."""
        hi = tenant("hi", qps=400.0, n=4, priority=5)
        lo = tenant("lo", qps=400.0, n=4, priority=0)
        result = simulate_serving(
            TrafficProfile(tenants=(hi, lo), num_tiles=1, scheduler="priority", seed=2)
        )
        assert result.completed == 8
        assert (
            result.report.tenant("hi").queue_mean_ms
            < result.report.tenant("lo").queue_mean_ms
        )

    def test_sjf_uses_analytic_cost_hints(self):
        sim = ServingSimulation(
            TrafficProfile(tenants=(tenant(),), num_tiles=1, scheduler="sjf", seed=0)
        )
        hint = sim._cost_hint(tenant())
        assert hint > 0

    @pytest.mark.parametrize("policy", ["fcfs", "priority", "sjf", "rr", "batch"])
    def test_every_policy_serves_all(self, policy):
        profile = TrafficProfile(
            tenants=(tenant("a", n=3), tenant("b", n=3)),
            num_tiles=2,
            scheduler=policy,
            seed=1,
        )
        result = simulate_serving(profile)
        assert result.completed == 6, f"{policy} dropped requests"


class TestClosedLoop:
    def test_closed_loop_serves_budget_sequentially(self):
        spec = tenant("cl", arrival="closed", n=4, concurrency=1, think_ms=0.5)
        result = simulate_serving(TrafficProfile(tenants=(spec,), num_tiles=1, seed=0))
        assert result.completed == 4
        records = sorted(result.records, key=lambda r: r.index)
        think_cycles = 0.5e6
        for prev, nxt in zip(records, records[1:]):
            # Each request is issued think_ms after the previous completion.
            assert nxt.arrival == pytest.approx(prev.finish + think_cycles)
            assert nxt.start >= nxt.arrival

    def test_closed_loop_across_tiles(self):
        spec = tenant("cl", arrival="closed", n=6, concurrency=2)
        result = simulate_serving(TrafficProfile(tenants=(spec,), num_tiles=2, seed=0))
        assert result.completed == 6
        assert {r.tile for r in result.records} == {0, 1}


class TestHorizon:
    def test_horizon_drops_late_requests(self):
        spec = tenant("t", qps=2000.0, n=12)
        result = simulate_serving(
            TrafficProfile(tenants=(spec,), num_tiles=1, seed=0, horizon_ms=1.0)
        )
        assert result.completed < 12
        assert result.dropped.get("t", 0) == 12 - result.completed
        assert result.report.tenant("t").dropped == result.dropped["t"]
        # Dropped requests count against the SLO violation rate.
        assert result.report.tenant("t").slo_violation_rate > 0


    def test_stranded_open_batch_counts_as_dropped(self):
        """Regression: requests staged in an open batch on a tile that
        stops picking (horizon cut) must drain into the dropped tally
        instead of silently vanishing inside the scheduler."""
        spec = TenantSpec(
            name="t",
            model="squeezenet",
            input_hw=32,
            arrival="trace",
            trace_ms=(0.0, 0.0, 0.0, 0.0),
            slo_ms=1.0,
        )
        result = simulate_serving(
            TrafficProfile(
                tenants=(spec,),
                num_tiles=1,
                scheduler="batch",
                batch_size=4,
                batch_window_ms=0.0,
                seed=0,
                horizon_ms=0.01,
            )
        )
        # The tile opens the 4-batch at t=0, serves its first member, then
        # hits the horizon with three requests still staged in the batch.
        assert result.completed == 1
        assert result.dropped == {"t": 3}
        assert result.completed + sum(result.dropped.values()) == result.issued
        # Drops surface in the SLO accounting too.
        assert result.report.tenant("t").dropped == 3

    def test_horizon_cut_closed_loop_accounts_consistently(self):
        """A horizon-cut closed loop stops issuing: `issued` must count
        actually-generated requests so issued - completed == dropped."""
        spec = tenant("c", arrival="closed", n=10, concurrency=1)
        result = simulate_serving(
            TrafficProfile(tenants=(spec,), num_tiles=1, seed=0, horizon_ms=0.2)
        )
        assert result.issued < 10
        assert result.issued - result.completed == sum(result.dropped.values())


class TestBatchWithPinnedTenants:
    def test_no_busy_spin_on_ineligible_tiles(self):
        """Batch + pinning: tile 1 has no pickable work, so its idle
        stepping must use the coarse idle quantum, not 1-cycle ticks."""
        profile = TrafficProfile(
            tenants=(tenant("p", n=3, pin_tile=0),),
            num_tiles=2,
            scheduler="batch",
            batch_size=1,
            seed=0,
        )
        sim = ServingSimulation(profile)
        calls = 0
        orig = sim.scheduler.wakeup

        def counting(tile_index, now):
            nonlocal calls
            calls += 1
            return orig(tile_index, now)

        sim.scheduler.wakeup = counting
        result = sim.run()
        assert result.completed == 3
        # Idle stepping is bounded by makespan / idle_quantum plus a few
        # arrival wakeups; a 1-cycle busy-spin would consult the scheduler
        # once per simulated cycle (~10^7 here).
        assert calls < 100 * (result.makespan_cycles / sim.idle_quantum + 10)


class TestBatchProfileOptions:
    def test_profile_batch_knobs_reach_the_scheduler(self):
        profile = TrafficProfile(
            tenants=(tenant(),),
            num_tiles=1,
            scheduler="batch",
            batch_size=2,
            batch_window_ms=0.5,
        )
        sim = ServingSimulation(profile)
        assert sim.scheduler.batch_size == 2
        # ms window converts at the serving SoC's own clock.
        assert sim.scheduler.window_cycles == pytest.approx(0.5 * sim.clock_ghz * 1e6)


class TestMemoryBound:
    def test_peak_state_is_order_inflight_not_total(self):
        # A closed loop with concurrency 2 issues 20 requests but never
        # has more than ~concurrency pending or in flight: the measurable
        # O(in-flight) claim.
        profile = TrafficProfile(
            tenants=(
                TenantSpec(
                    name="loop", arrival="closed", num_requests=20,
                    concurrency=2, think_ms=0.1, **MODEL,
                ),
                TenantSpec(
                    name="web", arrival="poisson", rate_qps=100.0,
                    num_requests=8, **MODEL,
                ),
            ),
            num_tiles=2,
            seed=1,
        )
        result = simulate_serving(profile)
        assert result.completed == result.issued == 28
        assert result.peak_inflight <= profile.num_tiles
        # Streaming admission holds one pre-scheduled arrival per tenant
        # plus follow-ups; far below the 28 issued requests.
        assert result.peak_pending <= 8
        assert result.peak_pending < result.issued // 3

    def test_stream_record_mode_drops_the_request_log(self):
        profile = TrafficProfile(
            tenants=(
                TenantSpec(
                    name="web", arrival="poisson", rate_qps=250.0,
                    num_requests=6, slo_ms=5.0, **MODEL,
                ),
            ),
            num_tiles=1,
            seed=5,
        )
        exact = simulate_serving(profile, record_mode="exact")
        stream = simulate_serving(profile, record_mode="stream")
        assert stream.records == []
        assert stream.completed == exact.completed == 6
        assert stream.issued == exact.issued
        # Counting stats are exact in both modes; quantiles come from the
        # P2 sketch and must land near the exact histogram's.
        s, e = stream.report.overall, exact.report.overall
        assert s.completed == e.completed
        assert s.mean_ms == e.mean_ms
        assert s.goodput_qps == e.goodput_qps
        assert abs(s.p99_ms - e.p99_ms) <= max(0.25 * e.p99_ms, 0.05)


class TestTraceReplay:
    def test_trace_arrivals_are_replayed_exactly(self):
        spec = TenantSpec(
            name="replay",
            model="squeezenet",
            input_hw=32,
            arrival="trace",
            trace_ms=(0.0, 0.25, 0.5),
        )
        result = simulate_serving(TrafficProfile(tenants=(spec,), num_tiles=1, seed=9))
        arrivals = sorted(r.arrival for r in result.records)
        assert arrivals == [0.0, 0.25e6, 0.5e6]
