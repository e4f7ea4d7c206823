"""Serving-level guarantees of the trace record/replay fast path.

Two contracts, mirroring the engine's design:

* **Uncontended, single tenant** — the replayed simulation is *bitwise
  identical* to the recording path: same request log, same report, same
  memory-system counters.
* **Contended, multi tenant** — replay re-resolves shared-resource
  interactions per macro-op, so end-to-end metrics track the recording
  path within a documented tolerance (per-tenant mean within 10%, p99
  within 15%, makespan within 5%; observed errors are well under 3%).
"""

from dataclasses import replace

from repro.core.config import default_config
from repro.serve import TenantSpec, TrafficProfile, simulate_serving
from repro.serve.cluster import (
    _SERVICE_CYCLES_MEMO,
    ServingSimulation,
    estimate_service_cycles,
)
from repro.soc.components import SoCDesign
from repro.soc.os_model import OSConfig

MODEL = dict(model="squeezenet", input_hw=32)


def tenant(name="t", qps=150.0, n=6, **overrides):
    base = dict(name=name, arrival="poisson", rate_qps=qps, num_requests=n, **MODEL)
    base.update(overrides)
    return TenantSpec(**base)


class TestSingleTenantBitwiseParity:
    def test_replay_is_bitwise_identical(self):
        profile = TrafficProfile(tenants=(tenant("a", slo_ms=15.0),), num_tiles=1, seed=0)
        base = simulate_serving(profile, replay=False)
        fast = simulate_serving(profile, replay=True)
        assert fast.replayed > 0, "no request ever replayed"
        assert fast.records == base.records
        assert fast.report.overall.summary() == base.report.overall.summary()
        assert fast.makespan_cycles == base.makespan_cycles
        assert fast.l2_miss_rate == base.l2_miss_rate
        assert fast.dram_bytes == base.dram_bytes

    def test_replay_is_deterministic(self):
        profile = TrafficProfile(tenants=(tenant("a"),), num_tiles=1, seed=3)
        first = simulate_serving(profile)
        second = simulate_serving(profile)
        assert first.records == second.records
        assert first.replayed == second.replayed


class TestContendedTolerance:
    def test_two_tenant_metrics_within_tolerance(self):
        profile = TrafficProfile(
            tenants=(
                tenant("a", slo_ms=15.0, pin_tile=0),
                tenant("b", slo_ms=15.0, pin_tile=1),
            ),
            num_tiles=2,
            seed=0,
        )
        base = simulate_serving(profile, replay=False)
        fast = simulate_serving(profile, replay=True)
        assert fast.replayed > 0
        assert fast.completed == base.completed
        assert abs(fast.makespan_cycles / base.makespan_cycles - 1) < 0.05
        for name in ("a", "b"):
            tb = base.report.tenant(name)
            tf = fast.report.tenant(name)
            assert abs(tf.mean_ms / tb.mean_ms - 1) < 0.10, f"{name}: mean drifted"
            assert abs(tf.p99_ms / tb.p99_ms - 1) < 0.15, f"{name}: p99 drifted"

    def test_sandbox_traces_keep_live_requester_keys(self):
        """Sandbox-recorded traces must book per-requester counters under
        the live accelerator names — never phantom '*.sandbox' keys."""
        profile = TrafficProfile(
            tenants=(tenant("a", pin_tile=0), tenant("b", pin_tile=1)),
            num_tiles=2,
            seed=0,
        )
        sim = ServingSimulation(profile, replay=True)
        result = sim.run()
        assert result.replayed > 0
        l2_keys = sim.soc.mem.l2.stats.snapshot()
        bus_keys = sim.soc.mem.bus.stats.snapshot()
        assert not any("sandbox" in key for key in l2_keys)
        assert not any("sandbox" in key for key in bus_keys)
        # Replayed traffic keeps accruing under each tile's own identity.
        for name in ("gemmini0", "gemmini1"):
            assert l2_keys.get(f"hits_{name}", 0) + l2_keys.get(f"misses_{name}", 0) > 0

    def test_same_tile_model_alternation_stays_within_tolerance(self):
        """Two models alternating on ONE tile never share the steady state a
        trace assumes; such replays must re-resolve against live state and
        stay within the contended tolerance."""
        profile = TrafficProfile(
            tenants=(
                tenant("small", n=8),
                tenant("big", n=8, input_hw=64),
            ),
            num_tiles=1,
            seed=0,
        )
        base = simulate_serving(profile, replay=False)
        fast = simulate_serving(profile, replay=True)
        assert fast.completed == base.completed
        assert abs(fast.makespan_cycles / base.makespan_cycles - 1) < 0.05
        for name in ("small", "big"):
            tb = base.report.tenant(name)
            tf = fast.report.tenant(name)
            assert abs(tf.mean_ms / tb.mean_ms - 1) < 0.10, f"{name}: mean drifted"

    def test_contended_replay_still_books_shared_resources(self):
        """Replay must keep pressuring the shared L2/DRAM, or the other
        tile's contention vanishes — DRAM traffic stays comparable."""
        profile = TrafficProfile(
            tenants=(tenant("a", pin_tile=0), tenant("b", pin_tile=1)),
            num_tiles=2,
            seed=0,
        )
        base = simulate_serving(profile, replay=False)
        fast = simulate_serving(profile, replay=True)
        assert fast.dram_bytes > 0
        assert abs(fast.dram_bytes / base.dram_bytes - 1) < 0.10


class TestReplayGating:
    def test_no_replay_forces_generator_path(self):
        profile = TrafficProfile(tenants=(tenant("a"),), num_tiles=1, seed=0)
        result = simulate_serving(profile, replay=False)
        assert result.replayed == 0

    def test_os_model_disables_replay(self):
        """The OS time-slice model is absolute-time dependent; replay must
        not engage."""
        profile = TrafficProfile(tenants=(tenant("a", n=4),), num_tiles=1, seed=0)
        sim = ServingSimulation(profile, design=SoCDesign.homogeneous(os=OSConfig(enabled=True)))
        assert not sim.replay
        result = sim.run()
        assert result.replayed == 0

    def test_replay_flag_surfaces_in_result(self):
        profile = TrafficProfile(tenants=(tenant("a"),), num_tiles=1, seed=0)
        result = simulate_serving(profile, replay=True)
        # 6 requests: cold run, two convergence recordings, three replays.
        assert result.replayed == 3


class TestServiceCycleMemo:
    def test_estimate_is_memoized_per_workload_and_config(self):
        config = default_config()
        spec = tenant("memo-a")
        key = (spec.model, spec.input_hw, spec.seq, config)
        _SERVICE_CYCLES_MEMO.pop(key, None)
        first = estimate_service_cycles(spec, config)
        assert key in _SERVICE_CYCLES_MEMO
        # A different tenant with the same workload hits the same entry.
        other = replace(spec, name="memo-b", rate_qps=1.0)
        assert estimate_service_cycles(other, config) == first

    def test_memo_entries_are_poisoned_free(self):
        """Cache keys include the config: a different design point must not
        reuse another's estimate."""
        spec = tenant("memo-c")
        small = default_config()
        big = replace(small, mesh_rows=32, mesh_cols=32)
        assert estimate_service_cycles(spec, small) != estimate_service_cycles(spec, big)
