"""Heterogeneous (big/little) cluster serving guarantees.

Two contracts layered on top of the homogeneous serving tests:

* **Cost-aware dispatch** — SJF consults each tile's *own* analytic cost
  through the bound per-tile oracle, so on a big/little SoC large-layer
  requests deterministically land on the big tile when both are free.
* **Replay on heterogeneous clusters** — macro-op trace slots are keyed by
  ``(tile config hash, model)``; same-config tiles group under one slot
  but replay strictly per physical tile (traces embed per-asid address
  streams), and pinned-tenant parity tolerances match the homogeneous
  contended contract.
"""

import pytest

from repro.core.config import default_config
from repro.serve import TenantSpec, TrafficProfile, simulate_serving
from repro.serve.cluster import ServingSimulation, estimate_service_cycles
from repro.serve.request import Request
from repro.serve.scheduler import SJFScheduler
from repro.soc import SoCDesign, TileComponent

MODEL = dict(model="squeezenet", input_hw=32)

BIG = default_config().with_geometry(32, 1)
LITTLE = default_config().with_geometry(8, 1)


def tenant(name="t", qps=150.0, n=6, **overrides):
    base = dict(name=name, arrival="poisson", rate_qps=qps, num_requests=n, **MODEL)
    base.update(overrides)
    return TenantSpec(**base)


def big_little(little_count: int = 1) -> SoCDesign:
    return SoCDesign(
        tiles=(
            TileComponent(gemmini=BIG, name="big"),
            TileComponent(gemmini=LITTLE, count=little_count, name="little"),
        ),
        name="big-little",
    )


def request(index, tenant_name, arrival=0.0):
    return Request(
        index=index,
        tenant=tenant_name,
        model_key=("squeezenet", 32, 32),
        arrival=arrival,
    )


class TestPerTileCostOracle:
    def test_unbound_sjf_raises(self):
        sched = SJFScheduler()
        sched.add(request(0, "a"))
        with pytest.raises(RuntimeError, match="no cost oracle"):
            sched.pick(1, now=0.0)

    def test_bound_oracle_reorders_per_tile(self):
        """A job that is short on the big tile can be long on the little
        one — the pick order must flip with the asking tile."""
        sched = SJFScheduler()
        costs = {  # (tenant, tile) -> cycles
            ("fat", 0): 10.0, ("fat", 1): 1000.0,
            ("thin", 0): 20.0, ("thin", 1): 30.0,
        }
        sched.bind_tile_costs(lambda r, tile: costs[(r.tenant, tile)])
        a, b = request(0, "fat"), request(1, "thin")
        sched.add(a)
        sched.add(b)
        assert sched.pick(0, now=0.0) is a  # big tile: fat job is cheapest
        sched.add(a)
        assert sched.pick(1, now=0.0) is b  # little tile: fat job is huge

    def test_cluster_binds_estimates_against_each_tiles_config(self):
        sim = ServingSimulation(
            TrafficProfile(tenants=(tenant("a"),), num_tiles=2, scheduler="sjf", seed=0),
            design=big_little(),
        )
        spec = sim.profile.tenants[0]
        req = request(0, "a")
        assert sim._tile_cost(req, 0) == estimate_service_cycles(spec, BIG)
        assert sim._tile_cost(req, 1) == estimate_service_cycles(spec, LITTLE)
        assert sim._tile_cost(req, 0) < sim._tile_cost(req, 1)


class TestBigLittleRouting:
    def test_sjf_routes_heavy_requests_to_big_tile(self):
        """With every tile idle at arrival, SJF serves each large-layer
        request on the tile where it is cheapest: the big one."""
        profile = TrafficProfile(
            tenants=(tenant("hvy", model="resnet50", qps=2.0, n=4),),
            num_tiles=2,
            scheduler="sjf",
            seed=0,
        )
        result = simulate_serving(profile, design=big_little())
        assert result.completed == 4
        assert {r.tile for r in result.records} == {0}

    def test_routing_is_deterministic(self):
        profile = TrafficProfile(
            tenants=(tenant("hvy", qps=400.0, n=5), tenant("lt", qps=400.0, n=5)),
            num_tiles=3,
            scheduler="sjf",
            seed=7,
        )
        first = simulate_serving(profile, design=big_little(little_count=2))
        second = simulate_serving(profile, design=big_little(little_count=2))
        assert first.records == second.records
        assert first.replayed == second.replayed


class TestHeterogeneousReplay:
    def test_pinned_parity_within_contended_tolerance(self):
        """test_replay.py's contended contract, on a big/little cluster:
        pinned tenants keep placement fixed, so replay drift is purely
        timing and must stay within the documented tolerances."""
        profile = TrafficProfile(
            tenants=(
                tenant("a", slo_ms=15.0, pin_tile=0),
                tenant("b", slo_ms=15.0, pin_tile=1),
            ),
            num_tiles=2,
            seed=0,
        )
        design = big_little()
        base = simulate_serving(profile, design=design, replay=False)
        fast = simulate_serving(profile, design=design, replay=True)
        assert fast.replayed > 0
        assert fast.completed == base.completed
        assert abs(fast.makespan_cycles / base.makespan_cycles - 1) < 0.05
        for name in ("a", "b"):
            tb = base.report.tenant(name)
            tf = fast.report.tenant(name)
            assert abs(tf.mean_ms / tb.mean_ms - 1) < 0.10, f"{name}: mean drifted"
            assert abs(tf.p99_ms / tb.p99_ms - 1) < 0.15, f"{name}: p99 drifted"

    def test_same_config_tiles_replay_per_physical_tile(self):
        """Two little tiles share a config hash (one trace-slot group) but
        traces embed per-asid address streams — replayed traffic must keep
        booking under each tile's own requester identity."""
        profile = TrafficProfile(
            tenants=(tenant("a", pin_tile=1, n=6), tenant("b", pin_tile=2, n=6)),
            num_tiles=3,
            seed=0,
        )
        sim = ServingSimulation(profile, design=big_little(little_count=2))
        assert sim._tile_hashes[1] == sim._tile_hashes[2]
        assert sim._tile_hashes[0] != sim._tile_hashes[1]
        result = sim.run()
        assert result.replayed > 0
        l2_keys = sim.soc.mem.l2.stats.snapshot()
        assert not any("sandbox" in key for key in l2_keys)
        for name in ("gemmini1", "gemmini2"):
            assert l2_keys.get(f"hits_{name}", 0) + l2_keys.get(f"misses_{name}", 0) > 0

