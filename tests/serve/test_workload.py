"""Unit tests for tenant specs, traffic profiles and arrival sources."""

import json

import pytest

from repro.serve.workload import (
    ClosedLoopSource,
    OpenLoopSource,
    TenantSpec,
    TrafficProfile,
    load_trace_profile,
    make_source,
    parse_tenant,
    requests_for,
)


def poisson_tenant(**overrides):
    base = dict(
        name="t", model="squeezenet", arrival="poisson", rate_qps=100.0, num_requests=8
    )
    base.update(overrides)
    return TenantSpec(**base)


class TestTenantSpec:
    def test_defaults_validate(self):
        spec = poisson_tenant()
        assert spec.model_key == ("squeezenet", 64, 32)
        assert spec.total_requests == 8

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            poisson_tenant(arrival="uniform")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_qps"):
            poisson_tenant(rate_qps=0.0)

    def test_trace_needs_times(self):
        with pytest.raises(ValueError, match="trace"):
            poisson_tenant(arrival="trace")

    def test_trace_counts_its_times(self):
        spec = poisson_tenant(arrival="trace", trace_ms=(0.0, 1.0, 2.5))
        assert spec.total_requests == 3

    def test_bad_slo_rejected(self):
        with pytest.raises(ValueError, match="slo_ms"):
            poisson_tenant(slo_ms=-1.0)

    def test_negative_trace_offsets_rejected(self):
        with pytest.raises(ValueError, match="trace_ms"):
            poisson_tenant(arrival="trace", trace_ms=(-5.0, 0.0))

    def test_negative_think_time_rejected(self):
        with pytest.raises(ValueError, match="think_ms"):
            poisson_tenant(arrival="closed", think_ms=-1.0)


class TestTrafficProfile:
    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrafficProfile(tenants=(poisson_tenant(), poisson_tenant()))

    def test_pin_outside_cluster_rejected(self):
        # The profile checks a pin's sign; the tile count is the serving
        # design's, so the upper end is checked against a given count.
        with pytest.raises(ValueError, match="pinned"):
            TrafficProfile(tenants=(poisson_tenant(pin_tile=-1),))
        profile = TrafficProfile(tenants=(poisson_tenant(pin_tile=2),), num_tiles=2)
        profile.check_pins(3)
        with pytest.raises(ValueError, match="pinned"):
            profile.check_pins(2)

    def test_total_requests(self):
        profile = TrafficProfile(
            tenants=(poisson_tenant(name="a"), poisson_tenant(name="b", num_requests=3))
        )
        assert profile.total_requests == 11

    def test_hashable_for_cache_keys(self):
        a = TrafficProfile(tenants=(poisson_tenant(),), seed=1)
        b = TrafficProfile(tenants=(poisson_tenant(),), seed=1)
        assert hash(a) == hash(b) and a == b


def drain(source):
    """Every remaining pre-scheduled arrival of ``source``, in order."""
    return list(iter(source.next_arrival, None))


class TestArrivalSources:
    def test_poisson_is_sorted_positive_and_seeded(self):
        spec = poisson_tenant()
        t1 = drain(make_source(spec, seed=0, clock_ghz=1.0))
        t2 = drain(make_source(spec, seed=0, clock_ghz=1.0))
        t3 = drain(make_source(spec, seed=1, clock_ghz=1.0))
        assert t1 == t2
        assert t1 != t3
        assert len(t1) == spec.num_requests
        assert all(t > 0 for t in t1)
        assert t1 == sorted(t1)

    def test_poisson_mean_rate_roughly_matches(self):
        spec = poisson_tenant(rate_qps=1000.0, num_requests=400)
        times = drain(make_source(spec, seed=0, clock_ghz=1.0))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1e6, rel=0.25)  # 1ms at 1 GHz

    def test_tenant_streams_are_independent(self):
        """A tenant's arrivals depend only on (seed, its own name)."""
        a = drain(make_source(poisson_tenant(name="a"), seed=0, clock_ghz=1.0))
        a_again = drain(make_source(poisson_tenant(name="a"), seed=0, clock_ghz=1.0))
        b = drain(make_source(poisson_tenant(name="b"), seed=0, clock_ghz=1.0))
        assert a == a_again
        assert a != b

    def test_bursty_avoids_off_phases(self):
        spec = poisson_tenant(
            arrival="bursty", rate_qps=2000.0, num_requests=64, burst_on_ms=1.0, burst_off_ms=9.0
        )
        times = drain(make_source(spec, seed=3, clock_ghz=1.0))
        period = 10.0e6  # cycles at 1 GHz
        assert all((t % period) <= 1.0e6 for t in times), "arrival landed in an off phase"
        assert times == sorted(times)

    def test_trace_times_scale_with_clock(self):
        spec = poisson_tenant(arrival="trace", trace_ms=(1.0, 2.0))
        assert drain(make_source(spec, 0, clock_ghz=2.0)) == [2e6, 4e6]

    def test_closed_loop_issues_on_completion(self):
        spec = poisson_tenant(arrival="closed", num_requests=4, concurrency=2, think_ms=1.0)
        source = make_source(spec, seed=0, clock_ghz=1.0)
        assert isinstance(source, ClosedLoopSource)
        assert drain(source) == [0.0, 0.0]
        assert source.next_after_completion(5e6) == pytest.approx(6e6)
        assert source.next_after_completion(7e6) == pytest.approx(8e6)
        assert source.next_after_completion(9e6) is None  # budget spent

    def test_open_loop_never_reissues(self):
        source = make_source(poisson_tenant(), seed=0, clock_ghz=1.0)
        assert isinstance(source, OpenLoopSource)
        assert source.next_after_completion(1e6) is None

    def test_streamed_pulls_match_materialised_list(self):
        spec = poisson_tenant(num_requests=6)
        streamed = make_source(spec, seed=0, clock_ghz=1.0)
        pulls = [streamed.next_arrival() for _ in range(6)]
        assert streamed.next_arrival() is None
        assert pulls == drain(make_source(spec, seed=0, clock_ghz=1.0))
        assert streamed.remaining_initial == 0
        assert streamed.issued == 6

    def test_issued_counts_follow_ups(self):
        spec = poisson_tenant(arrival="closed", num_requests=4, concurrency=2, think_ms=1.0)
        source = make_source(spec, seed=0, clock_ghz=1.0)
        assert source.issued == 2  # the pre-scheduled stream exists statically
        source.next_after_completion(1e6)
        assert source.issued == 3


class TestRequestsFor:
    def test_wraps_times_with_slo_and_hints(self):
        spec = poisson_tenant(slo_ms=10.0, priority=2, pin_tile=None)
        reqs = requests_for(spec, [100.0, 200.0], start_index=5, clock_ghz=1.0)
        assert [r.index for r in reqs] == [5, 6]
        assert all(r.slo_cycles == pytest.approx(10.0e6) for r in reqs)
        assert all(r.priority == 2 for r in reqs)


class TestParsing:
    def test_parse_tenant_round_trip(self):
        spec = parse_tenant(
            "model=resnet50,qps=40,requests=12,arrival=bursty,priority=1,"
            "slo_ms=50,input_hw=96,pin_tile=0"
        )
        assert spec.model == "resnet50"
        assert spec.rate_qps == 40.0
        assert spec.num_requests == 12
        assert spec.arrival == "bursty"
        assert spec.priority == 1
        assert spec.slo_ms == 50.0
        assert spec.input_hw == 96
        assert spec.pin_tile == 0

    def test_parse_tenant_defaults_name_to_model(self):
        assert parse_tenant("model=bert").name == "bert"
        assert parse_tenant("model=bert", default_name="x").name == "x"

    def test_parse_tenant_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown tenant field"):
            parse_tenant("model=bert,qqs=4")

    def test_parse_tenant_needs_model(self):
        with pytest.raises(ValueError, match="model"):
            parse_tenant("qps=4")

    def test_load_trace_profile(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps(
                {
                    "tenants": [
                        {"name": "a", "model": "squeezenet", "arrival_ms": [0.0, 2.0]},
                        {"model": "bert", "arrival_ms": [1.0], "slo_ms": 9.0, "seq": 16},
                    ]
                }
            )
        )
        profile = load_trace_profile(path, num_tiles=2, seed=3)
        assert profile.num_tiles == 2 and profile.seed == 3
        assert [t.name for t in profile.tenants] == ["a", "bert"]
        assert profile.tenants[0].trace_ms == (0.0, 2.0)
        assert profile.tenants[1].slo_ms == 9.0
        assert profile.tenants[1].seq == 16
        assert profile.total_requests == 3
