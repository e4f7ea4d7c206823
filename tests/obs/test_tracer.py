"""Unit tests for the run-scoped Tracer and its null form."""

import pytest

from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer


class TestTracerConstruction:
    def test_default_run_ids_are_unique(self):
        a, b = Tracer(), Tracer()
        assert a.run_id != b.run_id

    def test_explicit_identity(self):
        t = Tracer(run_id="my-run", seed=42)
        assert t.run_id == "my-run"
        assert t.seed == 42

    def test_for_cycles_scale(self):
        # 1 GHz: one cycle is one nanosecond = 1e-3 Chrome microseconds.
        t = Tracer.for_cycles(1.0)
        assert t.ts_scale == pytest.approx(1e-3)
        assert Tracer.for_cycles(2.0).ts_scale == pytest.approx(5e-4)

    def test_wall_scale(self):
        assert Tracer.wall().ts_scale == pytest.approx(1e6)

    def test_enabled_and_truthy(self):
        assert Tracer()
        assert Tracer().enabled


class TestEvents:
    def test_complete_records_span(self):
        t = Tracer()
        t.complete("lane", "work", 10.0, 20.0, {"k": 1})
        assert t.events() == [("X", "lane", "work", 10.0, 20.0, {"k": 1})]
        assert t.span_count() == 1

    def test_instant_and_counter(self):
        t = Tracer()
        t.instant("lane", "arrival", 5.0)
        t.counter("lane", "depth", 6.0, 3)
        kinds = [e[0] for e in t.events()]
        assert kinds == ["i", "C"]
        assert t.span_count() == 0

    def test_complete_is_the_only_span_primitive(self):
        # Spans never nest: there is no begin/end stack or span context.
        for name in ("begin", "end", "span"):
            assert not hasattr(Tracer, name)

    def test_now_is_monotonic_enough(self):
        t = Tracer.wall()
        assert t.now() >= 0.0
        import time

        assert t.to_timeline(time.time()) == pytest.approx(t.now(), abs=0.05)


class TestLanes:
    def test_first_declaration_wins(self):
        t = Tracer()
        t.declare_lane("tile0", process="serve", label="big tile", sort=1)
        t.declare_lane("tile0", process="other", label="changed", sort=9)
        assert t.lanes() == {"tile0": ("serve", "big tile", 1)}

    def test_label_defaults_to_lane_key(self):
        t = Tracer()
        t.declare_lane("tile1")
        assert t.lanes()["tile1"] == ("run", "tile1", None)


class TestNullTracer:
    def test_singleton_is_falsy_and_disabled(self):
        assert not NULL_TRACER
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, Tracer)  # call sites need one type

    def test_recording_methods_are_noops(self):
        t = NullTracer()
        t.declare_lane("l", process="p")
        t.complete("l", "n", 0.0, 1.0, {"a": 1})
        t.instant("l", "n", 0.0)
        t.counter("l", "n", 0.0, 1)
        assert t.events() == []
        assert t.lanes() == {}
        assert t.span_count() == 0

    def test_now_skips_the_clock(self):
        assert NULL_TRACER.now() == 0.0
