"""Record/replay parity for the macro-op trace engine.

The contract under test: once two consecutive uncontended recordings of a
``(model, tile-config)`` pair fingerprint identically, replaying the trace
is bitwise-indistinguishable from running the generator again — same total
cycles, same per-layer marginal cycles, same shared-resource counters.
The suites build *twin* setups (identical config, model, seed-free) and
compare "N generator runs" against "N-1 recorded runs + 1 replay".
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.sim.trace import (
    SEGMENT_OPS,
    TraceRecorder,
    record_steady_state_trace,
)
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.graph import Graph
from repro.sw.runtime import Runtime

BASE_CFG = default_config().with_im2col(True)


def tiny_cnn(hw=16, ch=8):
    g = Graph("tiny")
    g.add_input("x", (hw, hw, 3))
    g.add_weight("w1", (3, 3, 3, ch))
    g.add_node("Conv", "c1", ["x", "w1"], "a", attrs={"kernel": 3, "padding": 1, "out_ch": ch})
    g.add_node("Relu", "r1", ["a"], "b")
    g.add_weight("w2", (1, 1, ch, ch))
    g.add_node("Conv", "c2", ["b", "w2"], "c", attrs={"kernel": 1, "out_ch": ch})
    g.add_node("Add", "res", ["c", "b"], "d")
    g.mark_output("d")
    return g


def fresh_runtime(graph, config=BASE_CFG):
    soc = make_soc(gemmini=config)
    model = compile_graph(graph, SoftwareParams.from_config(config))
    return Runtime(soc.tile, model)


def generator_run(runtime):
    for __ in runtime.run_generator():
        pass
    return runtime.result


def converge_trace(runtime, segment_ops=SEGMENT_OPS, max_runs=5):
    """Run until two consecutive recordings fingerprint identically."""
    last = None
    for __ in range(max_runs):
        recorder = TraceRecorder(runtime, segment_ops=segment_ops)
        recorder.run()
        trace = recorder.build_trace()
        if last is not None and last.fingerprint == trace.fingerprint:
            return trace
        last = trace
    raise AssertionError("trace never converged")


def assert_results_equal(a, b):
    assert a.total_cycles == b.total_cycles
    assert a.macro_ops == b.macro_ops
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.name == lb.name
        assert la.cycles == lb.cycles, f"layer {la.name} marginal cycles differ"
        assert la.start_time == lb.start_time
        assert la.end_time == lb.end_time
        assert la.cpu_cycles == lb.cpu_cycles


class TestRecorder:
    def test_recording_run_is_transparent(self):
        """A recorded run yields the same clocks and result as a plain one."""
        plain = fresh_runtime(tiny_cnn())
        recorded = fresh_runtime(tiny_cnn())
        plain_clocks = list(plain.run_generator())
        recorder = TraceRecorder(recorded)
        rec_clocks = list(recorder.record())
        assert rec_clocks == plain_clocks
        assert_results_equal(plain.result, recorded.result)

    def test_proxies_are_removed_after_recording(self):
        rt = fresh_runtime(tiny_cnn())
        dma = rt.tile.accel.dma
        mem, xlat = dma.mem, dma.xlat
        TraceRecorder(rt).run()
        assert dma.mem is mem
        assert dma.xlat is xlat

    def test_dirty_probe_marks_recording(self):
        rt = fresh_runtime(tiny_cnn())
        recorder = TraceRecorder(rt)
        recorder.run(dirty_probe=lambda: True)
        assert recorder.dirty

    def test_segment_deltas_sum_to_run_totals(self):
        rt = fresh_runtime(tiny_cnn())
        generator_run(rt)
        recorder = TraceRecorder(rt, segment_ops=8)
        recorder.run()
        trace = recorder.build_trace()
        total_hits = sum(d.get("l2", {}).get("hits", 0) for d in trace.seg_stat_deltas)
        total_misses = sum(d.get("l2", {}).get("misses", 0) for d in trace.seg_stat_deltas)
        l2 = rt.tile.accel.mem.l2.stats
        # The recorded run was the second of two; its delta is half of a
        # warm pair only if both runs were identical — just require the
        # recorded deltas to be positive and no larger than the live totals.
        assert 0 < total_hits + total_misses <= l2.value("accesses")

    def test_build_before_record_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(fresh_runtime(tiny_cnn())).build_trace()


class TestUncontendedReplayParity:
    def test_replay_matches_fourth_generator_run(self):
        graph = tiny_cnn()
        gen_rt = fresh_runtime(graph)
        rep_rt = fresh_runtime(graph)
        results = [generator_run(gen_rt) for __ in range(4)]
        trace = converge_trace(rep_rt)

        start = rep_rt.tile.accel.controller.now
        clocks = list(trace.replay(rep_rt.tile, start))
        assert clocks == sorted(clocks)
        # Both setups ran the identical three-run history, so the replayed
        # fourth execution must match the generator's fourth bitwise.
        assert_results_equal(trace.last_result, results[-1])

    def test_forced_contention_replay_books_what_the_generator_books(self):
        """Re-resolving every op against live state (``contended`` always
        True) books the bus, L2 port and DRAM channel exactly as the
        generator's fourth run does, and reproduces its result."""
        graph = tiny_cnn()
        gen_rt = fresh_runtime(graph)
        rep_rt = fresh_runtime(graph)
        results = [generator_run(gen_rt) for __ in range(4)]
        trace = converge_trace(rep_rt)
        start = rep_rt.tile.accel.controller.now
        for __ in trace.replay(rep_rt.tile, start, contended=lambda: True):
            pass

        def timelines(rt):
            mem = rt.tile.accel.mem
            return [
                (t.next_free, t.busy_time, t.bookings)
                for t in (mem.bus.channel.inner, mem.l2.port.inner, mem.dram.channel.inner)
            ]

        assert timelines(rep_rt) == timelines(gen_rt)
        assert_results_equal(trace.last_result, results[-1])

    def test_replay_reproduces_shared_counters(self):
        graph = tiny_cnn()
        gen_rt = fresh_runtime(graph)
        rep_rt = fresh_runtime(graph)
        for __ in range(4):
            generator_run(gen_rt)
        trace = converge_trace(rep_rt)
        for __ in trace.replay(rep_rt.tile, rep_rt.tile.accel.controller.now):
            pass
        gen_l2 = gen_rt.tile.accel.mem.l2.stats
        rep_l2 = rep_rt.tile.accel.mem.l2.stats
        assert gen_l2.snapshot() == rep_l2.snapshot()
        assert (
            gen_rt.tile.accel.mem.dram.bytes_moved == rep_rt.tile.accel.mem.dram.bytes_moved
        )
        assert gen_rt.tile.accel.xlat.stats.snapshot() == rep_rt.tile.accel.xlat.stats.snapshot()

    def test_replay_advances_controller_clock(self):
        rt = fresh_runtime(tiny_cnn())
        trace = converge_trace(rt)
        start = rt.tile.accel.controller.now + 1000.0
        last = None
        for last in trace.replay(rt.tile, start):
            pass
        assert last == pytest.approx(start + trace.total_cycles)
        assert rt.tile.accel.controller.now >= last

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        hw=st.sampled_from([8, 12, 16]),
        ch=st.sampled_from([4, 8]),
        dim=st.sampled_from([4, 8]),
        sp_kb=st.sampled_from([64, 256]),
        kind=st.sampled_from(["conv", "gemm", "mixed"]),
    )
    def test_random_models_and_configs(self, hw, ch, dim, sp_kb, kind):
        """Hypothesis sweep: replay == generator, totals and per-layer."""
        config = replace(
            BASE_CFG,
            mesh_rows=dim,
            mesh_cols=dim,
            sp_capacity_bytes=sp_kb * 1024,
        )
        g = Graph(f"rand-{kind}")
        if kind == "conv":
            g.add_input("x", (hw, hw, 3))
            g.add_weight("w1", (3, 3, 3, ch))
            g.add_node(
                "Conv", "c1", ["x", "w1"], "a", attrs={"kernel": 3, "padding": 1, "out_ch": ch}
            )
            g.mark_output("a")
        elif kind == "gemm":
            g.add_input("x", (hw, ch))
            g.add_weight("w1", (ch, 2 * ch))
            g.add_node("Gemm", "fc1", ["x", "w1"], "a")
            g.add_weight("w2", (2 * ch, ch))
            g.add_node("Gemm", "fc2", ["a", "w2"], "b")
            g.mark_output("b")
        else:
            g.add_input("x", (hw, hw, ch))
            g.add_weight("w1", (1, 1, ch, ch))
            g.add_node("Conv", "c1", ["x", "w1"], "a", attrs={"kernel": 1, "out_ch": ch})
            g.add_node("Add", "res", ["a", "x"], "b")
            g.add_node("Relu", "r", ["b"], "c")
            g.mark_output("c")

        gen_rt = fresh_runtime(g, config)
        rep_rt = fresh_runtime(g, config)
        results = [generator_run(gen_rt) for __ in range(4)]
        trace = converge_trace(rep_rt)
        for __ in trace.replay(rep_rt.tile, rep_rt.tile.accel.controller.now):
            pass
        replayed = trace.last_result
        assert replayed.total_cycles == results[-1].total_cycles
        assert [y.cycles for y in replayed.layers] == [y.cycles for y in results[-1].layers]


class TestSandboxRecording:
    def test_warm_from_trace_matches_generator_steady_state(self):
        """A sandbox warmed from a (cold) recording reproduces the steady
        state one full execution leaves — its trace matches the in-situ
        converged one in every timing column."""
        graph = tiny_cnn()
        insitu = fresh_runtime(graph)
        steady = converge_trace(insitu)

        cold_rt = fresh_runtime(graph)
        recorder = TraceRecorder(cold_rt)
        recorder.run()
        cold_trace = recorder.build_trace()
        soc_cfg = cold_rt.tile.accel.mem.config

        from repro.soc.os_model import OSConfig

        sandbox_trace = record_steady_state_trace(
            cold_rt, soc_cfg, OSConfig(), warm_from=cold_trace
        )
        assert sandbox_trace.total_cycles == steady.total_cycles
        np.testing.assert_array_equal(sandbox_trace.clocks, steady.clocks)
        np.testing.assert_array_equal(sandbox_trace.acc_paddr, steady.acc_paddr)
        np.testing.assert_array_equal(sandbox_trace.xl_vpn, steady.xl_vpn)

    def test_sandbox_does_not_perturb_live_tile(self):
        graph = tiny_cnn()
        rt = fresh_runtime(graph)
        recorder = TraceRecorder(rt)
        recorder.run()
        cold_trace = recorder.build_trace()
        tile = rt.tile
        before = (
            tile.accel.controller.now,
            tile.accel.mem.dram.bytes_moved,
            tile.accel.mem.l2.stats.snapshot(),
            tile.accel.xlat.stats.snapshot(),
        )
        from repro.soc.os_model import OSConfig

        record_steady_state_trace(rt, tile.accel.mem.config, OSConfig(), warm_from=cold_trace)
        after = (
            tile.accel.controller.now,
            tile.accel.mem.dram.bytes_moved,
            tile.accel.mem.l2.stats.snapshot(),
            tile.accel.xlat.stats.snapshot(),
        )
        assert before == after

    def test_sandbox_dispatches_through_the_live_cache(self, tmp_path):
        """The sandbox re-runs the model with the live runtime's schedule
        cache, so it records the schedules the live tile dispatches."""
        from repro.soc.os_model import OSConfig
        from repro.sw.schedule_cache import ScheduleCache

        cache = ScheduleCache(tmp_path / "schedules.jsonl")
        soc = make_soc(gemmini=BASE_CFG)
        model = compile_graph(tiny_cnn(), SoftwareParams.from_config(BASE_CFG))
        rt = Runtime(soc.tile, model, schedule_cache=cache)
        recorder = TraceRecorder(rt)
        recorder.run()
        live_lookups = cache.stats.lookups
        assert live_lookups > 0
        record_steady_state_trace(
            rt, soc.tile.accel.mem.config, OSConfig(), warm_from=recorder.build_trace()
        )
        assert cache.stats.lookups == 2 * live_lookups
