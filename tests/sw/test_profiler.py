"""Tests for the run profiler."""

import pytest

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.profiler import RunProfiler
from repro.sw.runtime import run_model_on_tile


CFG = default_config().with_im2col(True)


def run_profiled(graph):
    soc = make_soc(gemmini=CFG)
    model = compile_graph(graph, SoftwareParams.from_config(CFG))
    profiler = RunProfiler(soc).start()
    run_model_on_tile(soc.tile, model)
    return profiler.stop(), soc


@pytest.fixture(scope="module")
def report_and_soc():
    from tests.sw.test_runtime import tiny_cnn

    return run_profiled(tiny_cnn(32))


class TestTLBProfile:
    def test_requests_counted(self, report_and_soc):
        report, __ = report_and_soc
        assert report.tlb.requests > 0

    def test_levels_partition(self, report_and_soc):
        report, __ = report_and_soc
        tlb = report.tlb
        assert tlb.filter_hits + tlb.private_hits + tlb.shared_hits + tlb.walks == tlb.requests

    def test_hit_rate_bounds(self, report_and_soc):
        report, __ = report_and_soc
        assert 0.0 <= report.tlb.hit_rate_including_filters <= 1.0
        assert 0.0 <= report.tlb.private_miss_rate <= 1.0

    def test_trace_collected(self, report_and_soc):
        report, __ = report_and_soc
        assert len(report.tlb.miss_rate_trace) >= 1


class TestMemoryProfile:
    def test_l2_counts(self, report_and_soc):
        report, __ = report_and_soc
        assert report.memory.l2_accesses == report.memory.l2_hits + report.memory.l2_misses
        assert report.memory.l2_accesses > 0

    def test_miss_rate(self, report_and_soc):
        report, __ = report_and_soc
        assert 0.0 <= report.memory.l2_miss_rate <= 1.0

    def test_dram_bytes_positive(self, report_and_soc):
        report, __ = report_and_soc
        assert report.memory.dram_bytes > 0
        assert report.memory.bus_bytes > 0


class TestDeltaSemantics:
    def test_second_window_excludes_first(self):
        from tests.sw.test_runtime import tiny_cnn

        soc = make_soc(gemmini=CFG)
        model = compile_graph(tiny_cnn(16), SoftwareParams.from_config(CFG))
        profiler = RunProfiler(soc).start()
        run_model_on_tile(soc.tile, model)
        first = profiler.stop()

        profiler.start()
        second = profiler.stop()  # nothing ran in between
        assert second.tlb.requests == 0
        assert second.memory.l2_accesses == 0
        assert first.tlb.requests > 0

    def test_second_run_reports_its_own_same_page_fractions(self):
        from tests.sw.test_runtime import tiny_cnn

        soc = make_soc(gemmini=CFG)
        params = SoftwareParams.from_config(CFG)
        run_model_on_tile(soc.tile, compile_graph(tiny_cnn(32), params))
        xlat = soc.tile.accel.xlat
        before = xlat.stats.snapshot()
        profiler = RunProfiler(soc).start()
        run_model_on_tile(soc.tile, compile_graph(tiny_cnn(16), params))
        report = profiler.stop()
        after = xlat.stats.snapshot()

        for is_write, measured in ((False, report.tlb.consecutive_same_read),
                                   (True, report.tlb.consecutive_same_write)):
            kind = "write" if is_write else "read"
            same = after[f"consecutive_same_{kind}"] - before[f"consecutive_same_{kind}"]
            total = after[f"consecutive_{kind}"] - before[f"consecutive_{kind}"]
            assert measured == same / total
            # the cumulative fraction over both runs is a different number
            assert measured != xlat.consecutive_same_page_fraction(is_write)

    def test_idle_window_has_no_same_page_fraction(self):
        from tests.sw.test_runtime import tiny_cnn

        soc = make_soc(gemmini=CFG)
        run_model_on_tile(soc.tile, compile_graph(tiny_cnn(16), SoftwareParams.from_config(CFG)))
        report = RunProfiler(soc).start().stop()
        assert report.tlb.consecutive_same_read == 0.0
        assert report.tlb.consecutive_same_write == 0.0
