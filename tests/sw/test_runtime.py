"""Integration tests: compiled models executing on SoC tiles."""

from dataclasses import replace

import pytest

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.models import build_model
from repro.sim.engine import EventLoop
from repro.soc.os_model import OSConfig
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.graph import Graph
from repro.sw.runtime import Runtime


CFG = default_config().with_im2col(True)
PARAMS = SoftwareParams.from_config(CFG)


def tiny_cnn(hw=16):
    g = Graph("tiny")
    g.add_input("x", (hw, hw, 3))
    g.add_weight("w1", (3, 3, 3, 8))
    g.add_node("Conv", "c1", ["x", "w1"], "a",
               attrs={"kernel": 3, "padding": 1, "out_ch": 8})
    g.add_node("Relu", "r1", ["a"], "b")
    g.add_weight("w2", (1, 1, 8, 8))
    g.add_node("Conv", "c2", ["b", "w2"], "c", attrs={"kernel": 1, "out_ch": 8})
    g.add_node("Add", "res", ["c", "b"], "d")
    g.mark_output("d")
    return g


class TestAllocation:
    def test_all_tensors_allocated(self):
        soc = make_soc(gemmini=CFG)
        model = compile_graph(tiny_cnn(), PARAMS)
        rt = Runtime(soc.tile, model)
        for name in model.tensor_bytes:
            assert rt.addr(name) > 0
        for name in model.weight_bytes:
            assert rt.addr(name) > 0

    def test_unknown_tensor_raises(self):
        soc = make_soc(gemmini=CFG)
        rt = Runtime(soc.tile, compile_graph(tiny_cnn(), PARAMS))
        with pytest.raises(KeyError):
            rt.addr("ghost")

    def test_view_aliases_input(self):
        g = Graph("v")
        g.add_input("x", (4, 6))
        g.add_node("Reshape", "r", ["x"], "y", attrs={"shape": [6, 4]})
        g.add_weight("w", (4, 2))
        g.add_node("Gemm", "fc", ["y", "w"], "z")
        g.mark_output("z")
        soc = make_soc(gemmini=CFG)
        rt = Runtime(soc.tile, compile_graph(g, PARAMS))
        assert rt.addr("y") == rt.addr("x")

    def test_concat_inputs_alias_slices(self):
        g = Graph("c")
        g.add_input("x", (4, 4, 8))
        g.add_weight("wl", (1, 1, 8, 8))
        g.add_weight("wr", (1, 1, 8, 16))
        g.add_node("Conv", "left", ["x", "wl"], "l", attrs={"kernel": 1, "out_ch": 8})
        g.add_node("Conv", "right", ["x", "wr"], "r", attrs={"kernel": 1, "out_ch": 16})
        g.add_node("Concat", "cat", ["l", "r"], "y", attrs={"axis": -1})
        g.mark_output("y")
        soc = make_soc(gemmini=CFG)
        model = compile_graph(g, PARAMS)
        rt = Runtime(soc.tile, model)
        base = rt.addr("y")
        assert rt.addr("l") == base
        assert rt.addr("r") == base + model.tensor_bytes["l"]

    def test_im2col_scratch_allocated_when_needed(self):
        """Scratch exactly when the config lacks the im2col unit."""
        for has_im2col in (False, True):
            cfg = default_config().with_im2col(has_im2col)
            soc = make_soc(gemmini=cfg)
            model = compile_graph(tiny_cnn(), SoftwareParams.from_config(cfg))
            rt = Runtime(soc.tile, model)
            assert (rt._im2col_vaddr is not None) == (not has_im2col)

    def test_host_im2col_charged_only_without_unit(self):
        for has_im2col in (False, True):
            cfg = default_config().with_im2col(has_im2col)
            soc = make_soc(gemmini=cfg)
            model = compile_graph(tiny_cnn(), SoftwareParams.from_config(cfg))
            conv = Runtime(soc.tile, model).run().layer("c1")
            assert (conv.cpu_cycles > 0) == (not has_im2col)

    def test_model_compiled_for_another_config_rejected(self):
        """squeezenet@32 compiled with the im2col unit allocates no
        host-im2col scratch; on a tile without the unit its host A-stream
        would read past the input, so the runtime refuses the pairing."""
        graph = build_model("squeezenet", input_hw=32)
        tile_cfg = default_config()
        assert not tile_cfg.has_im2col
        foreign = compile_graph(graph, SoftwareParams.from_config(tile_cfg.with_im2col(True)))
        with pytest.raises(ValueError, match=r"has_im2col=True \(tile: False\)"):
            Runtime(make_soc(gemmini=tile_cfg).tile, foreign)
        native = compile_graph(graph, SoftwareParams.from_config(tile_cfg))
        assert Runtime(make_soc(gemmini=tile_cfg).tile, native).run().total_cycles > 0

    def test_rejection_names_every_differing_field(self):
        cfg = default_config()
        other = replace(cfg, has_im2col=True, sp_capacity_bytes=128 * 1024)
        model = compile_graph(tiny_cnn(), SoftwareParams.from_config(other))
        with pytest.raises(ValueError) as info:
            Runtime(make_soc(gemmini=cfg).tile, model)
        differing = {
            part.split("=")[0] for part in str(info.value).split(": ", 1)[1].split(", ")
        }
        assert differing == {"sp_rows", "sp_capacity_bytes", "has_im2col"}


class TestExecution:
    def test_tiny_model_runs(self):
        soc = make_soc(gemmini=CFG)
        result = Runtime(soc.tile, compile_graph(tiny_cnn(), PARAMS)).run()
        assert result.total_cycles > 0
        assert len(result.layers) == 3  # conv+relu fused, conv, resadd
        assert result.macro_ops > 0

    def test_layer_kinds_recorded(self):
        soc = make_soc(gemmini=CFG)
        result = Runtime(soc.tile, compile_graph(tiny_cnn(), PARAMS)).run()
        kinds = [layer.kind for layer in result.layers]
        assert kinds == ["conv", "conv", "resadd"]

    def test_marginal_cycles_sum_to_total(self):
        soc = make_soc(gemmini=CFG)
        result = Runtime(soc.tile, compile_graph(tiny_cnn(), PARAMS)).run()
        assert sum(layer.cycles for layer in result.layers) == pytest.approx(
            result.total_cycles, rel=1e-6
        )

    def test_fps_computation(self):
        soc = make_soc(gemmini=CFG)
        result = Runtime(soc.tile, compile_graph(tiny_cnn(), PARAMS)).run()
        assert result.fps(1.0) == pytest.approx(1e9 / result.total_cycles)

    def test_sync_per_layer_not_faster(self):
        model = compile_graph(tiny_cnn(32), PARAMS)
        free = Runtime(make_soc(gemmini=CFG).tile, model).run()
        soc2 = make_soc(gemmini=CFG)
        synced = Runtime(soc2.tile, compile_graph(tiny_cnn(32), PARAMS),
                         sync_per_layer=True).run()
        assert synced.total_cycles >= free.total_cycles * 0.99

    def test_cpu_layer_advances_clock(self):
        g = Graph("s")
        g.add_input("x", (8, 64))
        g.add_node("Softmax", "sm", ["x"], "y")
        g.mark_output("y")
        soc = make_soc(gemmini=CFG)
        result = Runtime(soc.tile, compile_graph(g, PARAMS)).run()
        expected = soc.tile.cpu.softmax_cycles(8 * 64)
        assert result.total_cycles >= expected

    def test_os_context_switches_flush_tlb(self):
        os_cfg = OSConfig(enabled=True, quantum_cycles=500, context_switch_cycles=100)
        soc = make_soc(gemmini=CFG, os=os_cfg)
        model = compile_graph(tiny_cnn(32), PARAMS)
        Runtime(soc.tile, model).run()
        assert soc.tile.os.stats.value("context_switches") > 0
        assert soc.tile.accel.xlat.stats.value("flushes") > 0

    def test_memory_counters_account_for_every_request(self):
        soc = make_soc(gemmini=CFG)
        Runtime(soc.tile, compile_graph(tiny_cnn(32), PARAMS)).run()
        tlb = soc.tile.accel.xlat.stats
        requests = tlb.value("requests")
        assert requests > 0
        # Every translation resolves at exactly one level.
        resolved = sum(
            tlb.value(level) for level in ("filter_hits", "private_hits", "shared_hits", "walks")
        )
        assert resolved == requests
        l2 = soc.mem.l2.stats
        assert l2.value("accesses") > 0
        assert l2.value("accesses") == l2.value("hits") + l2.value("misses")
        assert soc.mem.dram.bytes_moved > 0
        assert soc.mem.bus.stats.value("bytes") > 0

    def test_layer_lookup(self):
        soc = make_soc(gemmini=CFG)
        result = Runtime(soc.tile, compile_graph(tiny_cnn(), PARAMS)).run()
        assert result.layer("res").kind == "resadd"
        with pytest.raises(KeyError):
            result.layer("nope")


def run_on_event_loop(runtimes):
    """Step every runtime's generator through one EventLoop; final clocks."""
    loop = EventLoop()
    indices = [loop.add(rt.run_generator().__next__) for rt in runtimes]
    loop.run()
    return [loop.finished[i] for i in indices]


class TestMultiCore:
    def test_dual_core_lockstep(self):
        soc = make_soc(gemmini=CFG, num_tiles=2)
        runtimes = []
        for tile in soc.tiles:
            runtimes.append(Runtime(tile, compile_graph(tiny_cnn(32), PARAMS)))
        ends = run_on_event_loop(runtimes)
        assert len(ends) == 2
        assert all(end > 0 for end in ends)
        assert runtimes[0].result.total_cycles > 0
        assert runtimes[1].result.total_cycles > 0

    def test_contention_slows_execution(self):
        solo = make_soc(gemmini=CFG)
        solo_result = Runtime(solo.tile, compile_graph(tiny_cnn(32), PARAMS)).run()

        duo = make_soc(gemmini=CFG, num_tiles=2)
        runtimes = [
            Runtime(tile, compile_graph(tiny_cnn(32), PARAMS)) for tile in duo.tiles
        ]
        ends = run_on_event_loop(runtimes)
        assert max(ends) >= solo_result.total_cycles

    def test_small_cnn_end_to_end_sharing(self):
        """Both tiles finish and the shared L2 saw traffic from each."""
        soc = make_soc(gemmini=CFG, num_tiles=2)
        runtimes = [
            Runtime(tile, compile_graph(tiny_cnn(16), PARAMS)) for tile in soc.tiles
        ]
        run_on_event_loop(runtimes)
        stats = soc.mem.l2.stats
        g0 = stats.value("hits_gemmini0") + stats.value("misses_gemmini0")
        g1 = stats.value("hits_gemmini1") + stats.value("misses_gemmini1")
        assert g0 > 0 and g1 > 0


class TestLayerLookup:
    def _result(self, names):
        from repro.sw.runtime import LayerStats, RunResult

        layers = [
            LayerStats(name=n, kind="conv", placement="accel", start_time=i, end_time=i + 1)
            for i, n in enumerate(names)
        ]
        return RunResult(model="m", tile="t", total_cycles=float(len(names)), layers=layers)

    def test_lookup_uses_index(self):
        result = self._result([f"layer{i}" for i in range(50)])
        assert result.layer("layer31").start_time == 31
        assert result._layer_index is not None  # built lazily on first call
        assert result.layer("layer7") is result.layers[7]

    def test_unknown_layer_raises_keyerror(self):
        result = self._result(["a", "b"])
        with pytest.raises(KeyError):
            result.layer("ghost")

    def test_duplicate_layer_names_raise(self):
        """A linear scan would silently return the first match; the index
        refuses to shadow."""
        result = self._result(["conv1", "conv2", "conv1"])
        with pytest.raises(ValueError, match="duplicate layer name"):
            result.layer("conv2")

    def test_index_rebuilds_after_layers_grow(self):
        result = self._result(["a"])
        assert result.layer("a").name == "a"
        from repro.sw.runtime import LayerStats

        result.layers.append(
            LayerStats(name="b", kind="conv", placement="accel", start_time=1, end_time=2)
        )
        assert result.layer("b").name == "b"

    def test_real_run_layers_resolve(self):
        soc = make_soc(gemmini=CFG)
        result = Runtime(soc.tile, compile_graph(tiny_cnn(), PARAMS)).run()
        for layer in result.layers:
            assert result.layer(layer.name) is layer
