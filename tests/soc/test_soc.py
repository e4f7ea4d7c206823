"""Unit tests for SoC composition."""

import pytest

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.mem.hierarchy import MemorySystemConfig
from repro.models import build_model
from repro.soc.components import SoCDesign, TileComponent
from repro.soc.cpu import ROCKET
from repro.soc.soc import SoC, make_soc
from repro.sw.compiler import compile_graph
from repro.sw.runtime import Runtime


class TestSoC:
    def test_single_tile(self):
        soc = make_soc()
        assert len(soc.tiles) == 1
        assert soc.tile.cpu is ROCKET
        assert soc.tile.accel.mem is soc.mem

    def test_dual_tile_shares_memory(self):
        soc = make_soc(num_tiles=2)
        a, b = soc.tiles
        assert a.accel.mem is b.accel.mem
        assert a.accel is not b.accel
        assert a.vm is not b.vm

    def test_per_tile_cpu_mix(self):
        design = SoCDesign(
            tiles=(TileComponent(cpu="rocket"), TileComponent(cpu="boom"))
        )
        soc = SoC(design)
        assert soc.tiles[0].cpu.name == "rocket"
        assert soc.tiles[1].cpu.name == "boom"

    def test_global_ptw_shared(self):
        design = SoCDesign(tiles=(TileComponent(count=2),), global_ptw=True)
        soc = SoC(design)
        assert soc.tiles[0].accel.xlat.ptw is soc.tiles[1].accel.xlat.ptw

    def test_per_tile_ptw(self):
        design = SoCDesign(tiles=(TileComponent(count=2),), global_ptw=False)
        soc = SoC(design)
        assert soc.tiles[0].accel.xlat.ptw is not soc.tiles[1].accel.xlat.ptw

    def test_address_spaces_disjoint(self):
        soc = make_soc(num_tiles=2)
        a = soc.tiles[0].vm.alloc(4096, "x")
        b = soc.tiles[1].vm.alloc(4096, "x")
        assert a != b
        # Physical frames differ as well (per-asid scattering).
        assert soc.tiles[0].vm.translate(a) != soc.tiles[1].vm.translate(b)

    def test_custom_cpu_object(self):
        custom = ROCKET.scaled(3.0, name="turbo")
        soc = make_soc(cpu=custom)
        assert soc.tile.cpu.name == "turbo"

    def test_reset(self):
        soc = make_soc()
        soc.mem.access(0.0, 0, 64, False)
        soc.reset()
        assert soc.mem.dram.bytes_moved == 0

    def test_l2_miss_rate_passthrough(self):
        soc = make_soc()
        assert soc.l2_miss_rate() == 0.0
        soc.mem.access(0.0, 0, 64, False)
        assert soc.l2_miss_rate() == 1.0

    def test_custom_gemmini_and_mem(self):
        gem = default_config().with_im2col(True)
        mem = MemorySystemConfig(bus_beat_bytes=32)
        soc = make_soc(gemmini=gem, mem=mem)
        assert soc.tile.accel.config.has_im2col
        assert soc.mem.bus.beat_bytes == 32


def run_state(soc, result):
    """Everything a squeezenet run leaves behind that a rerun must match."""
    accel, mem = soc.tile.accel, soc.mem
    registries = (accel.dma.stats, accel.xlat.stats, mem.l2.stats, mem.dram.stats,
                  mem.bus.stats)
    timelines = (accel.dma.read_channel, accel.dma.write_channel, accel.xlat.ptw,
                 mem.bus.channel, mem.l2.port, mem.dram.channel)
    return (
        result.total_cycles,
        result.macro_ops,
        [registry.snapshot() for registry in registries],
        [(t.next_free, t.busy_time, t.bookings) for t in timelines],
    )


@pytest.mark.parametrize(
    "input_hw,im2col,global_ptw",
    [(32, False, True), (64, True, True), (32, False, False)],
    ids=["32px-host-im2col", "64px-im2col", "32px-tile-ptw"],
)
def test_rerun_after_reset_matches_a_fresh_soc(input_hw, im2col, global_ptw):
    """``SoC.reset`` restores the initial state: the DMA channels and
    counters, and the PTW (the shared one or each tile's own) included."""
    config = default_config().with_im2col(im2col)
    model = compile_graph(
        build_model("squeezenet", input_hw=input_hw), SoftwareParams.from_config(config)
    )
    soc = SoC(SoCDesign.homogeneous(gemmini=config, global_ptw=global_ptw))
    runtime = Runtime(soc.tile, model)
    fresh = run_state(soc, runtime.run())
    soc.reset()
    rerun = Runtime(soc.tile, model, share_allocations_from=runtime).run()
    assert run_state(soc, rerun) == fresh
