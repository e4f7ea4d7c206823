"""Unit tests for the SoC design layer: tile classes around one shared memory."""

import pytest

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import MemorySystemConfig
from repro.models import build_model
from repro.soc import ROCKET, DesignError, SoC, SoCDesign, TileComponent
from repro.sw.compiler import compile_graph
from repro.sw.runtime import Runtime


def big_little(little_count: int = 2) -> SoCDesign:
    return SoCDesign(
        tiles=(
            TileComponent(gemmini=default_config().with_geometry(32, 1), name="big"),
            TileComponent(
                gemmini=default_config().with_geometry(8, 1),
                count=little_count,
                name="little",
            ),
        ),
        name="big-little",
    )


class TestTileComponent:
    def test_cpu_normalised_from_string(self):
        tile = TileComponent(cpu="boom")
        assert tile.cpu.name == "boom"
        assert tile.cpu_model.name == "boom"

    def test_cpu_model_instance_kept(self):
        custom = ROCKET.scaled(2.0, name="turbo")
        assert TileComponent(cpu=custom).cpu is custom

    def test_unknown_cpu_string_rejected(self):
        with pytest.raises(ValueError, match="unknown CPU"):
            TileComponent(cpu="pentium")

    def test_non_cpu_value_rejected(self):
        # The legacy SoC.__init__ silently accepted whatever landed in
        # cpu_names; the component layer validates in one place.
        with pytest.raises(DesignError):
            TileComponent(cpu=42)

    def test_count_validated(self):
        with pytest.raises(DesignError):
            TileComponent(count=0)

    def test_config_hash_tracks_configuration(self):
        a = TileComponent(gemmini=default_config().with_geometry(16, 1))
        b = TileComponent(gemmini=default_config().with_geometry(16, 1), count=3)
        c = TileComponent(gemmini=default_config().with_geometry(8, 1))
        d = TileComponent(gemmini=default_config().with_geometry(16, 1), cpu="boom")
        assert a.config_hash == b.config_hash  # count is not configuration
        assert a.config_hash != c.config_hash
        assert a.config_hash != d.config_hash


class TestSoCDesign:
    def test_needs_a_tile(self):
        with pytest.raises(DesignError, match="TileComponent"):
            SoCDesign(tiles=(), mem=MemorySystemConfig())

    def test_missing_mem_takes_defaults(self):
        design = SoCDesign.from_dict({"tiles": [{}]})
        assert design.mem == MemorySystemConfig()
        assert design == SoCDesign(tiles=(TileComponent(),))

    def test_expand_orders_tiles(self):
        design = big_little(little_count=2)
        expanded = design.expand()
        assert [c.label for c in expanded] == ["big", "little", "little"]
        assert design.num_tiles == 3

    def test_clock_domains_must_match(self):
        from dataclasses import replace

        fast = replace(default_config(), clock_ghz=2.0)
        with pytest.raises(DesignError, match="clock"):
            SoCDesign(tiles=(TileComponent(), TileComponent(gemmini=fast)))

    def test_area_budget_enforced(self):
        with pytest.raises(DesignError, match="area"):
            SoCDesign(
                tiles=(TileComponent(gemmini=default_config().with_geometry(32, 1)),),
                area_budget_mm2=0.5,
            )

    def test_json_round_trip(self):
        design = SoCDesign(
            tiles=(
                TileComponent(gemmini=default_config().with_geometry(32, 1), name="big"),
                TileComponent(cpu="boom", count=2, name="little"),
            ),
            mem=MemorySystemConfig(bus_beat_bytes=32, l2=CacheConfig(size_bytes=2 << 20)),
            name="rt",
            area_budget_mm2=50.0,
        )
        assert SoCDesign.from_json(design.to_json()) == design

    def test_round_trip_custom_cpu(self):
        design = SoCDesign(
            tiles=(TileComponent(cpu=ROCKET.scaled(2.0, name="turbo")),)
        )
        again = SoCDesign.from_dict(design.to_dict())
        assert again.tiles[0].cpu.name == "turbo"
        assert again == design

    def test_no_l2_design(self):
        design = SoCDesign(tiles=(TileComponent(),), mem=MemorySystemConfig(l2=None))
        assert SoCDesign.from_json(design.to_json()).mem.l2 is None

    def test_heterogeneous_soc_builds(self):
        soc = SoC(big_little())
        assert [t.accel.config.dim for t in soc.tiles] == [32, 8, 8]
        assert soc.tiles[1].config_hash == soc.tiles[2].config_hash
        assert soc.tiles[0].config_hash != soc.tiles[1].config_hash
        # shared substrate, private address spaces
        assert soc.tiles[0].accel.mem is soc.tiles[2].accel.mem
        assert soc.tiles[0].vm is not soc.tiles[1].vm


class TestHomogeneousParity:
    """The homogeneous shorthand must equal the explicit tiles + mem design."""

    def test_homogeneous_run_is_bitwise_identical(self):
        gemmini = default_config().with_im2col(True)
        mem = MemorySystemConfig(l2=CacheConfig(size_bytes=1 << 20))
        legacy_soc = SoC(SoCDesign.homogeneous(gemmini=gemmini, mem=mem, num_tiles=1))
        component_soc = SoC(
            SoCDesign(tiles=(TileComponent(gemmini=gemmini),), mem=mem)
        )
        graph = build_model("squeezenet", input_hw=32)
        compiled = compile_graph(graph, SoftwareParams.from_config(gemmini))
        a = Runtime(legacy_soc.tile, compiled).run()
        b = Runtime(component_soc.tile, compiled).run()
        assert a.total_cycles == b.total_cycles
        assert legacy_soc.mem.dram.bytes_moved == component_soc.mem.dram.bytes_moved
        assert legacy_soc.l2_miss_rate() == component_soc.l2_miss_rate()
