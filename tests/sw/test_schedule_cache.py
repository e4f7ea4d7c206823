"""Persistent schedule cache: keys, durability, dispatch, cross-process."""

import json
import subprocess
import sys

import pytest

from repro.core.config import default_config
from repro.soc.soc import make_soc
from repro.sw.kernels import TileKernels
from repro.sw.schedule_cache import (
    NULL_SCHEDULE_CACHE,
    ScheduleCache,
    ScheduleRecord,
    accel_config_hash,
    schedule_key,
)
from repro.sw.tiling import MatmulTiling, plan_matmul_tiling
from repro.core.generator import SoftwareParams


CFG = default_config()


def _record(m=64, k=64, n=64, i=2, j=2, kk=2) -> ScheduleRecord:
    return ScheduleRecord(
        key=schedule_key(CFG, m, k, n),
        tiling=MatmulTiling(i, j, kk, CFG.dim, m, k, n),
        tuned_cycles=100.0,
        greedy_cycles=120.0,
    )


class TestScheduleKey:
    def test_digest_is_stable(self):
        a = schedule_key(CFG, 64, 128, 32)
        b = schedule_key(CFG, 64, 128, 32)
        assert a == b
        assert a.digest == b.digest

    def test_shape_changes_digest(self):
        assert (
            schedule_key(CFG, 64, 128, 32).digest
            != schedule_key(CFG, 64, 128, 33).digest
        )

    def test_config_changes_digest(self):
        from dataclasses import replace

        other = replace(CFG, sp_capacity_bytes=CFG.sp_capacity_bytes * 2)
        assert schedule_key(CFG, 8, 8, 8) != schedule_key(other, 8, 8, 8)
        assert accel_config_hash(CFG) != accel_config_hash(other)

    def test_key_embeds_dtype(self):
        assert schedule_key(CFG, 8, 8, 8).dtype == "int8"


class TestScheduleCache:
    def test_put_then_lookup(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        record = _record()
        cache.put(record)
        assert cache.lookup(record.key) == record.tiling
        assert cache.stats.lookups == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_miss_counts(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        assert cache.lookup(schedule_key(CFG, 3, 3, 3)) is None
        assert cache.stats.lookups == 1
        assert cache.stats.misses == 1

    def test_get_is_uncounted(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        record = cache.put(_record())
        assert cache.get(record.key) is not None
        assert cache.stats.lookups == 0

    def test_last_record_per_key_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ScheduleCache(path).put(_record(i=2, j=2, kk=2))
        ScheduleCache(path).put(_record(i=1, j=1, kk=4))
        fresh = ScheduleCache(path)
        assert len(fresh) == 1
        assert fresh.lookup(schedule_key(CFG, 64, 64, 64)).k_blocks == 4

    def test_survives_process_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record = ScheduleCache(path).put(_record())
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        data = json.loads(lines[0])
        assert data["digest"] == record.key.digest
        assert ScheduleCache(path).lookup(record.key) == record.tiling

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "s.jsonl"
        cache = ScheduleCache(path)
        record = cache.put(_record())
        with path.open("a") as fh:
            fh.write("{truncated garbage\n")
        fresh = ScheduleCache(path)
        with pytest.warns(RuntimeWarning, match="corrupt line"):
            assert fresh.lookup(record.key) == record.tiling

    def test_put_updates_loaded_memory(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        assert len(cache) == 0  # forces the load
        record = cache.put(_record())
        assert cache.lookup(record.key) == record.tiling

    def test_null_cache(self):
        record = _record()
        NULL_SCHEDULE_CACHE.put(record)
        assert NULL_SCHEDULE_CACHE.lookup(record.key) is None
        assert NULL_SCHEDULE_CACHE.stats.lookups == 0  # misses uncounted
        assert not NULL_SCHEDULE_CACHE
        assert bool(ScheduleCache("anywhere.jsonl"))


class TestNoAmbientCache:
    """Library calls handed no cache plan greedily and persist nothing,
    whatever the working directory or the environment holds."""

    #: greedy cycles of squeezenet@32 on the default config
    GREEDY_CYCLES = 2_021_573.25

    @staticmethod
    def _squeezenet():
        from repro.models.zoo import build_model
        from repro.sw.compiler import compile_graph

        graph = build_model("squeezenet", input_hw=32)
        return compile_graph(graph, SoftwareParams.from_config(CFG))

    @staticmethod
    def _cycles(model, **kwargs) -> float:
        from repro.sw.runtime import Runtime

        return Runtime(make_soc(gemmini=CFG).tile, model, **kwargs).run().total_cycles

    def test_flagless_tune_persists_nothing(self, tmp_path, monkeypatch):
        from repro.sw.tune import tune_model

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SCHEDULE_CACHE")
        results = tune_model(self._squeezenet(), CFG, verify_top_k=1)
        assert results and not any(r.cached for r in results)
        assert not (tmp_path / ".repro-schedule-cache").exists()

    def test_bare_runtime_ignores_tuned_files(self, tmp_path, monkeypatch):
        from repro.sw.tune import tune_model

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SCHEDULE_CACHE")
        model = self._squeezenet()
        path = tmp_path / ".repro-schedule-cache" / "schedules.jsonl"
        tune_model(model, CFG, cache=ScheduleCache(path))
        tuned = self._cycles(model, schedule_cache=ScheduleCache(path))
        assert tuned < self.GREEDY_CYCLES  # the file would move the number
        assert self._cycles(model, schedule_cache=NULL_SCHEDULE_CACHE) == self.GREEDY_CYCLES
        assert self._cycles(model) == self.GREEDY_CYCLES
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", str(path))
        assert self._cycles(model) == self.GREEDY_CYCLES


class TestDispatch:
    def test_miss_falls_back_to_greedy_and_never_writes(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        kernels = TileKernels(make_soc(gemmini=CFG).tile, schedule_cache=cache)
        tiling = kernels.select_tiling(64, 64, 64)
        params = SoftwareParams.from_config(CFG)
        assert tiling == plan_matmul_tiling(params, 64, 64, 64)
        assert cache.stats.misses == 1
        assert not (tmp_path / "s.jsonl").exists()  # dispatch never tunes

    def test_hit_returns_cached_schedule(self, tmp_path):
        cache = ScheduleCache(tmp_path / "s.jsonl")
        record = cache.put(_record(i=1, j=1, kk=4))
        kernels = TileKernels(make_soc(gemmini=CFG).tile, schedule_cache=cache)
        assert kernels.select_tiling(64, 64, 64) == record.tiling
        assert cache.stats.hits == 1

    def test_kernels_without_a_cache_plan_greedily(self, tmp_path, monkeypatch):
        path = tmp_path / "named.jsonl"
        ScheduleCache(path).put(_record(i=1, j=1, kk=4))
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", str(path))
        kernels = TileKernels(make_soc(gemmini=CFG).tile)
        assert kernels.schedule_cache is NULL_SCHEDULE_CACHE
        params = SoftwareParams.from_config(CFG)
        assert kernels.select_tiling(64, 64, 64) == plan_matmul_tiling(params, 64, 64, 64)


class TestCrossProcess:
    def test_second_process_warm_starts_all_hits(self, tmp_path):
        """The acceptance contract: a process that only dispatches against a
        tuned cache sees hits == lookups."""
        path = tmp_path / "shared.jsonl"
        tune = (
            "import sys\n"
            "from repro.core.config import default_config\n"
            "from repro.sw.schedule_cache import ScheduleCache\n"
            "from repro.sw.tune import tune_matmul\n"
            "cache = ScheduleCache(sys.argv[1])\n"
            "r = tune_matmul(default_config(), 40, 24, 40, cache=cache,"
            " verify_top_k=2)\n"
            "print('cached' if r.cached else 'tuned')\n"
        )
        dispatch = (
            "import sys\n"
            "from repro.core.config import default_config\n"
            "from repro.soc.soc import make_soc\n"
            "from repro.sw.kernels import TileKernels\n"
            "from repro.sw.schedule_cache import ScheduleCache\n"
            "cache = ScheduleCache(sys.argv[1])\n"
            "kernels = TileKernels(make_soc(gemmini=default_config()).tile,"
            " schedule_cache=cache)\n"
            "kernels.select_tiling(40, 24, 40)\n"
            "print(cache.stats.lookups, cache.stats.hits)\n"
        )
        import os
        import pathlib

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
        first = subprocess.run(
            [sys.executable, "-c", tune, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert first.stdout.strip() == "tuned"
        second = subprocess.run(
            [sys.executable, "-c", dispatch, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert second.stdout.strip() == "1 1"  # hits == lookups
