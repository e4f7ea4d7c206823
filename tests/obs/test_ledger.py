"""Unit tests for the provenance-stamped run ledger."""

import json
import multiprocessing
import os
import sys

import pytest

from repro.obs.ledger import (
    NULL_LEDGER,
    SCHEMA_VERSION,
    NullLedger,
    RunLedger,
    RunRecord,
    default_ledger_path,
    ledger_from_env,
    merge_ledgers,
    provenance,
)
from repro.obs import ledger as ledger_module


class TestProvenance:
    def test_core_fields(self):
        prov = provenance()
        assert prov["python"]
        assert prov["numpy"]
        assert isinstance(prov["argv"], list)
        assert prov["host"]["platform"]
        assert prov["host"]["cpus"] >= 1

    def test_git_fields_inside_checkout(self):
        prov = provenance()
        # The test suite runs from a checkout; the rev must resolve and the
        # dirty flag must be a real answer, not unknown.
        if prov["git_rev"] is not None:
            assert len(prov["git_rev"]) == 40
            assert prov["git_dirty"] in (True, False)

    def test_cached_per_process(self):
        assert provenance() is provenance()

    def test_numpy_version_read_without_importing_numpy(self, monkeypatch):
        import numpy

        assert provenance()["numpy"] == numpy.__version__
        # A None entry makes ``import numpy`` raise: the version must come
        # from the installed distribution's metadata instead.
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert ledger_module._numpy_version() == numpy.__version__


class TestRunRecord:
    def test_round_trip(self):
        record = RunRecord(
            run_id="run-abc-1",
            kind="serve",
            name="fcfs:resnet50",
            seed=7,
            ts=123.5,
            wall_s=2.5,
            config_hash="deadbeef",
            workload_hash="cafe",
            workload={"tiles": 2},
            metrics={"p99_ms": 4.2},
            provenance={"git_rev": "x" * 40},
        )
        back = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert back == record
        assert back.schema == SCHEMA_VERSION
        assert back.git_rev == "x" * 40

    def test_tolerant_decode(self):
        back = RunRecord.from_dict({"run_id": "r1", "unknown_future_field": 1})
        assert back.run_id == "r1"
        assert back.kind == "?"
        assert back.metrics == {}

    def test_decode_drops_non_numeric_metrics(self):
        back = RunRecord.from_dict(
            {"run_id": "r1", "metrics": {"ok": 1.5, "label": "x", "flag": True}}
        )
        assert back.metrics == {"ok": 1.5}


class TestRunLedger:
    def test_record_appends_stamped_line(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        record = ledger.record(
            "run", "resnet50", seed=0, wall_s=1.0, metrics={"fps": 30.0}
        )
        assert record.run_id.startswith("run-")
        assert record.provenance["python"]
        assert record.ts > 0
        (loaded,) = ledger.records()
        assert loaded.run_id == record.run_id
        assert loaded.metrics == {"fps": 30.0}
        assert loaded.schema == SCHEMA_VERSION

    def test_one_line_per_record(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for i in range(5):
            ledger.record("bench", f"b{i}")
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["schema"] == SCHEMA_VERSION for line in lines)

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "nope.jsonl")
        assert ledger.records() == []
        assert len(ledger) == 0
        assert list(ledger) == []

    def test_truncated_final_line_warns_and_skips(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record("run", "ok")
        with path.open("a") as fh:
            fh.write('{"schema": 1, "run_id": "half')  # killed mid-append
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            records = ledger.records()
        assert len(records) == 1
        assert records[0].name == "ok"

    def test_corrupt_middle_line_costs_only_itself(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record("run", "first")
        with path.open("a") as fh:
            fh.write("not json at all\n")
            fh.write('[1, 2, 3]\n')  # parses, but is not a record object
        ledger.record("run", "last")
        with pytest.warns(RuntimeWarning):
            records = ledger.records()
        assert [r.name for r in records] == ["first", "last"]

    def test_history_filters_and_limits(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for i in range(4):
            ledger.record("bench", "a")
        ledger.record("serve", "b")
        assert len(ledger.history(kind="bench")) == 4
        assert len(ledger.history(kind="bench", limit=2)) == 2
        assert [r.name for r in ledger.history(name="b")] == ["b"]
        assert ledger.history(kind="dse") == []

    def test_find_by_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        record = ledger.record("run", "target")
        assert ledger.find(record.run_id[:10]).run_id == record.run_id
        with pytest.raises(KeyError, match="no ledger record"):
            ledger.find("zzz")

    def test_find_ambiguous_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.record("run", "a")
        ledger.record("run", "b")
        with pytest.raises(KeyError, match="ambiguous"):
            ledger.find("run-")

    def test_truthy(self, tmp_path):
        assert RunLedger(tmp_path / "ledger.jsonl")


class TestConcurrentAppends:
    def test_parallel_writers_never_interleave(self, tmp_path):
        """N processes append in lockstep; every line must parse and every
        record must survive (single O_APPEND write + flock per record)."""
        path = tmp_path / "ledger.jsonl"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        procs = [
            ctx.Process(target=_hammer, args=(str(path), barrier, worker))
            for worker in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 4 * 25
        names = [json.loads(line)["name"] for line in lines]
        for worker in range(4):
            assert sum(n.startswith(f"w{worker}-") for n in names) == 25
        ledger = RunLedger(path)
        assert len(ledger.records()) == 100
        assert len({r.run_id for r in ledger.records()}) == 100


def _hammer(path: str, barrier, worker: int) -> None:
    ledger = RunLedger(path)
    barrier.wait()
    for i in range(25):
        ledger.record("bench", f"w{worker}-{i}", metrics={"i": float(i)})


class TestNullLedger:
    def test_falsy_noop(self, tmp_path):
        null = NullLedger()
        assert not null
        assert not NULL_LEDGER
        record = null.record("run", "x", metrics={"a": 1.0})
        assert record.run_id == "null"
        assert null.records() == []
        assert isinstance(null, RunLedger)  # call sites need one type

    def test_append_does_not_write(self):
        NULL_LEDGER.append(RunRecord(run_id="r", kind="run", name="n"))
        assert NULL_LEDGER.records() == []


class TestEnvironment:
    def test_default_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert str(default_ledger_path()).endswith("ledger.jsonl")
        assert ledger_from_env()

    def test_env_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "custom.jsonl"))
        assert default_ledger_path() == tmp_path / "custom.jsonl"
        ledger = ledger_from_env()
        assert ledger.path == tmp_path / "custom.jsonl"

    @pytest.mark.parametrize("value", ["0", "off", "none", "disabled", "OFF"])
    def test_env_disabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_LEDGER", value)
        assert not ledger_from_env()


class TestMergeLedgers:
    def test_dedup_by_run_id(self, tmp_path):
        a = RunLedger(tmp_path / "a.jsonl")
        b = RunLedger(tmp_path / "b.jsonl")
        shared = a.record("run", "shared")
        b.append(shared)
        a.record("run", "only-a")
        b.record("run", "only-b")
        dest = tmp_path / "merged.jsonl"
        written = merge_ledgers([a, b], dest)
        assert written == 3
        merged = RunLedger(dest)
        assert len({r.run_id for r in merged.records()}) == 3

    def test_paths_coerce_and_missing_sources_skip(self, tmp_path):
        a = RunLedger(tmp_path / "a.jsonl")
        a.record("run", "x")
        written = merge_ledgers(
            [str(tmp_path / "a.jsonl"), str(tmp_path / "missing.jsonl")],
            str(tmp_path / "out.jsonl"),
        )
        assert written == 1

    def test_idempotent(self, tmp_path):
        a = RunLedger(tmp_path / "a.jsonl")
        a.record("run", "x")
        dest = tmp_path / "out.jsonl"
        assert merge_ledgers([a], dest) == 1
        assert merge_ledgers([a], dest) == 0


def test_run_ids_distinct_across_processes(tmp_path):
    """Two fresh interpreters minting ids must not collide (the regression
    gate dedups baseline vs candidate by run id across CI runs)."""
    import subprocess
    import sys

    cmd = [sys.executable, "-c", "from repro.obs import new_run_id; print(new_run_id())"]
    env = dict(os.environ)
    ids = {
        subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout.strip()
        for _ in range(2)
    }
    assert len(ids) == 2
