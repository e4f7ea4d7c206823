"""CLI tests: every subcommand through the public entry point."""

import json

import pytest

from repro.cli import main
from repro.soc import SoCDesign


class TestGenerate:
    def test_emits_header(self, capsys):
        assert main(["generate", "--dim", "8"]) == 0
        out = capsys.readouterr().out
        assert "#define DIM 8" in out
        assert "typedef int8_t elem_t;" in out

    def test_config_knobs(self, capsys):
        main(["generate", "--dim", "16", "--sp-kb", "512", "--no-im2col"])
        out = capsys.readouterr().out
        assert "#define SP_CAPACITY_BYTES 524288" in out
        assert "#define HAS_IM2COL 0" in out


class TestModels:
    def test_lists_all_five(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("resnet50", "alexnet", "squeezenet", "mobilenetv2", "bert"):
            assert name in out


class TestRun:
    def test_runs_small_model(self, capsys):
        assert main(["run", "squeezenet", "--input-hw", "64"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "energy:" in out
        assert "conv" in out

    def test_baseline_flag(self, capsys):
        main(["run", "squeezenet", "--input-hw", "64", "--baseline"])
        out = capsys.readouterr().out
        assert "speedup vs rocket baseline" in out

    def test_boom_host(self, capsys):
        main(["run", "squeezenet", "--input-hw", "64", "--cpu", "boom"])
        assert "cycles:" in capsys.readouterr().out

    def test_bert_seq(self, capsys):
        main(["run", "bert", "--seq", "16"])
        assert "matmul" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "lenet"])


class TestArea:
    def test_breakdown(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "scratchpad" in out
        assert "fmax" in out

    def test_no_cpu(self, capsys):
        main(["area", "--cpu", "none"])
        out = capsys.readouterr().out
        assert "cpu" in out


class TestTable1:
    def test_matrix(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Gemmini" in out
        assert "Virtual Memory" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSocSpec:
    @staticmethod
    def write(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def example(self, capsys, tmp_path):
        assert main(["soc-spec", "--example"]) == 0
        return self.write(tmp_path, "design.json", capsys.readouterr().out)

    def test_example_validates(self, capsys, tmp_path):
        path = self.example(capsys, tmp_path)
        assert main(["soc-spec", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("big*1+little*2: ")
        assert "tiles: 3 at" in out

    def test_emitted_json_revalidates_to_an_equal_design(self, capsys, tmp_path):
        path = self.example(capsys, tmp_path)
        assert main(["soc-spec", path, "--emit"]) == 0
        out = capsys.readouterr().out
        emitted = out[out.index("\n{\n") + 1:]
        again = self.write(tmp_path, "again.json", emitted)
        assert main(["soc-spec", again]) == 0
        with open(path) as original:
            assert SoCDesign.from_json(emitted) == SoCDesign.from_json(original.read())

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ({"name": "old", "components": [{"kind": "tile"}]}, "'tiles'"),
            ({"tiles": [{}], "mem": {"bus_beat_bytes": 24}}, "power of two"),
            ({"tiles": ["big"]}, "'str'"),
        ],
        ids=["no_tiles", "bus_width", "tile_not_an_object"],
    )
    def test_invalid_file_exits_1(self, capsys, tmp_path, payload, reason):
        path = self.write(tmp_path, "bad.json", json.dumps(payload))
        assert main(["soc-spec", path]) == 1
        err = capsys.readouterr().err
        assert "invalid design" in err and reason in err
        with pytest.raises(SystemExit):
            main(["serve", "--design", path, "--tenant", "model=squeezenet", "--no-ledger"])
        assert "invalid design" in capsys.readouterr().err

    def test_serve_runs_the_example_design(self, capsys, tmp_path):
        path = self.example(capsys, tmp_path)
        assert main([
            "serve", "--design", path, "--no-ledger",
            "--tenant", "model=squeezenet,qps=200,requests=3,input_hw=32",
        ]) == 0
        out = capsys.readouterr().out
        assert "design: big*1+little*2: " in out
        assert "3/3 served" in out


class TestDse:
    def test_prints_front_and_cache_stats(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main([
            "dse", "--strategy", "random", "--budget", "2", "--seed", "0",
            "--max-dim", "8", "--fidelity", "soc", "--workload", "squeezenet",
            "--input-hw", "32", "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "latency_ms" in out
        assert "hit rate" in out

    def test_analytic_search_prints_no_cache_line(self, capsys, tmp_path):
        """Analytic points never reach the runner: no cache line, no cache
        entry, and the ledger records both counters as 0."""
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "dse", "--strategy", "random", "--budget", "10", "--seed", "0",
            "--max-dim", "8", "--cache-dir", str(tmp_path / "cache"),
            "--ledger", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "hit rate" not in out
        assert list((tmp_path / "cache").glob("*.pkl")) == []
        import json

        record = json.loads(ledger.read_text().splitlines()[-1])
        assert record["metrics"]["cache_hits"] == record["metrics"]["cache_misses"] == 0

    def test_analytic_search_creates_no_cache_directory(self, capsys, tmp_path):
        """The cache directory appears with the first stored result, and an
        analytic search stores none."""
        cache_dir = tmp_path / "cache"
        assert main([
            "dse", "--strategy", "random", "--budget", "4", "--seed", "0",
            "--max-dim", "8", "--cache-dir", str(cache_dir), "--no-ledger",
        ]) == 0
        assert "Pareto front" in capsys.readouterr().out
        assert not cache_dir.exists()

    def test_exports_and_reruns_from_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        args = [
            "dse", "--strategy", "evolutionary", "--budget", "6", "--seed", "0",
            "--max-dim", "8", "--fidelity", "soc", "--workload", "squeezenet",
            "--input-hw", "32", "--cache-dir", str(tmp_path / "cache"),
            "--export-json", str(tmp_path / "front.json"),
        ]
        import json

        assert main(args) == 0
        first = capsys.readouterr().out
        cold = json.loads((tmp_path / "front.json").read_text())
        assert main(args) == 0
        second = capsys.readouterr().out
        warm = json.loads((tmp_path / "front.json").read_text())
        assert "6 misses" in first
        assert "6 hits / 0 misses (100% hit rate)" in second
        assert warm["front"] and warm["meta"]["strategy"] == "evolutionary"
        assert warm["front"] == cold["front"]

    def test_constraint_and_objectives_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main([
            "dse", "--strategy", "grid", "--budget", "15", "--max-dim", "8",
            "--objectives", "energy_mj,area_mm2",
            "--constraint", "area_mm2<=2",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "energy_mj" in out

    def test_bad_constraint_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bad bound"):
            main([
                "dse", "--budget", "5", "--constraint", "area_mm2=4",
                "--cache-dir", str(tmp_path),
            ])


class TestSeedPlumbing:
    def test_run_echoes_seed(self, capsys):
        assert main(["run", "squeezenet", "--input-hw", "64", "--seed", "11"]) == 0
        assert "seed: 11" in capsys.readouterr().out

    def test_dse_echoes_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main([
            "dse", "--strategy", "random", "--budget", "4", "--seed", "3",
            "--max-dim", "8", "--cache-dir", str(tmp_path),
        ]) == 0
        assert "seed: 3" in capsys.readouterr().out


class TestServe:
    TENANT = "model=squeezenet,qps=200,requests=3,input_hw=32,slo_ms=5"

    def test_two_tenant_report(self, capsys):
        assert main([
            "serve", "--seed", "5", "--tiles", "2",
            "--tenant", self.TENANT,
            "--tenant", "model=squeezenet,qps=200,requests=3,input_hw=32,priority=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "seed: 5" in out
        assert "p99" in out and "goodput" in out and "fairness" in out
        assert "tenant0" in out and "tenant1" in out and "overall" in out
        assert "6/6 served" in out

    def test_serve_is_deterministic(self, capsys):
        # --no-ledger: the ledger echo line carries a fresh run id per run.
        args = ["serve", "--seed", "0", "--tenant", self.TENANT, "--no-ledger"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_no_replay_matches_replay_for_single_tenant(self, capsys):
        """The fast path is bitwise-identical uncontended: everything except
        the replayed-request count must print the same."""
        spec = "model=squeezenet,qps=200,requests=5,input_hw=32,slo_ms=5"
        assert main(["serve", "--seed", "1", "--tenant", spec, "--no-ledger"]) == 0
        fast = capsys.readouterr().out
        assert main([
            "serve", "--seed", "1", "--tenant", spec, "--no-replay", "--no-ledger",
        ]) == 0
        slow = capsys.readouterr().out
        assert "(0 trace-replayed)" in slow
        assert "(0 trace-replayed)" not in fast

        def strip(text):
            # The recording pass behind replay dispatches extra schedule
            # lookups, so the schedule-cache counters are mode-dependent.
            lines = [
                line for line in text.splitlines()
                if not line.startswith("schedule cache:")
            ]
            return "\n".join(lines).replace(
                "(2 trace-replayed)", ""
            ).replace("(0 trace-replayed)", "")

        assert strip(fast) == strip(slow)

    def test_serve_profile_flag_prints_hotspots(self, capsys):
        assert main(["serve", "--tenant", self.TENANT, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cProfile: top 20 by cumulative time" in out
        assert "cumtime" in out

    def test_run_profile_flag_prints_hotspots(self, capsys):
        assert main(["run", "squeezenet", "--input-hw", "32", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cProfile: top 20 by cumulative time" in out
        assert "run_generator" in out

    def test_export_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "serve.json"
        csv_path = tmp_path / "serve.csv"
        assert main([
            "serve", "--tenant", self.TENANT,
            "--export-json", str(json_path), "--export-csv", str(csv_path),
        ]) == 0
        import csv as csv_mod
        import json as json_mod

        data = json_mod.loads(json_path.read_text())
        assert data["overall"]["p99_latency_ms"] > 0
        assert data["overall"]["goodput_qps"] > 0
        with csv_path.open() as fh:
            assert len(list(csv_mod.DictReader(fh))) == 3

    def test_scheduler_flag(self, capsys):
        assert main([
            "serve", "--scheduler", "batch", "--batch-size", "2",
            "--batch-window-ms", "0.5", "--tenant", self.TENANT,
        ]) == 0
        assert "scheduler batch" in capsys.readouterr().out

    def test_needs_a_tenant(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_horizon_flags(self, capsys, tmp_path):
        import json as json_mod

        # A horizon past the last completion cuts nothing, and the export
        # keeps every request's record.
        json_path = tmp_path / "serve.json"
        assert main([
            "serve", "--tenant", self.TENANT, "--horizon-ms", "36",
            "--export-json", str(json_path), "--no-ledger",
        ]) == 0
        assert "3/3 served" in capsys.readouterr().out
        data = json_mod.loads(json_path.read_text())
        assert data["meta"]["horizon_ms"] == 36.0
        assert data["meta"]["completed"] == len(data["records"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--tenant", TENANT, "--horizon-ms", "0"],
            ["serve", "--tenant", TENANT, "--tiles", "0"],
            ["serve", "--tenant", TENANT, "--batch-size", "0"],
            ["serve", "--tenant", "model=nosuch"],
            ["serve", "--tenant", TENANT + ",qps=-1"],
            ["serve", "--tenant", TENANT + ",bogus=1"],
            ["serve", "--trace", "/nonexistent/trace.json"],
            ["dse", "--traffic", "model=squeezenet,qps=0,requests=2",
             "--objectives", "p99_latency_ms,area_mm2", "--budget", "2"],
            ["serve", "--tenant", TENANT + ",pin_tile=2", "--tiles", "2"],
            ["dse", "--traffic", "model=squeezenet,requests=2,pin_tile=1",
             "--objectives", "p99_latency_ms,area_mm2", "--budget", "2"],
            ["dse", "--mix", "big", "--mix-max-tiles", "2",
             "--traffic", "model=squeezenet,requests=2,pin_tile=2",
             "--objectives", "p99_latency_ms,area_mm2", "--budget", "2"],
            ["dse", "--mix", "big", "--serve-tiles", "2",
             "--traffic", "model=squeezenet,requests=2",
             "--objectives", "p99_latency_ms,area_mm2", "--budget", "2"],
        ],
        ids=["horizon_zero", "tiles_zero", "batch_size_zero", "unknown_model",
             "negative_qps", "unknown_field", "missing_trace", "dse_zero_qps",
             "pin_past_tiles", "dse_pin_past_tiles", "dse_mix_pin_past_fleets",
             "dse_mix_serve_tiles"],
    )
    def test_bad_traffic_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-ledger"])
        assert exc.value.code == 2
        assert "invalid traffic" in capsys.readouterr().err

    def test_trace_replay(self, capsys, tmp_path):
        import json as json_mod

        trace = tmp_path / "trace.json"
        trace.write_text(json_mod.dumps({
            "tenants": [{
                "model": "squeezenet", "input_hw": 32,
                "arrival_ms": [0.0, 0.2, 0.4],
            }]
        }))
        assert main(["serve", "--trace", str(trace)]) == 0
        assert "3/3 served" in capsys.readouterr().out


class TestDseServingObjectives:
    def test_serving_objectives_end_to_end(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main([
            "dse", "--strategy", "random", "--budget", "3", "--seed", "0",
            "--max-dim", "8", "--cache-dir", str(tmp_path),
            "--objectives", "p99_latency_ms,area_mm2,qps_per_watt",
            "--traffic", "model=squeezenet,qps=300,requests=3,input_hw=32,slo_ms=5",
        ]) == 0
        out = capsys.readouterr().out
        assert "p99_latency_ms" in out and "qps_per_watt" in out

    def test_mix_searches_only_fleets_with_the_pinned_tile(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        csv_path = tmp_path / "points.csv"
        assert main([
            "dse", "--strategy", "grid", "--budget", "20", "--seed", "0",
            "--mix", "big", "--mix", "little", "--mix-max-tiles", "2",
            "--cache-dir", str(tmp_path), "--export-csv", str(csv_path),
            "--objectives", "p99_latency_ms,area_mm2",
            "--traffic", "model=squeezenet,qps=300,requests=2,input_hw=32,slo_ms=5,pin_tile=1",
            "--no-ledger",
        ]) == 0
        assert "evaluated 3 points" in capsys.readouterr().out
        rows = csv_path.read_text().splitlines()[1:]
        # big*2, big*1+little*1, little*2: no one-tile fleet
        assert len(rows) == 3

    def test_serving_objectives_require_traffic(self):
        with pytest.raises(SystemExit):
            main([
                "dse", "--budget", "3",
                "--objectives", "p99_latency_ms,area_mm2",
            ])


class TestObservabilityFlags:
    TENANT = "model=squeezenet,qps=200,requests=6,input_hw=32,slo_ms=5"

    def _serve_with_trace(self, tmp_path, capsys, extra=()):
        trace = tmp_path / "trace.json"
        assert main([
            "serve", "--seed", "2", "--tenant", self.TENANT,
            "--trace-out", str(trace), *extra,
        ]) == 0
        capsys.readouterr()
        return trace

    def test_serve_trace_out_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = self._serve_with_trace(tmp_path, capsys)
        data = json.loads(trace.read_text())
        assert validate_chrome_trace(data) == []
        assert data["metadata"]["seed"] == 2
        assert data["metadata"]["tool"] == "gemmini-repro"

    def test_trace_subcommand_summarises(self, capsys, tmp_path):
        trace = self._serve_with_trace(tmp_path, capsys)
        assert main(["trace", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "queue vs service per lane" in out
        assert "tenant0" in out

    def test_trace_subcommand_rejects_invalid(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X", "ts": 0}]}))
        assert main(["trace", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err and "missing" in err

    def test_trace_subcommand_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_serve_metrics_out_json_and_live(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        assert main([
            "serve", "--seed", "2", "--tenant", self.TENANT,
            "--metrics-out", str(metrics), "--live-metrics", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "[serve t=" in out  # streamed while in flight
        doc = json.loads(metrics.read_text())
        assert doc["meta"]["command"] == "serve"
        assert doc["snapshots"] and doc["final"]["completed"] == 6

    def test_serve_metrics_out_csv(self, capsys, tmp_path):
        import csv

        metrics = tmp_path / "metrics.csv"
        assert main([
            "serve", "--seed", "2", "--tenant", self.TENANT,
            "--metrics-out", str(metrics),
        ]) == 0
        with metrics.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[-1]["completed"] == "6"

    def test_run_trace_and_metrics_out(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_chrome_trace

        trace, metrics = tmp_path / "run.json", tmp_path / "runm.json"
        assert main([
            "run", "squeezenet", "--input-hw", "32",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        data = json.loads(trace.read_text())
        assert validate_chrome_trace(data) == []
        doc = json.loads(metrics.read_text())
        final = doc["final"]
        total_cycles = doc["snapshots"][-1]["total_cycles"]
        assert final["layers"] > 0
        assert final["layer_ms_p99"] >= final["layer_ms_p50"]
        # One sample per layer of the cycles it adds: they sum to the run
        # (1 GHz default clock: 1e6 cycles per ms).
        assert final["layer_ms_mean"] * final["layer_ms_count"] == pytest.approx(
            total_cycles / 1e6, rel=1e-9
        )
        spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == final["layers"]
        assert sum(e["dur"] for e in spans) == pytest.approx(
            total_cycles / 1e3, rel=1e-9
        )

    @pytest.mark.parametrize("metrics_name", ["m.json", "m.csv"])
    def test_artifacts_create_parent_directories(self, capsys, tmp_path, metrics_name):
        trace = tmp_path / "nodir" / "t.json"
        metrics = tmp_path / "nodir2" / "deeper" / metrics_name
        assert main([
            "run", "squeezenet", "--input-hw", "32", "--no-ledger",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        assert trace.stat().st_size > 0
        assert metrics.stat().st_size > 0

    def test_dse_trace_out(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.obs.export import validate_chrome_trace

        monkeypatch.setenv("REPRO_WORKERS", "1")
        trace = tmp_path / "dse.json"
        assert main([
            "dse", "--strategy", "random", "--budget", "6", "--seed", "0",
            "--max-dim", "8", "--cache-dir", str(tmp_path / "cache"),
            "--trace-out", str(trace), "--metrics-out", str(tmp_path / "dsem.json"),
        ]) == 0
        data = json.loads(trace.read_text())
        assert validate_chrome_trace(data) == []
        names = {e.get("name") for e in data["traceEvents"]}
        assert any(n and n.startswith("gen[") for n in names)
        doc = json.loads((tmp_path / "dsem.json").read_text())
        assert doc["snapshots"][-1]["evaluations"] == 6

    def test_profile_out_writes_loadable_pstats(self, capsys, tmp_path):
        import pstats

        out = tmp_path / "serve.pstats"
        assert main([
            "serve", "--seed", "2", "--tenant", self.TENANT,
            "--profile-out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert f"wrote {out}" in printed
        assert "cProfile: top 20" not in printed  # file-only, no dump to stdout
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_run_profile_out(self, capsys, tmp_path):
        import pstats

        out = tmp_path / "run.pstats"
        assert main([
            "run", "squeezenet", "--input-hw", "32", "--profile-out", str(out),
        ]) == 0
        assert pstats.Stats(str(out)).total_calls > 0


class TestLedgerCli:
    TENANT = "model=squeezenet,qps=200,requests=3,input_hw=32,slo_ms=5"

    def _serve(self, ledger, seed, capsys):
        assert main([
            "serve", "--seed", str(seed), "--tenant", self.TENANT,
            "--ledger", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        assert "ledger: serve-" in out
        return out

    def test_serve_appends_provenance_stamped_record(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger.jsonl"
        self._serve(ledger, 0, capsys)
        (line,) = ledger.read_text().splitlines()
        record = json.loads(line)
        assert record["schema"] == 1
        assert record["kind"] == "serve"
        assert record["name"] == "fcfs:squeezenet"
        assert record["seed"] == 0
        assert record["wall_s"] > 0
        assert record["provenance"]["python"]
        assert record["metrics"]["p99_ms"] > 0
        assert record["metrics"]["goodput_qps"] > 0

    def test_run_appends_record(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "run", "squeezenet", "--input-hw", "32", "--ledger", str(ledger),
        ]) == 0
        (record,) = [json.loads(l) for l in ledger.read_text().splitlines()]
        assert record["kind"] == "run" and record["name"] == "squeezenet"
        assert record["metrics"]["total_cycles"] > 0
        assert record["config_hash"]

    def test_dse_appends_record(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_WORKERS", "1")
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "dse", "--strategy", "random", "--budget", "4", "--seed", "0",
            "--max-dim", "8", "--cache-dir", str(tmp_path / "cache"),
            "--ledger", str(ledger),
        ]) == 0
        records = [json.loads(l) for l in ledger.read_text().splitlines()]
        (dse,) = [r for r in records if r["kind"] == "dse"]
        assert dse["name"] == "random:conv"
        assert dse["metrics"]["evaluations"] == 4
        assert dse["metrics"]["hypervolume"] > 0

    def test_no_ledger_flag_suppresses_append(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        assert main([
            "serve", "--seed", "0", "--tenant", self.TENANT, "--no-ledger",
        ]) == 0
        assert "ledger:" not in capsys.readouterr().out
        assert not (tmp_path / "env.jsonl").exists()

    def test_history_lists_and_filters(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._serve(ledger, 0, capsys)
        self._serve(ledger, 1, capsys)
        assert main(["history", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out and "fcfs:squeezenet" in out
        assert main(["history", "--ledger", str(ledger), "--kind", "dse"]) == 0
        assert "no matching records" in capsys.readouterr().out

    def test_history_json_and_show(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger.jsonl"
        self._serve(ledger, 0, capsys)
        assert main(["history", "--ledger", str(ledger), "--json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["provenance"]["python"]
        assert main(["history", record["run_id"], "--ledger", str(ledger)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == record["run_id"]

    def test_history_missing_ledger(self, capsys, tmp_path):
        assert main(["history", "--ledger", str(tmp_path / "none.jsonl")]) == 1
        assert "no ledger" in capsys.readouterr().err

    def test_compare_two_runs(self, capsys, tmp_path):
        import json
        import re

        ledger = tmp_path / "ledger.jsonl"
        a = re.search(r"ledger: (\S+)", self._serve(ledger, 0, capsys)).group(1)
        b = re.search(r"ledger: (\S+)", self._serve(ledger, 1, capsys)).group(1)
        assert main([
            "compare", a, b, "--ledger", str(ledger),
            "--metrics", "p50_ms,p95_ms,p99_ms,mean_ms",
        ]) == 0
        out = capsys.readouterr().out
        assert "no significant regression" in out
        assert main([
            "compare", a, b, "--ledger", str(ledger), "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["run_a"]["run_id"] == a and doc["run_b"]["run_id"] == b

    def test_compare_unknown_run_id(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        self._serve(ledger, 0, capsys)
        assert main(["compare", "zzz", "yyy", "--ledger", str(ledger)]) == 1
        assert "no ledger record" in capsys.readouterr().err

    def test_regress_gate_trips_on_slow_candidate(self, capsys, tmp_path):
        """A baseline ledger file vs a candidate ledger with a 3x wall-time
        slowdown: regress must exit 1 and name the offending metric."""
        from repro.obs import RunLedger

        base = RunLedger(tmp_path / "base.jsonl")
        cand = RunLedger(tmp_path / "cand.jsonl")
        for i in range(3):
            base.record("bench", "t1", wall_s=1.0 + 0.01 * i)
            cand.record("bench", "t1", wall_s=3.0 + 0.01 * i)
        assert main([
            "regress", "--baseline", str(tmp_path / "base.jsonl"),
            "--ledger", str(tmp_path / "cand.jsonl"),
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: bench/t1:wall_s" in out

    def test_regress_passes_clean_history(self, capsys, tmp_path):
        from repro.obs import RunLedger

        base = RunLedger(tmp_path / "base.jsonl")
        cand = RunLedger(tmp_path / "cand.jsonl")
        for i in range(3):
            base.record("bench", "t1", wall_s=1.0 + 0.01 * i)
            cand.record("bench", "t1", wall_s=1.0 + 0.012 * i)
        assert main([
            "regress", "--baseline", str(tmp_path / "base.jsonl"),
            "--ledger", str(tmp_path / "cand.jsonl"),
        ]) == 0
        assert "no significant regression" in capsys.readouterr().out

    def test_regress_empty_baseline_gates_nothing(self, capsys, tmp_path):
        from repro.obs import RunLedger

        RunLedger(tmp_path / "cand.jsonl").record("bench", "t1", wall_s=1.0)
        assert main([
            "regress", "--baseline", "no-such-ref",
            "--ledger", str(tmp_path / "cand.jsonl"),
        ]) == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_regress_json_output(self, capsys, tmp_path):
        import json

        from repro.obs import RunLedger

        base = RunLedger(tmp_path / "base.jsonl")
        cand = RunLedger(tmp_path / "cand.jsonl")
        base.record("bench", "t1", wall_s=1.0)
        cand.record("bench", "t1", wall_s=5.0)
        assert main([
            "regress", "--baseline", str(tmp_path / "base.jsonl"),
            "--ledger", str(tmp_path / "cand.jsonl"), "--json",
        ]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["regressions"][0]["metric"] == "wall_s"


class TestTraceJsonAndDiff:
    TENANT = "model=squeezenet,qps=200,requests=3,input_hw=32,slo_ms=5"

    def _trace(self, tmp_path, capsys, name, seed):
        trace = tmp_path / name
        assert main([
            "serve", "--seed", str(seed), "--tenant", self.TENANT,
            "--trace-out", str(trace), "--no-ledger",
        ]) == 0
        capsys.readouterr()
        return trace

    def test_trace_json_summary(self, capsys, tmp_path):
        import json

        trace = self._trace(tmp_path, capsys, "a.json", 0)
        assert main(["trace", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True and doc["violations"] == []
        assert doc["summary"]["span_count"] > 0
        assert "tenant0" in doc["summary"]["spans"]

    def test_trace_json_invalid_file(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X", "ts": 0}]}))
        assert main(["trace", str(bad), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is False and doc["violations"]

    def test_trace_diff_text(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys, "a.json", 0)
        b = self._trace(tmp_path, capsys, "b.json", 1)
        assert main(["trace", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "trace diff" in out
        assert "span stems by |total-time delta|" in out

    def test_trace_diff_json(self, capsys, tmp_path):
        import json

        a = self._trace(tmp_path, capsys, "a.json", 0)
        b = self._trace(tmp_path, capsys, "b.json", 1)
        assert main(["trace", "--diff", str(a), str(b), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert doc["spans"] and doc["lanes"]

    def test_trace_diff_needs_two_files(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys, "a.json", 0)
        with pytest.raises(SystemExit):
            main(["trace", "--diff", str(a)])

    def test_trace_rejects_extra_files_without_diff(self, capsys, tmp_path):
        a = self._trace(tmp_path, capsys, "a.json", 0)
        with pytest.raises(SystemExit):
            main(["trace", str(a), str(a)])


class TestTune:
    def _records(self):
        from repro.obs import ledger_from_env

        return ledger_from_env().records()

    def test_cold_tune_then_warm_tune(self, capsys, tmp_path):
        cache = str(tmp_path / "sched.jsonl")
        argv = ["tune", "squeezenet", "--input-hw", "48",
                "--schedule-cache", cache, "--verify-top", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache now holds" in out
        assert main(argv) == 0  # warm: every shape served from the cache
        capsys.readouterr()
        cold, warm = [r for r in self._records() if r.kind == "tune"]
        assert cold.metrics["shapes_cached"] == 0
        assert cold.metrics["shapes_tuned"] == cold.metrics["shapes_total"]
        assert warm.metrics["shapes_cached"] == warm.metrics["shapes_total"]
        assert warm.metrics["shapes_tuned"] == 0
        # The never-worse contract, as recorded in the ledger.
        assert cold.metrics["tuned_cycles_total"] <= cold.metrics["greedy_cycles_total"]

    def test_run_dispatches_through_tuned_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "sched.jsonl")
        assert main(["tune", "squeezenet", "--input-hw", "48",
                     "--schedule-cache", cache, "--verify-top", "2"]) == 0
        capsys.readouterr()
        assert main(["run", "squeezenet", "--input-hw", "48",
                     "--schedule-cache", cache]) == 0
        out = capsys.readouterr().out
        assert "schedule cache:" in out
        assert " 0 misses" in out
        run = [r for r in self._records() if r.kind == "run"][-1]
        assert run.metrics["schedule_misses"] == 0
        assert run.metrics["schedule_hits"] == run.metrics["schedule_lookups"]
        assert run.metrics["schedule_hits"] > 0

    def test_run_without_cache_counts_misses(self, capsys, tmp_path):
        assert main(["run", "squeezenet", "--input-hw", "48",
                     "--schedule-cache", str(tmp_path / "empty.jsonl")]) == 0
        out = capsys.readouterr().out
        assert " 0 hits" in out

    def test_serve_dispatches_through_tuned_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "sched.jsonl")
        assert main(["tune", "squeezenet", "--input-hw", "48",
                     "--schedule-cache", cache, "--verify-top", "1"]) == 0
        assert main(["serve", "--tiles", "2", "--schedule-cache", cache,
                     "--tenant", "model=squeezenet,qps=200,requests=4,input_hw=48"]) == 0
        capsys.readouterr()
        serve = [r for r in self._records() if r.kind == "serve"][-1]
        assert serve.metrics["schedule_hits"] == serve.metrics["schedule_lookups"] > 0

    def test_main_leaves_the_environment_alone(self, capsys, tmp_path):
        import os

        env_before = dict(os.environ)
        assert main(["run", "squeezenet", "--input-hw", "32", "--no-ledger",
                     "--schedule-cache", str(tmp_path / "sched.jsonl")]) == 0
        assert "sched.jsonl" in capsys.readouterr().out  # the run used it
        assert dict(os.environ) == env_before

    def test_dse_takes_no_schedule_cache(self, capsys, tmp_path):
        """SoC-fidelity DSE always plans greedily: its result cache is not
        keyed by a schedule cache, so the flag is not offered."""
        with pytest.raises(SystemExit):
            main(["dse", "--schedule-cache", str(tmp_path / "sched.jsonl")])
        assert "--schedule-cache" in capsys.readouterr().err

    def test_cache_off_disables_tuning(self, capsys):
        assert main(["tune", "squeezenet", "--schedule-cache", "off"]) == 1
        assert "disabled" in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "lenet"])
