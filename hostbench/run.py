"""Host-cost benchmark of the Gemmini reproduction.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh Python process started in
its own scratch directory, for about ``--seconds`` of wall time, and checks
every repetition's simulated outputs against ``expected.json``.  The last
line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end host costs (medians over
the repetitions): ``cpu_s`` (CPU seconds of the timed phase), ``setup_s``
(CPU seconds from interpreter start to workload ready), both scaled to an
unloaded host's speed by :mod:`speed`, and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced repetitions alternate, and the metrics are
the per-layer counts and times of the traced ones.  See ``README.md``.

``--record-expected`` runs each input of the workload once and rewrites its
entry in ``expected.json`` instead (review the diff before committing it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SEEDS, WORKLOADS, input_seed  # noqa: E402

EXPECTED = HERE / "expected.json"
#: a run must end within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0

END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _layer(rec: dict, name: str, field: str):
    entry = rec["layers"].get(name)
    if not entry:
        return 0
    return entry[field] if field == "calls" else entry[field] / rec["slowdown"]


def _ratio(rec: dict, layer: str, num: tuple[str, ...], den: str) -> float:
    counters = rec["counters"].get(layer, {})
    total = counters.get(den, 0)
    return sum(counters.get(n, 0) for n in num) / total if total else 0.0


def _counter(rec: dict, layer: str, *names: str) -> int:
    counters = rec["counters"].get(layer, {})
    return sum(counters.get(n, 0) for n in names)


def _calls_self(layer: str) -> list[tuple]:
    return [
        (f"{layer}.calls", "count", "lower", lambda r, n=layer: _layer(r, n, "calls")),
        (f"{layer}.self_s", "s", "lower", lambda r, n=layer: _layer(r, n, "self_s")),
    ]


def _incl(metric: str, layer: str) -> tuple:
    return (metric, "s", "lower", lambda r: _layer(r, layer, "incl_s"))


#: (metric, unit, better, value from one traced repetition's record).
#: ``*.self_s`` is exclusive time; the other ``*_s`` layer metrics are the
#: inclusive time of that step.  Times are scaled by the repetition's host
#: slowdown like ``cpu_s``.  Counters come from the simulator's own stats
#: registries, summed over every instance the workload created.
PER_LAYER: list[tuple] = [
    *_calls_self("core.controller"),
    *_calls_self("core.dma"),
    ("core.dma.rows", "count", "lower", lambda r: _counter(r, "core.dma", "rows")),
    (
        "core.dma.bytes", "bytes", "lower",
        lambda r: _counter(r, "core.dma", "bytes_read", "bytes_written"),
    ),
    *_calls_self("mem.tlb"),
    (
        "mem.tlb.hit_rate", "ratio", "higher",
        lambda r: _ratio(r, "mem.tlb", ("filter_hits", "private_hits"), "requests"),
    ),
    *_calls_self("mem.page_table"),
    *_calls_self("mem.hierarchy"),
    *_calls_self("mem.bus"),
    *_calls_self("mem.cache"),
    (
        "mem.cache.miss_rate", "ratio", "lower",
        lambda r: _ratio(r, "mem.cache", ("misses",), "accesses"),
    ),
    *_calls_self("mem.dram"),
    ("mem.dram.bytes", "bytes", "lower", lambda r: _counter(r, "mem.dram", "bytes")),
    *_calls_self("sim.timeline"),
    *_calls_self("mem.cache_batch"),
    *_calls_self("mem.dram_batch"),
    *_calls_self("mem.tlb_batch"),
    *_calls_self("mem.bus_batch"),
    _incl("sim.trace.replay_s", "sim.trace.replay"),
    _incl("sim.trace.record_s", "sim.trace.record"),
    ("serve.cluster.self_s", "s", "lower", lambda r: _layer(r, "serve.cluster", "self_s")),
    *_calls_self("serve.scheduler"),
    ("serve.requests", "count", "higher", lambda r: r["outputs"].get("completed", 0)),
    ("serve.replayed", "count", "higher", lambda r: r["outputs"].get("replayed", 0)),
    ("sw.compiler.self_s", "s", "lower", lambda r: _layer(r, "sw.compiler", "self_s")),
    *_calls_self("soc.make_soc"),
    *_calls_self("sw.runtime"),
    *_calls_self("sw.kernels"),
    _incl("sw.tune.enumerate_s", "sw.tune.enumerate"),
    (
        "sw.tune.estimate_calls", "count", "lower",
        lambda r: _layer(r, "sw.tune.estimate", "calls"),
    ),
    _incl("sw.tune.estimate_s", "sw.tune.estimate"),
    (
        "sw.tune.simulate_calls", "count", "lower",
        lambda r: _layer(r, "sw.tune.simulate", "calls"),
    ),
    _incl("sw.tune.simulate_s", "sw.tune.simulate"),
    (
        "sw.schedule_cache.put_calls", "count", "lower",
        lambda r: _layer(r, "sw.schedule_cache.put", "calls"),
    ),
    _incl("sw.schedule_cache.put_s", "sw.schedule_cache.put"),
    *_calls_self("dse.pareto"),
    ("dse.strategies.self_s", "s", "lower", lambda r: _layer(r, "dse.strategies", "self_s")),
    *_calls_self("dse.objectives"),
    ("eval.runner.self_s", "s", "lower", lambda r: _layer(r, "eval.runner", "self_s")),
    ("trace.wrapper_ns", "ns", "lower", lambda r: r["wrapper_ns"] / r["slowdown"]),
    ("trace.unattributed_s", "s", "lower", lambda r: r["unattributed_s"] / r["slowdown"]),
]
#: traced cpu_s over untraced cpu_s, from the same run
OVERHEAD = ("trace.overhead", "ratio", "lower")


def child_env() -> dict[str, str]:
    """A hermetic environment: no ledger, no ambient schedule cache, no
    result-cache directory, single-threaded numerics, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_LEDGER="off",
        REPRO_SCHEDULE_CACHE="off",
        REPRO_WORKERS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_repetition(
    workload: str, seed: int, traced: bool, scratch: Path, timeout: float
) -> dict | None:
    """One repetition in a fresh process; None if it did not complete."""
    workdir = Path(tempfile.mkdtemp(prefix="rep-", dir=scratch))
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
    ]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None


def mismatches(actual, expected, path: str = "") -> list[str]:
    """Paths at which simulated outputs differ from the recorded ones."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}/{key}: missing")
            else:
                out.extend(mismatches(actual[key], expected[key], f"{path}/{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def record_expected(workload: str, scratch: Path) -> int:
    expected = load_expected() if EXPECTED.exists() else {}
    seeds = SEEDS if WORKLOADS[workload][1] else (0,)
    entry = {}
    for seed in seeds:
        rec = run_repetition(workload, seed, False, scratch, HARD_LIMIT_S)
        if rec is None:
            return 1
        entry[str(seed)] = rec["outputs"]
        print(f"{workload} seed {seed}: {json.dumps(rec['outputs'])}")
    expected[workload] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")
    return 0


def measure(workload: str, bench_seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Repeat until the next repetition would overrun ``seconds``.

    Untraced repetition ``i`` of a seeded workload takes the input of
    benchmark seed ``bench_seed + i``, so every run covers the input pool
    and differences between inputs do not separate one run from the next.
    A traced run holds the input fixed, so its call counts repeat exactly.
    """
    expected = load_expected()[workload]
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    records: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    durations: dict[bool, list[float]] = {kind: [] for kind in kinds}
    attempted = failed = 0
    turn = 0
    while True:
        traced = kinds[turn % len(kinds)]
        t0 = time.perf_counter()
        remaining = HARD_LIMIT_S - (t0 - start)
        seed = input_seed(workload, bench_seed + (0 if trace else turn))
        rec = run_repetition(workload, seed, traced, scratch, remaining)
        durations[traced].append(time.perf_counter() - t0)
        attempted += 1
        if rec is None:
            failed += 1
        else:
            records[traced].append(rec)
            wrong = mismatches(rec["outputs"], expected[str(seed)])
            if wrong:
                failed += 1
                print(f"output mismatch ({len(wrong)}): " + "; ".join(wrong[:5]), file=sys.stderr)
        turn += 1
        following = kinds[turn % len(kinds)]
        if not durations[following]:
            # no traced repetition yet: it costs a few untraced ones
            predicted = 3.0 * statistics.median(durations[False])
        else:
            predicted = statistics.median(durations[following])
        done = all(records[kind] for kind in kinds)
        now = time.perf_counter() - start
        if (done and now + predicted > seconds) or now + predicted > HARD_LIMIT_S:
            break
    return {"records": records, "attempted": attempted, "failed": failed}


def end_to_end_metrics(records: list[dict]) -> dict:
    wall = [r["wall_s"] for r in records]
    print(
        f"repetitions: {len(records)}; wall_s median {statistics.median(wall):.3f} "
        f"(min {min(wall):.3f}, max {max(wall):.3f})"
    )
    for name in (*END_TO_END, "raw_cpu_s", "slowdown"):
        print(f"  {name}: " + " ".join(f"{r[name]:.4f}" for r in records))
    return {
        name: {"value": statistics.median(r[name] for r in records), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Medians over traced repetitions; counts must agree between them."""
    metrics, unstable = {}, []
    for name, unit, __, get in PER_LAYER:
        values = [get(rec) for rec in traced]
        if unit == "count" and len(set(values)) > 1:
            unstable.append(name)
        metrics[name] = {"value": statistics.median_low(values), "unit": unit}
    overhead = statistics.median(r["cpu_s"] for r in traced) / statistics.median(
        r["cpu_s"] for r in plain
    )
    metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    return metrics, unstable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="host-cost benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", action="store_true",
        help="rewrite this workload's recorded outputs instead of measuring",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_expected and not EXPECTED.is_file():
        print(f"missing {EXPECTED}; run with --record-expected", file=sys.stderr)
        return 2

    # Byte-compile once, unmeasured: the first import in a fresh checkout
    # would otherwise charge compilation to one repetition's setup_s.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True, capture_output=True, timeout=120,
    )
    scratch = Path(tempfile.mkdtemp(prefix=".hostbench-", dir=ROOT))
    try:
        if args.record_expected:
            return record_expected(args.workload, scratch)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain, traced = run["records"][False], run["records"].get(True, [])
    failed = run["failed"]
    if not plain or (args.trace and not traced):
        print("no repetition completed", file=sys.stderr)
        return 1
    metrics = end_to_end_metrics(plain)
    if args.trace:
        metrics, unstable = per_layer_metrics(traced, plain)
        if unstable:
            print(f"counts differ between traced repetitions: {unstable}", file=sys.stderr)
            failed = min(run["attempted"], failed + 1)
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
