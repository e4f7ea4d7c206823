"""Self-tests of the host-cost benchmark.

    PYTHONPATH=src python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import LayerTracer  # noqa: E402


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _tree(tracer: LayerTracer, clock: FakeClock):
    """top (5) -> mid (1 + leaf + 1 + leaf), leaf = 2; top and mid share a layer."""
    a, b = tracer.layer("a"), tracer.layer("b")

    def leaf():
        clock.t += 2.0

    wleaf = tracer.wrap(leaf, b)

    def mid():
        clock.t += 1.0
        wleaf()
        clock.t += 1.0
        wleaf()

    wmid = tracer.wrap(mid, a)

    def top():
        clock.t += 5.0
        wmid()

    return tracer.wrap(top, a), a, b


def test_exclusive_time_on_nested_tree():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    top, a, b = _tree(tracer, clock)
    top()
    assert (a.calls, b.calls) == (2, 2)
    assert a.self_s == pytest.approx(5.0 + 2.0)
    assert b.self_s == pytest.approx(4.0)
    # inclusive time counts only the outermost frame of a layer
    assert a.incl_s == pytest.approx(11.0)
    assert b.incl_s == pytest.approx(4.0)
    assert tracer.attributed_s() == pytest.approx(11.0)
    assert a.depth == b.depth == 0


def test_wrapper_cost_is_subtracted():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    tracer.inner, tracer.outer = 0.1, 0.2
    top, a, b = _tree(tracer, clock)
    top()
    per_frame = 0.1 + 0.2
    assert b.self_s == pytest.approx(2 * (2.0 - 0.1))
    # mid: 6 elapsed, children covered 2 x (2 + outer); top: 11 elapsed, mid 6 + outer
    assert a.self_s == pytest.approx((6.0 - 2 * 2.2 - 0.1) + (11.0 - 6.2 - 0.1))
    # top's inclusive time: less its own inner and three nested frames' cost
    assert a.incl_s == pytest.approx(11.0 - 0.1 - 3 * per_frame)


def test_generator_is_timed_per_next():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    g = tracer.layer("g")

    def produce():
        clock.t += 1.0
        yield "x"
        clock.t += 2.0
        yield "y"
        clock.t += 3.0
        return "done"

    wrapped = tracer.wrap(produce, g)
    stream = wrapped()
    assert g.calls == 0  # creating the generator runs none of its body
    assert next(stream) == "x" and g.calls == 1 and g.self_s == pytest.approx(1.0)
    assert next(stream) == "y"
    with pytest.raises(StopIteration) as stop:
        next(stream)
    assert stop.value.value == "done"
    assert g.calls == 3
    assert g.self_s == pytest.approx(6.0)


def test_calibration_is_positive_and_small():
    tracer = LayerTracer()
    tracer.calibrate(calls=20_000, trials=2)
    assert 0.0 < tracer.wrapper_ns < 100_000


def _function_identities(package: str = "repro") -> dict:
    """Every function reachable from a module or class dict of the package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value):
                out[(name, attr)] = value
            elif inspect.isclass(value):
                for cattr, cvalue in list(vars(value).items()):
                    if inspect.isfunction(cvalue):
                        out[(name, attr, cattr)] = cvalue
    return out


def _traced_small_run() -> dict:
    tracer = LayerTracer()
    tracer.calibrate(calls=5_000, trials=1)
    tracer.install()
    try:
        # imported by name after install, as the workloads do
        from repro.core.config import default_config
        from repro.core.generator import SoftwareParams
        from repro.models.zoo import build_model
        from repro.soc.soc import make_soc
        from repro.sw.compiler import compile_graph
        from repro.sw.runtime import Runtime
        from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE

        config = default_config()
        graph = build_model("squeezenet", input_hw=32)
        model = compile_graph(graph, SoftwareParams.from_config(config))
        soc = make_soc(gemmini=config)
        Runtime(soc.tile, model, schedule_cache=NULL_SCHEDULE_CACHE).run()
    finally:
        tracer.restore()
    return {name: layer.calls for name, layer in tracer.layers.items()}


def test_calls_repeat_exactly_and_wrappers_are_removed():
    _traced_small_run()  # imports every module the tracer touches
    before = _function_identities()
    first = _traced_small_run()
    second = _traced_small_run()
    assert first == second
    for name in ("core.dma", "mem.cache", "mem.dram", "sim.timeline", "sw.compiler"):
        assert first[name] > 0, name
    assert first["dse.pareto"] == 0
    after = _function_identities()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_output_check_reports_every_difference():
    expected = run.load_expected()["run_resnet50"]["0"]
    assert run.mismatches(copy.deepcopy(expected), expected) == []
    perturbed = copy.deepcopy(expected)
    perturbed["total_cycles"] += 1e-6
    perturbed["macro_ops"] += 1
    found = run.mismatches(expected, perturbed)
    assert [m.split(":")[0] for m in found] == ["/macro_ops", "/total_cycles"]


def test_perturbed_expected_value_fails_every_repetition(tmp_path, monkeypatch, capsys):
    expected = run.load_expected()
    expected["dse_evolutionary"]["0"]["front_size"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", path)
    assert run.main(["--workload", "dse_evolutionary", "--seed", "0", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_benchmark_json_lists_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    emitted = [(name, unit, better) for name, unit, better, __ in run.PER_LAYER]
    emitted.append(run.OVERHEAD)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == emitted
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
