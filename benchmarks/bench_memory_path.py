"""Work-normalised host rates of the exact memory path.

One cold ``run squeezenet`` at the ``REPRO_FAST`` input size (96 px) on
the default SoC, with no schedule cache.  The exact memory path (DMA
translation, the shared L2 and DRAM) does nearly all of this run's work, so
the benchmark reports what it simulated per CPU second
(``time.process_time()``), counted by the SoC's own counters:

* ``l2_lines_per_s``: L2 line lookups;
* ``dram_requests_per_s``: DRAM reads plus writes;
* ``translation_requests_per_s``: requests the accelerator's translation
  system served.

The run's ``total_cycles`` is asserted against :data:`TOTAL_CYCLES`, the
value recorded when this benchmark was added, so a host-cost optimisation
that moves a simulated number fails here.  The input size is fixed
(``REPRO_FAST`` does not change it) for the same reason.
"""

import time

from benchmarks.conftest import once
from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.eval.report import format_table
from repro.models.zoo import build_model
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.runtime import Runtime
from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE

MODEL = "squeezenet"
#: the ``REPRO_FAST`` CNN input resolution
INPUT_HW = 96
#: simulated cycles of the run; a bitwise optimisation keeps them
TOTAL_CYCLES = 23294543.875


def _cold_run():
    config = default_config()
    model = compile_graph(build_model(MODEL, input_hw=INPUT_HW), SoftwareParams.from_config(config))
    soc = make_soc(gemmini=config)
    runtime = Runtime(soc.tile, model, schedule_cache=NULL_SCHEDULE_CACHE)
    t0 = time.process_time()
    result = runtime.run()
    cpu_s = time.process_time() - t0
    return soc, result, cpu_s


def test_memory_path_rates(benchmark, emit):
    soc, result, cpu_s = once(benchmark, _cold_run)
    assert result.total_cycles == TOTAL_CYCLES

    dram = soc.mem.dram.stats
    work = {
        "l2_lines": soc.mem.l2.stats.value("accesses"),
        "dram_requests": dram.value("reads") + dram.value("writes"),
        "translation_requests": soc.tile.accel.xlat.stats.value("requests"),
    }
    benchmark.extra_info["cpu_s"] = cpu_s
    benchmark.extra_info["total_cycles"] = result.total_cycles
    rows = []
    for name, count in work.items():
        assert count > 0, name
        rate = count / cpu_s
        benchmark.extra_info[name] = count
        benchmark.extra_info[f"{name}_per_s"] = rate
        rows.append((name, f"{count:,}", f"{rate:,.0f}"))
    text = format_table(
        ["work", "count", "per CPU second"],
        rows,
        title=f"Exact memory path: cold {MODEL} at {INPUT_HW} px in {cpu_s:.3f} CPU s",
    )
    emit("memory_path", text)
