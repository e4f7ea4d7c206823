"""Work-normalised host rates of the exact memory path.

One cold ``run squeezenet`` at the ``REPRO_FAST`` input size (96 px) with
no schedule cache, on the default SoC and on the same SoC without an L2
(the DMA talks to DRAM through the bus).  The exact memory path (DMA
translation, the bus, the shared L2 and DRAM) does nearly all of these
runs' work, so the benchmark reports what each simulated per CPU second
(``time.process_time()``), counted by the SoC's own counters:

* ``memory_accesses_per_s``: bus transactions, i.e. accesses of the memory
  pass (``MemorySystem.access``);
* ``l2_lines_per_s``: L2 line lookups (default SoC only);
* ``dram_requests_per_s``: DRAM reads plus writes;
* ``translation_requests_per_s``: requests the accelerator's translation
  system served.

Each run's ``total_cycles`` is asserted against a constant recorded before
the host-cost work it guards (:data:`TOTAL_CYCLES`, :data:`TOTAL_CYCLES_NO_L2`),
so a host-cost optimisation that moves a simulated number fails here.  The
input size is fixed (``REPRO_FAST`` does not change it) for the same reason.
"""

import time

from benchmarks.conftest import once
from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.eval.report import format_table
from repro.mem.hierarchy import MemorySystemConfig
from repro.models.zoo import build_model
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.runtime import Runtime
from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE

MODEL = "squeezenet"
#: the ``REPRO_FAST`` CNN input resolution
INPUT_HW = 96
#: simulated cycles of each run; a bitwise optimisation keeps them
TOTAL_CYCLES = 23294543.875
TOTAL_CYCLES_NO_L2 = 23169978.625


def _cold_run(mem=None):
    config = default_config()
    model = compile_graph(build_model(MODEL, input_hw=INPUT_HW), SoftwareParams.from_config(config))
    soc = make_soc(gemmini=config, mem=mem)
    runtime = Runtime(soc.tile, model, schedule_cache=NULL_SCHEDULE_CACHE)
    t0 = time.process_time()
    result = runtime.run()
    cpu_s = time.process_time() - t0
    return soc, result, cpu_s


def _report(benchmark, emit, name, run, total_cycles):
    soc, result, cpu_s = once(benchmark, run)
    assert result.total_cycles == total_cycles

    mem = soc.mem
    dram = mem.dram.stats
    work = {"memory_accesses": mem.bus.stats.value("transactions")}
    if mem.l2 is not None:
        work["l2_lines"] = mem.l2.stats.value("accesses")
    work["dram_requests"] = dram.value("reads") + dram.value("writes")
    work["translation_requests"] = soc.tile.accel.xlat.stats.value("requests")
    benchmark.extra_info["cpu_s"] = cpu_s
    benchmark.extra_info["total_cycles"] = result.total_cycles
    rows = []
    for work_name, count in work.items():
        assert count > 0, work_name
        rate = count / cpu_s
        benchmark.extra_info[work_name] = count
        benchmark.extra_info[f"{work_name}_per_s"] = rate
        rows.append((work_name, f"{count:,}", f"{rate:,.0f}"))
    l2 = "" if mem.l2 is not None else ", no L2"
    text = format_table(
        ["work", "count", "per CPU second"],
        rows,
        title=f"Exact memory path: cold {MODEL} at {INPUT_HW} px{l2} in {cpu_s:.3f} CPU s",
    )
    emit(name, text)


def test_memory_path_rates(benchmark, emit):
    _report(benchmark, emit, "memory_path", _cold_run, TOTAL_CYCLES)


def test_memory_path_rates_no_l2(benchmark, emit):
    """The L2-less topology stays timed and its cycles pinned."""
    _report(
        benchmark,
        emit,
        "memory_path_no_l2",
        lambda: _cold_run(MemorySystemConfig(l2=None)),
        TOTAL_CYCLES_NO_L2,
    )
