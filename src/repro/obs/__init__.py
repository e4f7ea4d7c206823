"""Unified telemetry: run-scoped tracing, streaming metrics, exporters.

The observability substrate every execution layer reports through:

* :mod:`repro.obs.tracer` — the run-scoped :class:`Tracer` (complete
  spans, instants, counters on named lanes, stamped with run id + seed;
  a lane's spans never nest or overlap) and its zero-overhead disabled
  form :data:`NULL_TRACER`;
* :mod:`repro.obs.metrics` — :class:`MetricStream` of exact streamed
  histograms, so p50/p95/p99, goodput and utilisation are readable
  *while* a simulation is in flight;
* :mod:`repro.obs.export` — Chrome Trace Event Format JSON (loads in
  Perfetto / ``chrome://tracing``; lanes = tiles/workers/strategies;
  every span one ``X`` event), the CI schema validator, and flat
  metrics JSON/CSV;
* :mod:`repro.obs.summary` — post-hoc trace digestion backing the
  ``gemmini-repro trace`` subcommand (top spans by total time, lane busy
  as the sum of its spans, queue-vs-service split per lane, cache hit
  ratio).

Instrumented layers (`repro.serve.cluster`, `repro.eval.runner`,
`repro.dse.engine`, `repro.sw.runtime`) accept a tracer/stream and default
to the null singletons, so the disabled cost is one empty method call per
event site — never an ``if enabled`` branch in a hot loop.

Persistence and comparison ride on the same substrate:

* :mod:`repro.obs.ledger` — the append-only provenance-stamped run
  ledger (``gemmini-repro history``), the durable sample store every
  CLI run and benchmark reports into;
* :mod:`repro.obs.regress` — statistical regression gates over ledgered
  history (``gemmini-repro regress`` / ``compare``);
* :mod:`repro.obs.diff` — span-stem/lane-aligned diffing of two exported
  traces (``gemmini-repro trace --diff``).

The exporters, summaries, diffs and regression gates load on first
attribute access: every simulating command imports this package, and a
``run`` or ``tune`` must not pay for their imports.
"""

import itertools as _itertools
import os as _os
import uuid as _uuid
from importlib import import_module as _import_module

#: monotone per-process counter backing run ids (shared by the tracer,
#: metric streams and ledger records, so artifacts join on one id)
_RUN_IDS = _itertools.count(1)

#: random token minted at import: keeps ids from different hosts / CI
#: runs distinct even when pids and counters collide (the regression
#: gate dedups baseline vs candidate records by run id); the pid stays
#: in the id because forked workers inherit this module's state
_PROC_TOKEN = _uuid.uuid4().hex[:6]


def new_run_id(prefix: str = "run") -> str:
    """Mint a fresh run id: ``<prefix>-<token>-<pid>-<n>``.

    The ONE stamping helper every telemetry artifact uses — a
    :class:`Tracer`, its :class:`MetricStream` and the run's ledger
    record share the id when the caller mints it once and passes it to
    all three, so ``--metrics-out`` files and ``--trace-out`` timelines
    can be joined against ``gemmini-repro history`` rows.
    """
    return f"{prefix}-{_PROC_TOKEN}-{_os.getpid()}-{next(_RUN_IDS)}"


from repro.obs.ledger import (  # noqa: E402
    NULL_LEDGER,
    NullLedger,
    RunLedger,
    RunRecord,
    default_ledger_path,
    ledger_from_env,
    merge_ledgers,
    provenance,
)
from repro.obs.metrics import (  # noqa: E402
    NULL_METRICS,
    MetricStream,
    NullMetricStream,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer  # noqa: E402

#: lazily exported name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "TraceDiff",
            "diff_summaries",
            "diff_traces",
            "format_trace_diff",
            "trace_diff_to_dict",
        ),
        "repro.obs.diff",
    ),
    **dict.fromkeys(
        (
            "export_metrics_csv",
            "export_metrics_json",
            "metrics_to_dict",
            "to_chrome_trace",
            "validate_chrome_trace",
            "write_chrome_trace",
        ),
        "repro.obs.export",
    ),
    **dict.fromkeys(
        (
            "MetricDelta",
            "RegressionReport",
            "compare_records",
            "compare_samples",
            "detect_regressions",
            "format_regression_report",
            "metric_direction",
        ),
        "repro.obs.regress",
    ),
    **dict.fromkeys(
        ("TraceSummary", "format_trace_summary", "load_trace", "summarize_trace"),
        "repro.obs.summary",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "new_run_id",
    "RunLedger",
    "RunRecord",
    "NullLedger",
    "NULL_LEDGER",
    "provenance",
    "default_ledger_path",
    "ledger_from_env",
    "merge_ledgers",
    "MetricDelta",
    "RegressionReport",
    "compare_records",
    "compare_samples",
    "detect_regressions",
    "format_regression_report",
    "metric_direction",
    "TraceDiff",
    "diff_traces",
    "diff_summaries",
    "format_trace_diff",
    "trace_diff_to_dict",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricStream",
    "NullMetricStream",
    "NULL_METRICS",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_to_dict",
    "export_metrics_json",
    "export_metrics_csv",
    "TraceSummary",
    "summarize_trace",
    "load_trace",
    "format_trace_summary",
]
