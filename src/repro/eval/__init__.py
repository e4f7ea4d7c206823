"""Experiment runners: one per table and figure of the paper.

Each ``run_*`` function reproduces one evaluation artifact and returns a
structured result carrying both the measured values and the paper's
published reference points, so benches and tests can compare shapes.

The experiments and the runner load on first attribute access: the CLI
formats its tables through this package, and a ``run`` or ``tune`` must
not pay for the figure experiments' imports.
"""

from importlib import import_module

from repro.eval.report import format_table
from repro.eval.tables import TABLE_I, format_table_i

#: lazily exported name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "EXPERIMENTS",
            "Fig3Result",
            "Fig4Result",
            "Fig6Result",
            "Fig7Result",
            "Fig8Result",
            "Fig9Result",
            "run_fig3",
            "run_fig4",
            "run_fig6",
            "run_fig7",
            "run_fig8",
            "run_fig9",
            "run_figures",
        ),
        "repro.eval.experiments",
    ),
    **dict.fromkeys(
        ("ExperimentRunner", "ExperimentSpec", "ResultCache", "config_hash"),
        "repro.eval.runner",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "TABLE_I",
    "format_table_i",
    "EXPERIMENTS",
    "run_figures",
    "ExperimentRunner",
    "ExperimentSpec",
    "ResultCache",
    "config_hash",
    "Fig3Result",
    "Fig4Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "run_fig3",
    "run_fig4",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "format_table",
]
