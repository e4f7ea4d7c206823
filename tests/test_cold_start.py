"""Timing-only paths never import numpy.

numpy is imported only inside code that builds arrays.  A ``run`` or a
``tune`` prices every operation on plain ints, so each path below runs in a
fresh interpreter and must finish with numpy absent from ``sys.modules``:
importing it would cost every short simulation its import time and RSS.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: the package's own root, so the child finds it from any working directory
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])

PRELUDE = """
from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.models import build_model
from repro.sw.compiler import compile_graph

config = default_config()
model = compile_graph(
    build_model("squeezenet", input_hw=32), SoftwareParams.from_config(config)
)
"""

PATHS = {
    "runtime_run": PRELUDE
    + """
from repro.soc.soc import make_soc
from repro.sw.runtime import Runtime

result = Runtime(make_soc(gemmini=config).tile, model).run()
assert result.total_cycles > 0
""",
    "tune_model": PRELUDE
    + """
from repro.sw.schedule_cache import ScheduleCache
from repro.sw.tune import tune_model

results = tune_model(model, config, cache=ScheduleCache(WORKDIR + "/s.jsonl"), verify_top_k=2)
assert results
""",
    "cli_run": """
from repro.cli import main

assert main(["run", "squeezenet", "--input-hw", "32", "--ledger", WORKDIR + "/l.jsonl"]) == 0
""",
    "cli_tune": """
from repro.cli import main

assert main([
    "tune", "squeezenet", "--input-hw", "32", "--ledger", WORKDIR + "/l.jsonl",
    "--schedule-cache", WORKDIR + "/s.jsonl",
]) == 0
""",
}


def run_fresh(source: str, workdir) -> dict:
    """Run ``source`` in a new interpreter; return what it reports."""
    script = f"WORKDIR = {str(workdir)!r}\n" + textwrap.dedent(source) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps({"numpy_loaded": "numpy" in sys.modules}))
        """
    )
    pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("path", sorted(PATHS))
def test_path_never_imports_numpy(path, tmp_path):
    assert run_fresh(PATHS[path], tmp_path) == {"numpy_loaded": False}


def test_cli_run_ledger_records_numpy_version(tmp_path):
    """The ledger's provenance names numpy's version without importing it."""
    run_fresh(PATHS["cli_run"], tmp_path)
    (line,) = (tmp_path / "l.jsonl").read_text().splitlines()
    import numpy

    assert json.loads(line)["provenance"]["numpy"] == numpy.__version__


def test_functional_model_still_imports_numpy(tmp_path):
    """The control: moving real bytes through the accelerator loads numpy,
    so the probe above can tell the two apart."""
    source = """
    from repro.core.accelerator import Accelerator
    from repro.core.config import default_config

    accel = Accelerator(default_config())
    __, rows = accel.scratchpad.read(0.0, 0, 1)
    assert not rows.any()
    """
    assert run_fresh(source, tmp_path) == {"numpy_loaded": True}
