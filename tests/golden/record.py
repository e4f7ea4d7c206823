"""Regenerate the committed golden fingerprints.

    python tests/golden/record.py

Runs every case of the matrix in ``golden_cases.py`` and rewrites
``fingerprints.json`` next to this script.  It is the only way that file
changes: review ``git diff tests/golden/`` before committing, because every
changed value is a changed simulator output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from golden_cases import CASES, GOLDEN_PATH, SCHEMA, digest, fingerprint  # noqa: E402


def main() -> int:
    cases = {}
    for case in CASES:
        t0 = time.perf_counter()
        values = fingerprint(case)
        cases[case] = {"digest": digest(values), "values": values}
        print(f"{case:28s} {cases[case]['digest'][:16]}  {time.perf_counter() - t0:6.2f} s")
    text = json.dumps({"schema": SCHEMA, "cases": cases}, indent=2, sort_keys=True)
    GOLDEN_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
