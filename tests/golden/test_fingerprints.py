"""Golden behavioural fingerprints: every case must reproduce exactly.

``fingerprints.json`` pins the serving request logs, per-model cycles and
memory counters, the DSE front and the tuned-schedule table of a small
fixed matrix (``golden_cases.py``).  This module only reads the file;
``python tests/golden/record.py`` is the one way to regenerate it, and the
regenerated diff is what a reviewer reads.
"""

import pytest

from golden_cases import CASES, digest, fingerprint, load_golden

GOLDEN = load_golden()


def test_file_covers_the_matrix():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stored_digest_matches_stored_values(case):
    """A value edited by hand without re-recording fails here."""
    stored = GOLDEN["cases"][case]
    assert digest(stored["values"]) == stored["digest"]


@pytest.mark.parametrize("case", CASES)
def test_case_reproduces(case):
    stored = GOLDEN["cases"][case]
    values = fingerprint(case)
    assert values == stored["values"]
    assert digest(values) == stored["digest"]
