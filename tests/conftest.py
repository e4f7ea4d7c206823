"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _ledger_in_tmp(tmp_path, monkeypatch):
    """Keep tests hermetic: CLI invocations that default their run ledger
    through the environment land in the test's tmp dir, never the repo."""
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "test-ledger.jsonl"))


@pytest.fixture(autouse=True)
def _schedule_cache_in_tmp(tmp_path, monkeypatch):
    """Same hermeticity for the tuned-schedule cache a CLI invocation
    without ``--schedule-cache`` opens: a per-test file."""
    monkeypatch.setenv(
        "REPRO_SCHEDULE_CACHE", str(tmp_path / "test-schedules.jsonl")
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_config():
    """A 4x4 systolic config small enough for structural simulation."""
    from repro.core.config import GemminiConfig

    return GemminiConfig(
        mesh_rows=4,
        mesh_cols=4,
        tile_rows=1,
        tile_cols=1,
        sp_capacity_bytes=4 * 4 * 256,  # 256 rows of 4 int8 elements
        sp_banks=2,
        acc_capacity_bytes=4 * 16 * 64,  # 64 rows of 4 int32 elements
        acc_banks=2,
    )


@pytest.fixture
def default_config():
    from repro.core.config import default_config as make

    return make()
