"""Checkpoint/resume: a killed serving run must resume bitwise.

The event engine parks all tile actors at the first quiescent point
(nothing in flight) after every ``checkpoint_every`` completions and
pickles the whole simulation.  ``run(stop_after_checkpoints=N)`` is the
simulated kill: it halts after writing N checkpoints, so everything the
resumed run sees comes from the pickle alone — exactly what a
SIGKILL-and-restart exercises.
"""

import pickle

import pytest

from repro.obs.metrics import MetricStream
from repro.serve import (
    ServingSimulation,
    TenantSpec,
    TrafficProfile,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.checkpoint import CHECKPOINT_SCHEMA

MODEL = dict(model="squeezenet", input_hw=32)


def study_profile(seed=7):
    return TrafficProfile(
        tenants=(
            TenantSpec(
                name="web", arrival="poisson", rate_qps=300.0,
                num_requests=14, slo_ms=5.0, **MODEL,
            ),
            TenantSpec(
                name="batchy", arrival="closed", num_requests=10,
                concurrency=2, think_ms=0.5, **MODEL,
            ),
        ),
        num_tiles=2,
        scheduler="fcfs",
        seed=seed,
    )


def assert_results_equal(resumed, full):
    assert resumed.records == full.records
    assert resumed.report.overall.summary() == full.report.overall.summary()
    assert resumed.issued == full.issued
    assert resumed.dropped == full.dropped
    assert resumed.makespan_cycles == full.makespan_cycles
    assert resumed.l2_miss_rate == full.l2_miss_rate
    assert resumed.dram_bytes == full.dram_bytes


class TestKillAndResume:
    def test_resumed_run_is_bitwise_identical(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        profile = study_profile()
        halted = ServingSimulation(
            profile, checkpoint_every=6, checkpoint_path=path
        ).run(stop_after_checkpoints=1)
        assert halted is None  # the run stopped at the barrier
        assert path.exists()

        full = ServingSimulation(profile).run()
        resumed_sim = load_checkpoint(path)
        result = resumed_sim.run()
        assert result is not None
        assert result.checkpoints >= 1
        assert_results_equal(result, full)

    def test_resume_from_a_later_checkpoint(self, tmp_path):
        # The file is overwritten at each barrier; resuming from the
        # second checkpoint replays a shorter tail but the same schedule.
        path = tmp_path / "serve.ckpt"
        profile = study_profile()
        halted = ServingSimulation(
            profile, checkpoint_every=2, checkpoint_path=path
        ).run(stop_after_checkpoints=2)
        assert halted is None
        full = ServingSimulation(profile).run()
        assert_results_equal(load_checkpoint(path).run(), full)

    def test_park_without_pickle_is_transparent(self):
        # The quiescent barrier itself (tear down generator frames, park,
        # rebuild the event loop) must not perturb timing even when no
        # checkpoint file is written.
        profile = study_profile()
        parked = ServingSimulation(profile, checkpoint_every=3).run()
        full = ServingSimulation(profile).run()
        assert_results_equal(parked, full)

    def test_saturated_run_checkpoints_at_first_drain(self, tmp_path):
        # Under saturating load the quiescent barrier may never trigger
        # mid-run; the run must then simply complete (checkpointing is
        # best-effort, correctness is not contingent on a drain showing up).
        path = tmp_path / "serve.ckpt"
        profile = study_profile(seed=11)
        result = ServingSimulation(
            profile, checkpoint_every=5, checkpoint_path=path
        ).run(stop_after_checkpoints=1)
        if result is None:  # a barrier did fire: resume must continue
            result = load_checkpoint(path).run()
        assert result.completed == result.issued == 24
        assert_results_equal(result, ServingSimulation(profile).run())


class TestCheckpointFiles:
    def test_save_requires_quiescence(self, tmp_path):
        sim = ServingSimulation(study_profile())
        sim._start()
        # Prime one actor so a macro-op stream is live, then refuse.
        actor = sim._actors[0]
        actor.step()
        if actor.stream is not None:
            with pytest.raises(RuntimeError, match="stream is live"):
                save_checkpoint(sim, tmp_path / "bad.ckpt")

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "wrong.ckpt"
        with open(path, "wb") as fh:
            pickle.dump({"schema": CHECKPOINT_SCHEMA + 1, "sim": None}, fh)
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(path)

    def test_garbage_payload_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        with open(path, "wb") as fh:
            pickle.dump({"schema": CHECKPOINT_SCHEMA, "sim": 42}, fh)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_metric_stream_sheds_live_consumer_on_pickle(self, tmp_path):
        seen = []
        metrics = MetricStream(every=4, on_snapshot=seen.append)
        path = tmp_path / "serve.ckpt"
        profile = study_profile()
        ServingSimulation(
            profile, metrics=metrics, checkpoint_every=6, checkpoint_path=path
        ).run(stop_after_checkpoints=1)
        sim = load_checkpoint(path)
        assert sim.metrics.on_snapshot is None  # closure did not survive
        assert sim.run() is not None
