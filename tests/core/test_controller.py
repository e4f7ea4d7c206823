"""Unit tests for the scoreboard and the decoupled controller."""

import pytest

from repro.core.controller import Controller, Op, Scoreboard


def run(ctl, ops):
    """Issue ``ops`` in program order; returns the drain time."""
    for op in ops:
        ctl.issue(op)
    return ctl.drain()


class TestScoreboard:
    def test_raw_hazard(self):
        sb = Scoreboard()
        sb.commit(reads=(), writes=("x",), read_end=10.0, write_end=10.0)
        assert sb.earliest_start(reads=("x",), writes=()) == 10.0

    def test_war_hazard(self):
        sb = Scoreboard()
        sb.commit(reads=("x",), writes=(), read_end=7.0, write_end=7.0)
        assert sb.earliest_start(reads=(), writes=("x",)) == 7.0

    def test_waw_hazard(self):
        sb = Scoreboard()
        sb.commit(reads=(), writes=("x",), read_end=5.0, write_end=5.0)
        assert sb.earliest_start(reads=(), writes=("x",)) == 5.0

    def test_independent_tokens_no_hazard(self):
        sb = Scoreboard()
        sb.commit(reads=(), writes=("x",), read_end=10.0, write_end=10.0)
        assert sb.earliest_start(reads=("y",), writes=("z",)) == 0.0

    def test_read_read_no_hazard(self):
        sb = Scoreboard()
        sb.commit(reads=("x",), writes=(), read_end=10.0, write_end=10.0)
        assert sb.earliest_start(reads=("x",), writes=()) == 0.0

    def test_split_read_write_commit_times(self):
        sb = Scoreboard()
        sb.commit(reads=("r",), writes=("w",), read_end=5.0, write_end=20.0)
        assert sb.earliest_start(reads=("w",), writes=()) == 20.0
        assert sb.earliest_start(reads=(), writes=("r",)) == 5.0

    def test_latest_time_wins(self):
        sb = Scoreboard()
        sb.commit(reads=(), writes=("x",), read_end=10.0, write_end=10.0)
        sb.commit(reads=(), writes=("x",), read_end=5.0, write_end=5.0)
        assert sb.earliest_start(reads=("x",), writes=()) == 10.0


class TestController:
    def test_independent_units_overlap(self):
        ctl = Controller()
        ops = [
            Op(unit="load", cycles=100.0, writes=("a",)),
            Op(unit="store", cycles=100.0, reads=("b",)),
        ]
        end = run(ctl, ops)
        # Both finish around 100 cycles, not 200: they overlapped.
        assert end < 150.0

    def test_same_unit_serializes(self):
        ctl = Controller()
        ops = [
            Op(unit="load", cycles=100.0, writes=("a",)),
            Op(unit="load", cycles=100.0, writes=("b",)),
        ]
        end = run(ctl, ops)
        assert end >= 200.0

    def test_raw_dependency_serializes_across_units(self):
        ctl = Controller()
        ops = [
            Op(unit="load", cycles=100.0, writes=("tile",)),
            Op(unit="exec", cycles=50.0, reads=("tile",), writes=("out",)),
        ]
        end = run(ctl, ops)
        assert end >= 150.0

    def test_double_buffering_overlaps(self):
        """The classic pattern: load B while computing on A."""
        ctl = Controller()
        ops = [
            Op(unit="load", cycles=100.0, writes=("A",)),
            Op(unit="exec", cycles=100.0, reads=("A",), writes=("outA",)),
            Op(unit="load", cycles=100.0, writes=("B",)),  # overlaps exec on A
            Op(unit="exec", cycles=100.0, reads=("B",), writes=("outB",)),
        ]
        end = run(ctl, ops)
        assert end == pytest.approx(300.0, abs=10.0)

    def test_war_blocks_buffer_reuse(self):
        ctl = Controller()
        ops = [
            Op(unit="load", cycles=10.0, writes=("A",)),
            Op(unit="exec", cycles=100.0, reads=("A",)),
            Op(unit="load", cycles=10.0, writes=("A",)),  # must wait for exec
        ]
        end = run(ctl, ops)
        assert end >= 120.0

    def test_write_latency_defers_visibility(self):
        ctl = Controller()
        ops = [
            Op(unit="exec", cycles=10.0, writes=("C",), write_latency=20.0),
            Op(unit="store", cycles=5.0, reads=("C",)),
        ]
        end = run(ctl, ops)
        assert end >= 35.0

    def test_barrier_waits_for_all(self):
        ctl = Controller()
        ops = [
            Op(unit="load", cycles=100.0, writes=("a",)),
            Op(unit="exec", cycles=30.0),
            Op(unit="exec", barrier=True),
            Op(unit="exec", cycles=1.0),
        ]
        end = run(ctl, ops)
        assert end >= 101.0

    def test_rob_backpressure(self):
        narrow = Controller(rob_entries=1)
        wide = Controller(rob_entries=64)

        def ops():
            loads = [Op(unit="load", cycles=50.0, writes=(f"l{i}",)) for i in range(4)]
            execs = [Op(unit="exec", cycles=50.0, reads=(f"l{i}",)) for i in range(4)]
            return loads + execs

        t_narrow = run(narrow, ops())
        t_wide = run(wide, ops())
        assert t_narrow >= t_wide

    def test_run_callback_op(self):
        ctl = Controller()
        seen = []

        def transfer(start):
            seen.append(start)
            return start + 42.0

        end = ctl.issue(Op(unit="load", run=transfer))
        assert len(seen) == 1
        assert end >= 42.0

    def test_run_returning_past_raises(self):
        ctl = Controller()
        with pytest.raises(ValueError):
            ctl.issue(Op(unit="load", run=lambda start: start - 1.0))

    def test_op_validation(self):
        with pytest.raises(ValueError):
            Op(unit="load")  # neither cycles nor run
        with pytest.raises(ValueError):
            Op(unit="load", cycles=1.0, run=lambda s: s)  # both
        with pytest.raises(ValueError):
            Op(unit="warp", cycles=1.0)  # unknown unit

    def test_drain_returns_quiesce_time(self):
        ctl = Controller()
        ctl.issue(Op(unit="load", cycles=100.0))
        assert ctl.drain() >= 100.0

    def test_dispatch_cost_accumulates(self):
        ctl = Controller(dispatch_cycles=1.0)
        end = run(ctl, [Op(unit="exec", cycles=0.0) for __ in range(10)])
        assert end >= 10.0

    def test_reset(self):
        ctl = Controller()
        ctl.issue(Op(unit="load", cycles=10.0, writes=("a",)))
        ctl.reset()
        assert ctl.now == 0.0
        assert ctl.scoreboard.earliest_start(("a",), ()) == 0.0
