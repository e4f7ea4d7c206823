"""Unit tests for the event loop that merges per-core clock streams.

Most cases drive generators (the runtime's ``run_generator``) through
:func:`lockstep_merge`, which adds each generator's ``__next__`` in order
and returns every stream's final clock; :class:`TestEventLoop` drives the
loop directly with plain step callables (the serving tile actors' shape).
"""

import pytest

from repro.sim.engine import EventLoop


def make_stream(times, log=None, tag=None):
    def gen():
        for t in times:
            if log is not None:
                log.append((tag, t))
            yield t
    return gen()


def lockstep_merge(streams):
    """Run generators through one EventLoop; final clocks in stream order."""
    loop = EventLoop()
    indices = [loop.add(stream.__next__) for stream in streams]
    loop.run()
    return [loop.finished[i] for i in indices]


class TestEventLoop:
    def test_add_numbers_participants_in_order(self):
        loop = EventLoop()
        assert [loop.add(make_stream([1.0]).__next__) for __ in range(3)] == [0, 1, 2]
        assert len(loop) == 3
        loop.run()
        assert len(loop) == 0
        assert loop.finished == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_step_returning_none_finishes(self):
        """A plain callable ends by returning None, keeping its last clock."""
        clocks = iter([2.0, 5.0, None])
        loop = EventLoop()
        loop.add(lambda: next(clocks))
        loop.run()
        assert loop.finished == {0: 5.0}

    def test_finished_at_priming_leaves_the_heap(self):
        loop = EventLoop()
        assert loop.add(lambda: None) == 0
        assert len(loop) == 0
        assert loop.finished == {0: 0.0}

    def test_steps_laggard_first_with_index_ties(self):
        log = []

        class Actor:
            def __init__(self, tag, clocks):
                self.tag, self.clocks = tag, iter(clocks)

            def step(self):
                clock = next(self.clocks, None)
                log.append((self.tag, clock))
                return clock

        loop = EventLoop()
        loop.add(Actor("a", [1.0, 3.0]).step)
        loop.add(Actor("b", [1.0, 2.0]).step)
        loop.run()
        assert log == [
            ("a", 1.0), ("b", 1.0),  # priming, in add order
            ("a", 3.0),  # tie at 1.0: lower index steps first
            ("b", 2.0), ("b", None), ("a", None),
        ]
        assert loop.finished == {0: 3.0, 1: 2.0}

    def test_decreasing_step_raises(self):
        clocks = iter([4.0, 3.0])
        loop = EventLoop()
        loop.add(lambda: next(clocks))
        with pytest.raises(ValueError, match="decreasing time"):
            loop.run()


class TestLockstepMerge:
    def test_single_stream(self):
        assert lockstep_merge([make_stream([1.0, 2.0, 3.0])]) == [3.0]

    def test_laggard_advances_first(self):
        log = []
        streams = [
            make_stream([10.0, 20.0], log, "slow"),
            make_stream([1.0, 2.0, 3.0], log, "fast"),
        ]
        lockstep_merge(streams)
        # After priming, the fast stream (clock 1) must run before the slow
        # stream's second step (clock 10).
        order = [entry for entry in log if entry[1] > 1.0 or entry[0] == "fast"]
        assert ("fast", 2.0) in log
        assert log.index(("fast", 2.0)) < log.index(("slow", 20.0))
        assert log.index(("fast", 3.0)) < log.index(("slow", 20.0))
        assert order  # silence lint about unused variable

    def test_returns_final_times_in_order(self):
        streams = [make_stream([5.0]), make_stream([1.0, 7.0]), make_stream([3.0])]
        assert lockstep_merge(streams) == [5.0, 7.0, 3.0]

    def test_empty_stream(self):
        assert lockstep_merge([make_stream([])]) == [0.0]

    def test_no_streams(self):
        assert lockstep_merge([]) == []

    def test_decreasing_time_raises(self):
        with pytest.raises(ValueError):
            lockstep_merge([make_stream([5.0, 2.0])])

    def test_equal_times_allowed(self):
        assert lockstep_merge([make_stream([1.0, 1.0, 1.0])]) == [1.0]

    def test_empty_stream_set(self):
        """No streams at all: nothing to merge, nothing returned."""
        assert lockstep_merge(iter([])) == []

    def test_single_stream_runs_to_completion(self):
        log = []
        assert lockstep_merge([make_stream([0.5, 1.5, 9.0], log, "solo")]) == [9.0]
        assert log == [("solo", 0.5), ("solo", 1.5), ("solo", 9.0)]

    def test_mixed_empty_and_active_streams(self):
        """Streams exhausted at priming report 0.0 and don't block others."""
        streams = [make_stream([]), make_stream([4.0, 8.0]), make_stream([])]
        assert lockstep_merge(streams) == [0.0, 8.0, 0.0]

    def test_equal_clocks_break_ties_by_stream_index(self):
        """With identical clocks every step, order falls back to stream
        index — the determinism the dual-core runs rely on."""
        log = []
        streams = [
            make_stream([1.0, 2.0], log, 0),
            make_stream([1.0, 2.0], log, 1),
            make_stream([1.0, 2.0], log, 2),
        ]
        assert lockstep_merge(streams) == [2.0, 2.0, 2.0]
        # After priming (0,1,2 at clock 1), ties at each clock value must be
        # served lowest-index first.
        assert log == [
            (0, 1.0), (1, 1.0), (2, 1.0),
            (0, 2.0), (1, 2.0), (2, 2.0),
        ]

    def test_all_streams_share_constant_clock(self):
        streams = [make_stream([3.0, 3.0, 3.0]), make_stream([3.0])]
        assert lockstep_merge(streams) == [3.0, 3.0]

    def test_decreasing_after_equal_clock_raises(self):
        with pytest.raises(ValueError):
            lockstep_merge([make_stream([2.0, 2.0, 1.0])])

    def test_many_streams_scale(self):
        """Heap-based selection merges hundreds of streams correctly."""
        streams = [make_stream([float(i), float(i) + 100.0]) for i in range(200)]
        assert lockstep_merge(streams) == [float(i) + 100.0 for i in range(200)]

    def test_interleaving_is_time_ordered(self):
        log = []
        streams = [
            make_stream([2.0, 4.0, 6.0], log, "a"),
            make_stream([1.0, 3.0, 5.0], log, "b"),
        ]
        lockstep_merge(streams)
        # Events (after priming both) must be processed in global time order.
        times = [t for __, t in log]
        primed = sorted(times[:2])
        rest = times[2:]
        assert primed == [1.0, 2.0]
        assert rest == sorted(rest)


class TestServingShapedLoad:
    """Merge behaviour under the shapes the serving cluster produces: many
    per-tile streams, idle ticks landing on identical clocks, and tiles
    that drain far earlier than the rest."""

    def test_many_uneven_streams(self):
        """Dozens of streams with wildly different lengths all complete and
        report their own final clock (no cross-stream bleed)."""
        streams = [
            make_stream([float(j) * (i + 1) for j in range(1, 2 + (i % 17))])
            for i in range(64)
        ]
        expected = [float(1 + (i % 17)) * (i + 1) for i in range(64)]
        assert lockstep_merge(streams) == expected

    def test_tie_breaking_is_reproducible(self):
        """Identical runs interleave identically, even with heavy clock
        ties — the property that makes serving request logs replayable."""

        def run():
            log = []
            streams = [
                make_stream([1.0, 1.0, 5.0, 9.0], log, "t0"),
                make_stream([1.0, 2.0, 5.0], log, "t1"),
                make_stream([1.0, 5.0, 5.0, 5.0], log, "t2"),
            ]
            lockstep_merge(streams)
            return log

        first = run()
        for __ in range(3):
            assert run() == first

    def test_equal_clock_ties_prefer_lower_tile_index(self):
        log = []
        streams = [make_stream([4.0, 7.0], log, i) for i in range(5)]
        lockstep_merge(streams)
        assert log == [(i, 4.0) for i in range(5)] + [(i, 7.0) for i in range(5)]

    def test_early_finisher_does_not_stall_long_streams(self):
        """A tile that drains its queue early (short burst) must not hold
        back tiles still serving: the laggard rule keeps stepping them."""
        log = []
        short = make_stream([1.0], log, "short")
        long_a = make_stream([float(t) for t in range(2, 30)], log, "a")
        long_b = make_stream([float(t) + 0.5 for t in range(2, 30)], log, "b")
        ends = lockstep_merge([short, long_a, long_b])
        assert ends == [1.0, 29.0, 29.5]
        # Once the short stream is done, a/b strictly alternate (their
        # clocks interleave), which only happens if neither is blocked.
        tail = [tag for tag, __ in log if tag != "short"][-10:]
        assert tail == ["a", "b"] * 5

    def test_stream_finishing_at_zero_reports_priming_clock(self):
        """A stream that yields once and stops keeps its only clock."""
        ends = lockstep_merge([make_stream([0.0]), make_stream([3.0, 6.0])])
        assert ends == [0.0, 6.0]
