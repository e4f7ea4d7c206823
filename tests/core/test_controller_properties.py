"""Property tests: the decoupled controller against reference bounds.

For random op sequences, the controller's completion time must be
(a) no later than fully serial execution — decoupling can only help — and
(b) no earlier than both the per-unit busy-time bound and the dependency
critical path.  Together these bracket the scheduler's legal behaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import Controller, Op

TOKENS = ["a", "b", "c", "d"]

op_strategy = st.builds(
    lambda unit, cycles, reads, writes: Op(
        unit=unit,
        cycles=float(cycles),
        reads=tuple(reads),
        writes=tuple(writes),
    ),
    unit=st.sampled_from(["load", "exec", "store"]),
    cycles=st.integers(min_value=1, max_value=50),
    reads=st.sets(st.sampled_from(TOKENS), max_size=2),
    writes=st.sets(st.sampled_from(TOKENS), max_size=2),
)


def run(controller, ops):
    """Issue ``ops`` in program order; returns the drain time."""
    for op in ops:
        controller.issue(op)
    return controller.drain()


def serial_end(ops, dispatch=1.0):
    """Reference: fully serialised execution."""
    return sum(op.cycles + dispatch for op in ops)


def unit_busy_bound(ops):
    """Lower bound: the busiest unit's total work."""
    busy = {"load": 0.0, "exec": 0.0, "store": 0.0}
    for op in ops:
        busy[op.unit] += op.cycles
    return max(busy.values())


def critical_path_bound(ops):
    """Lower bound: the longest dependency chain through the tokens."""
    ready: dict[str, float] = {}
    finish_prev = 0.0
    for op in ops:
        start = 0.0
        for token in op.reads:
            start = max(start, ready.get(token, 0.0))
        for token in op.writes:
            start = max(start, ready.get(token, 0.0))
        end = start + op.cycles
        for token in op.writes:
            ready[token] = end
        finish_prev = max(finish_prev, end)
    return finish_prev


class TestControllerBounds:
    @given(st.lists(op_strategy, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_never_slower_than_serial(self, ops):
        end = run(Controller(rob_entries=64), ops)
        assert end <= serial_end(ops) + 1e-6

    @given(st.lists(op_strategy, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_respects_unit_busy_bound(self, ops):
        end = run(Controller(rob_entries=64, dispatch_cycles=0.0), ops)
        assert end >= unit_busy_bound(ops) - 1e-6

    @given(st.lists(op_strategy, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_respects_dependency_critical_path(self, ops):
        end = run(Controller(rob_entries=64, dispatch_cycles=0.0), ops)
        assert end >= critical_path_bound(ops) - 1e-6

    @given(st.lists(op_strategy, min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_smaller_rob_never_faster(self, ops):
        assert run(Controller(rob_entries=1), ops) >= run(Controller(rob_entries=64), ops) - 1e-6


def make_run(duration):
    return lambda start: start + duration


#: ops with a least duration: fixed-cycle ops, ``run`` ops taking their
#: ``floor`` plus some extra, and barriers
bounded_op = st.one_of(
    st.builds(
        lambda unit, cycles, latency, reads, writes: Op(
            unit=unit, cycles=float(cycles), write_latency=float(latency),
            reads=tuple(reads), writes=tuple(writes),
        ),
        unit=st.sampled_from(["load", "exec", "store"]),
        cycles=st.integers(0, 50),
        latency=st.integers(0, 5),
        reads=st.sets(st.sampled_from(TOKENS), max_size=2),
        writes=st.sets(st.sampled_from(TOKENS), max_size=2),
    ),
    st.builds(
        lambda unit, floor, extra, reads, writes: Op(
            unit=unit, run=make_run(float(floor + extra)), floor=float(floor),
            reads=tuple(reads), writes=tuple(writes),
        ),
        unit=st.sampled_from(["load", "store"]),
        floor=st.integers(0, 50),
        extra=st.integers(0, 30),
        reads=st.sets(st.sampled_from(TOKENS), max_size=2),
        writes=st.sets(st.sampled_from(TOKENS), max_size=2),
    ),
    st.just(Op(unit="exec", barrier=True)),
)


def prefix_bounds(controller, ops):
    """``drain_bounds`` after each prefix of ``ops`` (none issued, then one
    more at a time), and the drain."""
    bound = controller.drain_bounds(ops)
    bounds = [bound(0)]
    for done, op in enumerate(ops, 1):
        controller.issue(op)
        bounds.append(bound(done))
    return bounds, controller.drain()


class TestDrainBounds:
    @given(
        st.lists(bounded_op, max_size=30),
        st.integers(1, 8),
        st.sampled_from([0.0, 1.0, 3.0]),
        st.integers(0, 40),
    )
    @settings(max_examples=100)
    def test_every_prefix_bounds_the_drain_from_below(self, ops, rob, dispatch, warm):
        """ROB stalls and ``run`` ops that outlast their floor only delay
        the real controller, so no prefix's bound exceeds the drain."""
        controller = Controller(rob_entries=rob, dispatch_cycles=dispatch)
        controller.advance_to(float(warm))
        bounds, drain = prefix_bounds(controller, ops)
        assert max(bounds) <= drain

    @given(st.lists(bounded_op, max_size=30), st.sampled_from([0.0, 1.0, 3.0]))
    @settings(max_examples=100)
    def test_bound_is_the_drain_when_nothing_is_relaxed(self, ops, dispatch):
        """With a ROB that never fills and every ``run`` op taking exactly
        its floor, the relaxation is ``issue`` itself: every prefix's bound
        is the drain, scaled down by the rounding allowance."""
        exact = [
            op if op.run is None else Op(
                unit=op.unit, run=make_run(op.floor), floor=op.floor,
                reads=op.reads, writes=op.writes,
            )
            for op in ops
        ]
        controller = Controller(rob_entries=64, dispatch_cycles=dispatch)
        bounds, drain = prefix_bounds(controller, exact)
        assert bounds == [drain * (1.0 - 2.0**-30)] * len(bounds)
