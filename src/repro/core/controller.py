"""The decoupled controller: dependency management plus execution units.

Gemmini's controller (Figure 1, "Dependency Mgmt") dispatches RoCC commands
to three decoupled units — load (MVIN), execute (PRELOAD/COMPUTE) and store
(MVOUT) — and an ROB-style scoreboard stalls commands until their operands'
regions are free of hazards.  The same structure is used here at both
instruction and macro-tile granularity: an :class:`Op` names the unit it
occupies, the region tokens it reads and writes, and how long (or how) it
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Hashable, Iterable, Sequence

from repro.sim.timeline import Timeline

Token = Hashable


class Scoreboard:
    """Region-token scoreboard enforcing RAW/WAR/WAW ordering.

    Tokens are arbitrary hashables: ``("sp", row)`` at instruction
    granularity, buffer names like ``("buf", "A0")`` at macro granularity.
    """

    def __init__(self) -> None:
        self._last_read_end: dict[Token, float] = {}
        self._last_write_end: dict[Token, float] = {}

    def earliest_start(self, reads: Iterable[Token], writes: Iterable[Token]) -> float:
        """The earliest time an op with these sets may begin."""
        start = 0.0
        writes_seen = self._last_write_end
        reads_seen = self._last_read_end
        for token in reads:  # RAW: wait for writers
            t = writes_seen.get(token)
            if t is not None and t > start:
                start = t
        for token in writes:  # WAW + WAR: wait for writers and readers
            t = writes_seen.get(token)
            if t is not None and t > start:
                start = t
            t = reads_seen.get(token)
            if t is not None and t > start:
                start = t
        return start

    def commit(
        self,
        reads: Iterable[Token],
        writes: Iterable[Token],
        read_end: float,
        write_end: float | None = None,
    ) -> None:
        """Record that an op used these regions (writes may land later)."""
        if write_end is None:
            write_end = read_end
        reads_seen = self._last_read_end
        writes_seen = self._last_write_end
        for token in reads:
            if reads_seen.get(token, -1.0) < read_end:
                reads_seen[token] = read_end
        for token in writes:
            if writes_seen.get(token, -1.0) < write_end:
                writes_seen[token] = write_end

    def reset(self) -> None:
        self._last_read_end.clear()
        self._last_write_end.clear()


UNITS = ("load", "exec", "store")


@dataclass
class Op:
    """One unit of work for the controller.

    Exactly one of ``cycles`` or ``run`` must be provided.  ``run`` is called
    with the op's start time and must return its end time (used for DMA ops,
    which book shared memory resources themselves); ``floor`` is a lower
    bound on that duration (a DMA op's is :meth:`DMAEngine.floor
    <repro.core.dma.DMAEngine.floor>`).  ``barrier`` ops (FENCE) wait for
    all previously issued work.
    """

    unit: str
    cycles: float | None = None
    run: Callable[[float], float] | None = None
    reads: tuple[Token, ...] = ()
    writes: tuple[Token, ...] = ()
    barrier: bool = False
    label: str = ""
    #: Extra cycles after the unit frees before results become visible
    #: (models the spatial array's pipeline drain into the accumulator).
    write_latency: float = 0.0
    #: Least cycles ``run`` takes from its start; only the drain bound
    #: (:meth:`Controller.drain_bounds`) reads it.
    floor: float = 0.0

    def __post_init__(self) -> None:
        if not self.barrier:
            if self.unit not in UNITS:
                raise ValueError(f"unknown unit {self.unit!r}")
            if (self.cycles is None) == (self.run is None):
                raise ValueError("exactly one of cycles/run must be set")


@dataclass
class ExecutionResult:
    """Completion summary of one op sequence."""

    end_time: float
    ops_executed: int


class Controller:
    """In-order dispatch, per-unit in-order execution, ROB-bounded overlap.

    :meth:`drain_bounds` relaxes these rules into a max-plus critical path
    over a known op list, a lower bound on the drain after any prefix of
    it (the tuner's verification stops a losing candidate on it).
    """

    def __init__(self, rob_entries: int = 16, dispatch_cycles: float = 1.0) -> None:
        if rob_entries < 1:
            raise ValueError("rob_entries must be >= 1")
        self.rob_entries = rob_entries
        self.dispatch_cycles = dispatch_cycles
        self.units = {name: Timeline(name) for name in UNITS}
        self.scoreboard = Scoreboard()
        self._inflight_ends: list[float] = []
        self._clock = 0.0

    # ------------------------------------------------------------------ #

    def execute(self, ops: Iterable[Op], start_time: float = 0.0) -> ExecutionResult:
        """Run ``ops`` in program order; returns the completion summary."""
        if start_time > self._clock:
            self._clock = start_time
        count = 0
        last_end = self._clock
        for op in ops:
            last_end = max(last_end, self.issue(op))
            count += 1
        return ExecutionResult(end_time=last_end, ops_executed=count)

    def issue(self, op: Op) -> float:
        """Dispatch a single op; returns its completion time.

        Public so multi-core runtimes can interleave op issue across cores
        (see :class:`repro.sim.engine.EventLoop`).  The interleaving is
        by dispatch clock, not by the times the op books the shared bus, L2
        and DRAM; those bookings are made in call order, so ops of different
        cores do not reach shared state in global time order (ROADMAP item M).
        """
        return self._issue(op)

    def drain(self) -> float:
        """Wait for all in-flight ops; returns the drain completion time."""
        end = max(self._inflight_ends, default=self._clock)
        self._inflight_ends.clear()
        self._clock = max(self._clock, end)
        return self._clock

    def advance_to(self, time: float) -> float:
        """Move the dispatch clock forward (models host-CPU busy time)."""
        if time > self._clock:
            self._clock = time
        return self._clock

    # ------------------------------------------------------------------ #

    def _issue(self, op: Op) -> float:
        # Front-end dispatch: one op per dispatch_cycles.
        self._clock += self.dispatch_cycles

        if op.barrier:
            return self._barrier()

        # ROB backpressure: dispatch stalls while the ROB is full.
        if len(self._inflight_ends) >= self.rob_entries:
            self._inflight_ends.sort()
            freed_at = self._inflight_ends[-self.rob_entries]
            if freed_at > self._clock:
                self._clock = freed_at

        earliest = max(self._clock, self.scoreboard.earliest_start(op.reads, op.writes))
        unit = self.units[op.unit]
        if op.run is not None:
            start = unit.peek(earliest)
            end = op.run(start)
            if end < start:
                raise ValueError(f"op {op.label!r} returned end {end} < start {start}")
            unit.book(earliest, end - start)
        else:
            __, end = unit.book(earliest, op.cycles)
        commit_end = end + op.write_latency
        self.scoreboard.commit(op.reads, op.writes, end, commit_end)
        end = commit_end
        self._inflight_ends.append(end)
        if len(self._inflight_ends) > 4 * self.rob_entries:
            # Keep only entries that can still constrain dispatch.
            self._inflight_ends.sort()
            del self._inflight_ends[: -2 * self.rob_entries]
        return end

    def _barrier(self) -> float:
        end = max(self._inflight_ends, default=self._clock)
        self._inflight_ends.clear()
        self._clock = max(self._clock, end)
        return self._clock

    def drain_bounds(self, ops: Sequence[Op]) -> Callable[[int], float]:
        """Lower bounds on :meth:`drain` while ``ops`` are issued in order.

        Returns ``bound(done)``: once ``ops[:done]`` and nothing else have
        gone through :meth:`issue` since this call, the drain after the
        rest of ``ops`` is at least ``bound(done)``, whatever the
        remaining ops' ``run`` callbacks return.

        The bound relaxes :meth:`_issue`.  Each remaining op dispatches
        ``dispatch_cycles`` after the previous one, waits for its unit and
        its tokens (RAW, WAR, WAW) as the scoreboard makes it, takes its
        least duration (``cycles``, or ``floor`` for a ``run`` op) and
        commits as ``_issue`` does; a barrier waits for the latest end.
        The ROB limit is dropped.  Every dropped rule and every longer
        duration only delays the real controller, so the relaxed drain is
        a lower bound on the real one.  The relaxed system is max-plus
        linear in the controller's state (clock, latest in-flight end,
        each unit's ``next_free``, each token's read and write ends), so
        one backward pass over ``ops`` gives, before every op, each state
        variable's longest path to the drain; ``bound(done)`` is the
        largest state value plus path, O(units + tokens) per call.

        Float rounding stays on the safe side: the relaxation adds its
        terms in another order than the simulation, and a DMA floor
        multiplies what a transfer adds row by row.  A sum of ``n``
        non-negative terms is within a relative ``n * 2**-53`` of its exact
        value in any order, so scaling the bound down by ``2**-30`` keeps
        it at or below the simulated drain while a path adds fewer than
        ``2**22`` terms (millions of DMA rows).
        """
        neg = float("-inf")
        dispatch = self.dispatch_cycles
        # State layout: clock, latest end, the units, then each token's
        # read end at its index and its write end at the next one.
        unit_index = {name: i for i, name in enumerate(UNITS, 2)}
        token_index: dict[Token, int] = {}
        for op in ops:
            for token in (*op.reads, *op.writes):
                if token not in token_index:
                    token_index[token] = 2 + len(UNITS) + 2 * len(token_index)
        # After the last op the drain is max(clock, latest end).
        tail = [0.0, 0.0] + [neg] * (len(UNITS) + 2 * len(token_index))
        tails = [tail]
        for op in reversed(ops):
            after = tail
            tail = after.copy()
            if op.barrier:
                waited = max(after[0], after[1])
                tail[0] = dispatch + waited
                tail[1] = waited
                tails.append(tail)
                continue
            unit = unit_index[op.unit]
            reads = [token_index[token] for token in op.reads]
            writes = [token_index[token] for token in op.writes]
            # The op's end feeds its unit and its read ends; the end plus
            # write_latency feeds the latest end and its write ends.
            fed = max(
                after[unit],
                *[after[r] for r in reads],
                op.write_latency + max([after[1]] + [after[w + 1] for w in writes]),
            )
            # From the op's start: its least duration, then the tails above.
            # The start waits for the clock, the unit, every token's write
            # end and the written tokens' read ends.
            via = fed + (op.cycles if op.run is None else op.floor)
            tail[0] = dispatch + max(after[0], via)
            tail[unit] = via
            for r in (*reads, *writes):
                tail[r + 1] = max(tail[r + 1], via)
            for w in writes:
                tail[w] = max(tail[w], via)
            tails.append(tail)
        tails.reverse()

        units = [self.units[name] for name in UNITS]
        read_ends = self.scoreboard._last_read_end
        write_ends = self.scoreboard._last_write_end
        tokens = list(token_index)
        shrink = 1.0 - 2.0**-30

        def bound(done: int) -> float:
            clock = self._clock
            state = [clock, max(self._inflight_ends, default=clock)]
            state += [unit.next_free for unit in units]
            for token in tokens:
                state.append(read_ends.get(token, neg))
                state.append(write_ends.get(token, neg))
            return max(map(add, state, tails[done])) * shrink

        return bound

    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        return self._clock

    def reset(self) -> None:
        for unit in self.units.values():
            unit.reset()
        self.scoreboard.reset()
        self._inflight_ends.clear()
        self._clock = 0.0
