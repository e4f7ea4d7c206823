"""Macro-op trace record/replay: the full-SoC tier's fast path.

Serving simulations execute the *same* ``(model, tile-config)`` pair over
and over: every request of a resident replica re-walks an identical macro-op
stream through the decoupled controller, the TLB and the shared L2/DRAM.
Once that stream has reached steady state, re-simulating it per macro-op is
pure overhead — the NeuroScalar observation: record a detailed execution
once, then replay it cheaply in the wild.

This module implements that structure:

* :class:`TraceRecorder` drives one generator-path execution of a
  :class:`~repro.sw.runtime.Runtime` and records the macro-op stream into
  struct-of-arrays numpy columns — per-op dispatch clocks, and per shared
  memory interaction the physical address / byte count / VPN streams with
  their uncontended issue and completion offsets, plus per-segment deltas of
  every shared-resource counter.
* :class:`MacroTrace` replays a recorded stream at a new start time.
  Uncontended segments advance the clock by pure offset arithmetic and
  re-apply the recorded counter deltas; segments executed while another
  tile has work in flight are *re-resolved* against the live shared state:
  each op's translations go through
  :meth:`~repro.mem.tlb.TranslationSystem.translate_batch` and its physical
  accesses through the exact segment path,
  :meth:`~repro.mem.hierarchy.MemorySystem.access`, so cross-tile
  contention still books the shared L2/DRAM/PTW and slips the remainder of
  the schedule.
* :func:`record_steady_state_trace` produces a trace when in-situ recording
  can never run uncontended (a saturated multi-tenant cluster): it re-runs
  the runtime's model against an isolated sandbox memory system bound to
  the *same* virtual address space, yielding the uncontended steady-state
  baseline that contended replay slips from.

Replay of an uncontended single-tenant stream is bitwise-identical to the
generator path (guarded by fingerprint convergence: a trace is only trusted
once two consecutive clean recordings agree exactly); contended replay is a
documented-tolerance approximation at segment granularity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from operator import sub
from typing import Callable, Generator

import numpy as np

from repro.sw.runtime import RunResult, Runtime

__all__ = [
    "SEGMENT_OPS",
    "MacroTrace",
    "TraceRecorder",
    "record_steady_state_trace",
]

#: Macro-ops folded into one replay segment: recorded counter deltas
#: re-apply once per segment.
SEGMENT_OPS = 32


# ---------------------------------------------------------------------- #
# Shared-resource stat accounting                                         #
# ---------------------------------------------------------------------- #


def _stat_registries(tile) -> dict:
    """The registries a runtime run touches, keyed by a stable name."""
    mem = tile.accel.mem
    regs = {
        "dram": mem.dram.stats,
        "bus": mem.bus.stats,
        "xlat": tile.accel.xlat.stats,
        "dma": tile.accel.dma.stats,
    }
    if mem.l2 is not None:
        regs["l2"] = mem.l2.stats
    return regs


#: Registries whose counters contended replay re-resolves live (everything
#: else — the DMA engine's private byte/row counters — always replays from
#: the recorded deltas).
_RERESOLVED = frozenset({"l2", "dram", "bus", "xlat"})


def _byte_scalars(tile) -> dict[str, int]:
    mem = tile.accel.mem
    out = {
        "dram_bytes": mem.dram.channel.bytes_moved,
        "bus_bytes": mem.bus.channel.bytes_moved,
    }
    if mem.l2 is not None:
        out["l2_port_bytes"] = mem.l2.port.bytes_moved
    return out


def _snapshot(tile) -> dict:
    snap = {name: reg.snapshot() for name, reg in _stat_registries(tile).items()}
    snap["__bytes__"] = _byte_scalars(tile)
    return snap


def _delta(before: dict, after: dict) -> dict:
    out: dict = {}
    for name, counters in after.items():
        prior = before.get(name, {})
        diff = {
            key: value - prior.get(key, 0)
            for key, value in counters.items()
            if value != prior.get(key, 0)
        }
        if diff:
            out[name] = diff
    return out


def _apply_delta(delta: dict, tile, contended: bool) -> None:
    """Re-apply a recorded stat delta to the live tile.

    For contended segments the live re-resolution already updated the
    shared registries, so only the non-re-resolved ones replay from the
    recording.
    """
    regs = _stat_registries(tile)
    mem = tile.accel.mem
    for name, counters in delta.items():
        if name == "__bytes__":
            if contended:
                continue
            if "dram_bytes" in counters:
                mem.dram.channel.bytes_moved += counters["dram_bytes"]
            if "bus_bytes" in counters:
                mem.bus.channel.bytes_moved += counters["bus_bytes"]
            if "l2_port_bytes" in counters and mem.l2 is not None:
                mem.l2.port.bytes_moved += counters["l2_port_bytes"]
            continue
        if contended and name in _RERESOLVED:
            continue
        reg = regs.get(name)
        if reg is None:
            continue
        for key, value in counters.items():
            reg.counter(key).add(value)


# ---------------------------------------------------------------------- #
# The trace                                                               #
# ---------------------------------------------------------------------- #


@dataclass
class MacroTrace:
    """One recorded macro-op stream, replayable at any start time.

    All times are cycles relative to the recorded run's start.  The
    struct-of-arrays columns cover the dispatch-clock trajectory (one entry
    per generator yield) and, for each shared memory interaction, enough to
    re-issue it against live state: physical address, bytes, direction and
    VPN streams with their recorded issue/completion offsets.
    """

    model: str
    clocks: np.ndarray  # float64[n_yields], relative dispatch clock
    total_cycles: float
    macro_ops: int
    result_template: RunResult  # layer times relative to run start
    segment_ops: int
    # memory accesses (bus -> L2 -> DRAM), in issue order
    acc_t: np.ndarray  # float64: recorded issue offset
    acc_end: np.ndarray  # float64: recorded completion offset
    acc_paddr: np.ndarray  # int64
    acc_bytes: np.ndarray  # int64
    acc_write: np.ndarray  # bool
    acc_requester: np.ndarray  # int16 index into `requesters`
    requesters: tuple[str, ...]
    # translation requests, in issue order
    xl_t: np.ndarray
    xl_end: np.ndarray
    xl_vpn: np.ndarray
    xl_write: np.ndarray
    # segmentation: ops [seg_op_bounds[s], seg_op_bounds[s+1]) form segment s
    seg_op_bounds: np.ndarray  # int64[n_segments + 1]
    # per-op slices into the access/translation columns (op i's interactions
    # are acc[op_acc_bounds[i]:op_acc_bounds[i+1]], ditto translations)
    op_acc_bounds: np.ndarray  # int64[n_yields + 1]
    op_xl_bounds: np.ndarray
    seg_stat_deltas: list = field(default_factory=list)
    fingerprint: bytes = b""

    @property
    def num_segments(self) -> int:
        return len(self.seg_op_bounds) - 1

    # -- replay --------------------------------------------------------- #

    def replay(
        self,
        tile,
        start: float,
        contended: Callable[[], bool] | None = None,
    ) -> Generator[float, None, None]:
        """Replay the stream on ``tile`` starting at ``start``.

        Yields the dispatch clock once per macro-op — the same event-loop
        granularity as the generator path, so two replaying (or one
        replaying and one recording) tiles interleave their shared-resource
        bookings in near-global time order.  While ``contended()`` is
        False the clock advances by pure offset arithmetic; while it is
        True each op's recorded VPN and physical-access streams are
        re-issued against the live shared state (one ``translate_batch``
        and one segment :meth:`MemorySystem.access` call per op), and any
        completion beyond the recorded schedule *slips* every later op —
        queueing delay compounds through the schedule the way the
        generator's scoreboard chains it.  Stat deltas re-apply at segment
        boundaries (contended segments only re-apply the counters the
        re-resolution does not produce live).  The shifted
        :class:`RunResult` of the completed replay lands in
        :attr:`last_result`.
        """
        xlat = tile.accel.xlat
        mem = tile.accel.mem
        acc_bounds = self.op_acc_bounds
        xl_bounds = self.op_xl_bounds
        clocks = self.clocks
        seg_bounds = self.seg_op_bounds
        slip = 0.0
        seg = 0
        seg_hot = False
        for op in range(len(clocks)):
            hot = contended is not None and contended()
            if hot:
                seg_hot = True
                extra = 0.0
                shift = start + slip
                a, b = xl_bounds[op], xl_bounds[op + 1]
                if b > a:
                    ends = xlat.translate_batch(
                        shift + self.xl_t[a:b], self.xl_vpn[a:b], self.xl_write[a:b]
                    )
                    extra = float(np.max(ends - self.xl_end[a:b])) - shift
                a, b = acc_bounds[op], acc_bounds[op + 1]
                if b > a:
                    ends = mem.access(
                        (shift + self.acc_t[a:b]).tolist(),
                        self.acc_paddr[a:b].tolist(),
                        self.acc_bytes[a:b].tolist(),
                        self.acc_write[a:b].tolist(),
                        self.requesters[self.acc_requester[a]],
                    )
                    late = max(map(sub, ends, self.acc_end[a:b].tolist()))
                    extra = max(extra, late - shift)
                if extra > 0.0:
                    slip += extra
            if op + 1 == seg_bounds[seg + 1]:
                _apply_delta(self.seg_stat_deltas[seg], tile, contended=seg_hot)
                seg += 1
                seg_hot = False
            yield start + slip + float(clocks[op])
        finish = start + slip + self.total_cycles
        tile.accel.controller.advance_to(finish)
        self.last_result = self.result_at(start, slip)

    def result_at(self, start: float, slip: float = 0.0) -> RunResult:
        """The recorded :class:`RunResult` shifted to absolute ``start``.

        A nonzero ``slip`` (contended replay) is attributed to the final
        layer — serving metrics only consume the completion time, so the
        per-layer split of contention delay is not modelled.
        """
        template = self.result_template
        layers = [
            replace(layer, start_time=layer.start_time + start, end_time=layer.end_time + start)
            for layer in template.layers
        ]
        if slip and layers:
            layers[-1] = replace(
                layers[-1],
                end_time=layers[-1].end_time + slip,
                cycles=layers[-1].cycles + slip,
            )
        return RunResult(
            model=template.model,
            tile=template.tile,
            total_cycles=template.total_cycles + slip,
            layers=layers,
            macro_ops=template.macro_ops,
        )


# ---------------------------------------------------------------------- #
# Recording                                                               #
# ---------------------------------------------------------------------- #


class TraceRecorder:
    """Record one generator-path execution into a :class:`MacroTrace`.

    While :meth:`record` runs, the tile's DMA engine hands every transfer's
    translation requests and physical accesses to :meth:`log_translations`
    and :meth:`log_accesses` (its ``recorder`` hook), in issue order.
    """

    def __init__(self, runtime: Runtime, segment_ops: int = SEGMENT_OPS) -> None:
        if segment_ops < 1:
            raise ValueError("segment_ops must be >= 1")
        self.runtime = runtime
        self.segment_ops = segment_ops
        self.dirty = False
        self._start = 0.0
        self._clocks: list[float] = []
        self._acc: list[tuple] = []
        self._xl: list[tuple] = []
        self._requesters: dict[str, int] = {}
        self._snapshots: list[dict] = []

    # -- DMA callbacks --------------------------------------------------- #

    def log_accesses(self, starts, ends, paddrs, nbytes, is_write, requester) -> None:
        """Log one DMA transfer's physical accesses, in issue order."""
        rid = self._requesters.setdefault(requester, len(self._requesters))
        op = len(self._clocks)
        s0 = self._start
        self._acc.extend(
            (op, t - s0, e - s0, paddr, n, is_write, rid)
            for t, e, paddr, n in zip(starts, ends, paddrs, nbytes)
        )

    def log_translations(self, starts, ends, vpns, is_write) -> None:
        """Log one DMA transfer's translation requests, in issue order."""
        op = len(self._clocks)
        s0 = self._start
        self._xl.extend(
            (op, t - s0, e - s0, vpn, is_write) for t, e, vpn in zip(starts, ends, vpns)
        )

    # -- recording ------------------------------------------------------ #

    def record(
        self, dirty_probe: Callable[[], bool] | None = None
    ) -> Generator[float, None, None]:
        """Drive ``runtime.run_generator()``, recording as it executes.

        Passes every yield through unchanged, so an
        :class:`~repro.sim.engine.EventLoop` interleaves the recording run
        exactly like a plain generator run.  ``dirty_probe`` is sampled at
        every yield; any True marks the recording as contended
        (``self.dirty``), unusable as a bitwise baseline.
        """
        runtime = self.runtime
        dma = runtime.tile.accel.dma
        self._start = runtime.tile.accel.controller.now
        self._snapshots = [_snapshot(runtime.tile)]
        outer = dma.recorder
        dma.recorder = self
        try:
            for clock in runtime.run_generator():
                self._clocks.append(clock - self._start)
                if dirty_probe is not None and dirty_probe():
                    self.dirty = True
                if len(self._clocks) % self.segment_ops == 0:
                    self._snapshots.append(_snapshot(runtime.tile))
                yield clock
        finally:
            dma.recorder = outer
        if len(self._clocks) % self.segment_ops != 0:
            self._snapshots.append(_snapshot(runtime.tile))

    def run(self, dirty_probe: Callable[[], bool] | None = None) -> RunResult:
        """Record a full run without external interleaving (single tile)."""
        for __ in self.record(dirty_probe):
            pass
        return self.runtime.result

    # -- trace assembly -------------------------------------------------- #

    def build_trace(self) -> MacroTrace:
        if not self._clocks:
            raise ValueError("nothing recorded; drive record() to completion first")
        result = self.runtime.result
        start = self._start
        template = RunResult(
            model=result.model,
            tile=result.tile,
            total_cycles=result.total_cycles,
            layers=[
                replace(
                    layer,
                    start_time=layer.start_time - start,
                    end_time=layer.end_time - start,
                )
                for layer in result.layers
            ],
            macro_ops=result.macro_ops,
        )

        n = len(self._clocks)
        seg = self.segment_ops
        seg_op_bounds = np.arange(0, n + seg, seg, dtype=np.int64)
        seg_op_bounds[-1] = n
        if len(seg_op_bounds) >= 2 and seg_op_bounds[-1] == seg_op_bounds[-2]:
            seg_op_bounds = seg_op_bounds[:-1]

        acc = self._acc
        acc_op = np.asarray([a[0] for a in acc], dtype=np.int64)
        xl_op = np.asarray([x[0] for x in self._xl], dtype=np.int64)
        deltas = [
            _delta(before, after)
            for before, after in zip(self._snapshots[:-1], self._snapshots[1:])
        ]
        requesters = tuple(self._requesters)

        trace = MacroTrace(
            model=result.model,
            clocks=np.asarray(self._clocks, dtype=np.float64),
            total_cycles=result.total_cycles,
            macro_ops=result.macro_ops,
            result_template=template,
            segment_ops=seg,
            acc_t=np.asarray([a[1] for a in acc], dtype=np.float64),
            acc_end=np.asarray([a[2] for a in acc], dtype=np.float64),
            acc_paddr=np.asarray([a[3] for a in acc], dtype=np.int64),
            acc_bytes=np.asarray([a[4] for a in acc], dtype=np.int64),
            acc_write=np.asarray([a[5] for a in acc], dtype=bool),
            acc_requester=np.asarray([a[6] for a in acc], dtype=np.int16),
            requesters=requesters,
            xl_t=np.asarray([x[1] for x in self._xl], dtype=np.float64),
            xl_end=np.asarray([x[2] for x in self._xl], dtype=np.float64),
            xl_vpn=np.asarray([x[3] for x in self._xl], dtype=np.int64),
            xl_write=np.asarray([x[4] for x in self._xl], dtype=bool),
            seg_op_bounds=seg_op_bounds,
            op_acc_bounds=np.searchsorted(acc_op, np.arange(n + 1, dtype=np.int64)),
            op_xl_bounds=np.searchsorted(xl_op, np.arange(n + 1, dtype=np.int64)),
            seg_stat_deltas=deltas,
        )
        trace.fingerprint = _fingerprint(trace)
        return trace


def _fingerprint(trace: MacroTrace) -> bytes:
    """Digest of everything replay reproduces.

    Two consecutive clean recordings with equal fingerprints mean the
    execution has reached its steady state: the dispatch-clock trajectory,
    every shared-memory interaction and every counter delta repeat exactly,
    so replaying the trace is indistinguishable from running the generator
    again.
    """
    digest = hashlib.sha256()
    for column in (
        trace.clocks,
        trace.acc_t,
        trace.acc_end,
        trace.acc_paddr,
        trace.acc_bytes,
        trace.acc_write,
        trace.acc_requester,
        trace.xl_t,
        trace.xl_end,
        trace.xl_vpn,
        trace.xl_write,
    ):
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(repr(trace.total_cycles).encode())
    digest.update(repr(trace.requesters).encode())
    digest.update(repr(sorted((k, sorted(v.items())) for d in trace.seg_stat_deltas for k, v in d.items())).encode())
    digest.update(repr(trace.result_template).encode())
    return digest.digest()


# ---------------------------------------------------------------------- #
# Sandboxed steady-state recording                                        #
# ---------------------------------------------------------------------- #


def record_steady_state_trace(
    runtime: Runtime,
    mem,
    os_config,
    warm_from: MacroTrace,
) -> MacroTrace:
    """Record the uncontended steady-state trace of ``runtime``'s model.

    Used when the live cluster never runs the pair uncontended (every
    request overlaps another tile's work, so no in-situ recording can serve
    as a clean baseline).  The model re-executes against a *sandbox*: a
    fresh accelerator + memory system with the same configuration, bound to
    the same CPU, OS parameters and — crucially — the same virtual address
    space and allocations, so the recorded physical address and VPN streams
    are exactly the ones the live tile issues.

    The sandbox reaches steady state through a state-only warm-up from a
    previously recorded (possibly contended) trace of the same pair:
    ``warm_from``'s VPN and address streams are pushed through the
    sandbox's TLB/cache/DRAM state in two calls, leaving exactly the state
    one full execution leaves, and the sandbox timelines are reset before
    the recorded run.

    The sandbox shares no timing state with the live SoC, so recording here
    mid-simulation perturbs nothing (the shared page table's functional
    walk counter aside).
    """
    from repro.core.accelerator import Accelerator
    from repro.mem.hierarchy import MemorySystem
    from repro.soc.os_model import OSModel
    from repro.soc.soc import SoCTile

    tile = runtime.tile
    # The sandbox accelerator keeps the live accelerator's *name*: DMA
    # requester strings embed it, and they flow into the trace — replaying
    # with a ".sandbox"-suffixed requester would book the live L2/bus
    # per-requester counters under phantom keys.
    accel = Accelerator(
        tile.accel.config,
        mem=MemorySystem(mem),
        vm=tile.vm,
        host=tile.host,
        name=tile.accel.name,
    )
    sandbox = SoCTile(
        tile.index,
        tile.cpu,
        accel,
        tile.vm,
        tile.host,
        OSModel(os_config, name=f"{tile.os.name}.sandbox"),
        tile.component,
    )
    shadow = Runtime(
        sandbox,
        runtime.model,
        sync_per_layer=runtime.sync_per_layer,
        share_allocations_from=runtime,
        schedule_cache=runtime.kernels.schedule_cache,
    )
    _warm_sandbox_state(accel, warm_from)
    recorder = TraceRecorder(shadow)
    recorder.run()
    return recorder.build_trace()


def _warm_sandbox_state(accel, trace: MacroTrace) -> None:
    """Evolve the sandbox's functional memory state through one execution.

    Timing is irrelevant here — only the state side effects matter (TLB and
    filter-register contents, L2 LRU/dirty state, DRAM open rows), so the
    VPN stream goes through ``translate_batch`` and the address stream
    through one segment :meth:`MemorySystem.access` call, both at time
    zero, and the timelines they booked are reset afterwards.
    """
    if len(trace.xl_vpn):
        accel.xlat.translate_batch(
            np.zeros(len(trace.xl_vpn)), trace.xl_vpn, trace.xl_write
        )
    n = len(trace.acc_t)
    if n:
        accel.mem.access(
            [0.0] * n,
            trace.acc_paddr.tolist(),
            trace.acc_bytes.tolist(),
            trace.acc_write.tolist(),
        )
    accel.xlat.ptw.reset()
    mem = accel.mem
    mem.bus.channel.reset()
    mem.dram.channel.reset()
    if mem.l2 is not None:
        mem.l2.port.reset()
