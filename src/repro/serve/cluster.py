"""The cluster engine: traffic-driven execution on a multi-tile SoC.

Each SoC tile runs as one :class:`_TileActor` — a resumable state machine
that alternates between idling toward the next known event and executing
a scheduled request by driving that request's bound
:class:`~repro.sw.runtime.Runtime` macro-op stream.  Actors share a
single event heap (:class:`~repro.sim.engine.EventLoop`) keyed by each
tile's next-event time, so a request's queueing delay *composes* with the
modeled shared-resource contention: two tenants on different tiles slow
each other down through the shared L2, the DRAM channel and the
(optionally shared) page-table walker, exactly the mechanism behind the
paper's Figure 9c dual-controller study — here driven by open- or
closed-loop traffic instead of a single run-to-completion.

Arrivals are admitted *lazily*, one pending arrival per tenant pulled
from the streaming :class:`~repro.serve.workload.ArrivalSource`s, so the
request state the engine tracks is O(in-flight + tenants) rather than
O(trace).  Every retired request keeps its
:class:`~repro.serve.request.RequestRecord`, and the SLO report is built
once from those records when the run ends.

Determinism: arrivals are seeded per tenant, schedulers tie-break on
``(arrival, tenant, index)``, and the event heap resolves equal clocks by
tile index, so a fixed ``(profile, config, seed)`` reproduces the exact
request log and latency distribution bitwise.  The golden fingerprints
under ``tests/golden/`` pin those request logs for a matrix of profiles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.config import GemminiConfig
from repro.obs.metrics import NULL_METRICS, MetricStream
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.metrics import ServeReport, build_report
from repro.serve.request import ModelKey, Request, RequestRecord
from repro.serve.scheduler import Scheduler, make_scheduler
from repro.serve.workload import TenantSpec, TrafficProfile, make_source, requests_for
from repro.sim.engine import EventLoop
from repro.sim.trace import TraceRecorder, record_steady_state_trace
from repro.soc.components import SoCDesign
from repro.soc.soc import SoC
from repro.sw.runtime import Runtime
from repro.sw.schedule_cache import ScheduleCache

__all__ = ["ServeResult", "ServingSimulation", "simulate_serving", "estimate_service_cycles"]

#: Analytic service-cycle estimates keyed by (model, input_hw, seq, config).
#: The estimate rebuilds the model graph and walks every layer's closed-form
#: cost — far too much work to redo for every request of every tenant (the
#: SJF policy consumes it on the dispatch hot path, and every DSE serving
#: evaluation re-enters with a fresh simulation).  Per-process, bounded by
#: the number of distinct (workload, design-point) pairs a run touches.
_SERVICE_CYCLES_MEMO: dict[tuple, float] = {}


def estimate_service_cycles(spec: TenantSpec, config: GemminiConfig) -> float:
    """Analytic service-time estimate for one request of this tenant.

    :func:`~repro.dse.objectives.analytic_cycles` of the tenant's
    :func:`~repro.dse.objectives.model_workload` on a one-config
    :class:`~repro.dse.batch.ConfigColumns`: the compiler's array lowering
    priced the way the kernels charge it, so SJF needs no profiling run.
    The only serving cost path, reached through the per-tile oracle when
    SJF picks.  Memoized per ``(tenant workload, config)``.
    """
    key = (spec.model, spec.input_hw, spec.seq, config)
    cached = _SERVICE_CYCLES_MEMO.get(key)
    if cached is not None:
        return cached

    from repro.dse.batch import ConfigColumns
    from repro.dse.objectives import analytic_cycles, model_workload

    workload = model_workload(spec.model, input_hw=spec.input_hw, seq=spec.seq)
    cycles = float(analytic_cycles(ConfigColumns.from_configs([config]), workload)[0])
    _SERVICE_CYCLES_MEMO[key] = cycles
    return cycles


@dataclass
class ServeResult:
    """Everything one serving simulation produced (plain data, picklable)."""

    profile: TrafficProfile
    records: list[RequestRecord]
    report: ServeReport
    makespan_cycles: float
    clock_ghz: float
    issued: int
    dropped: dict[str, int] = field(default_factory=dict)
    l2_miss_rate: float = 0.0
    dram_bytes: int = 0
    #: requests served from a macro-op trace replay (0 with ``replay=False``)
    replayed: int = 0
    #: high-water mark of concurrently executing requests
    peak_inflight: int = 0
    #: high-water mark of tracked request state (arrival heap + ready
    #: queue + in-flight) — the O(in-flight) memory claim, measurable
    peak_pending: int = 0

    @property
    def completed(self) -> int:
        return len(self.records)


@dataclass
class _TileReplayState:
    """Replay state of one physical tile within a trace slot.

    ``trace`` is None until the pair is trusted for replay; until then
    ``last_clean_fp`` carries the fingerprint of the most recent clean
    (uncontended) recording, waiting for a second identical one.
    """

    trace: object | None = None
    last_clean_fp: bytes | None = None


@dataclass
class _TraceSlot:
    """Replay state of one ``(tile_config_hash, model)`` pair.

    Slots are keyed by *what the tile is* (its component's config hash)
    rather than where it sits, so a heterogeneous cluster groups replay
    state per tile class.  The recorded :class:`~repro.sim.trace
    .MacroTrace` objects themselves stay per physical tile: a trace embeds
    the recording tile's virtual/physical address streams (per-asid
    scattered address spaces) and requester identity, so replaying it on a
    sibling tile — even one with an identical config — would fault on
    unmapped VPNs and book shared-memory counters under the wrong
    requester.  The shared slot therefore holds one
    :class:`_TileReplayState` per tile index.
    """

    tiles: dict[int, _TileReplayState] = field(default_factory=dict)

    def state(self, tile_index: int) -> _TileReplayState:
        slot = self.tiles.get(tile_index)
        if slot is None:
            slot = self.tiles[tile_index] = _TileReplayState()
        return slot


class _Inflight:
    """Context of the request one tile is currently executing; exists only
    while the tile's macro-op stream is live."""

    __slots__ = ("request", "start", "finish", "recorder", "slot", "replayed", "runtime")

    def __init__(self, request, start, recorder, slot, replayed, runtime) -> None:
        self.request = request
        self.start = start
        self.finish = start
        self.recorder = recorder
        self.slot = slot
        self.replayed = replayed
        self.runtime = runtime


class _TileActor:
    """One tile as a resumable event-loop actor.

    The per-tile serving loop as an explicit state machine that the event
    loop steps directly.  A step either advances the in-flight macro-op
    stream by one event, or — at a *dispatch point* (no stream live) —
    releases arrivals, picks work and starts it.  Retirement and the next
    dispatch happen inside one step, so no other tile observes the state
    between them.
    """

    __slots__ = ("sim", "tile_index", "clock", "stream", "inflight")

    def __init__(self, sim: "ServingSimulation", tile_index: int) -> None:
        self.sim = sim
        self.tile_index = tile_index
        self.clock = sim.soc.tiles[tile_index].accel.controller.now
        self.stream = None  # live macro-op iterator
        self.inflight: _Inflight | None = None

    def _advance(self, t: float | None) -> float | None:
        """Fold one stream event into the tile clock; None = stream ended."""
        if t is None:
            return None
        self.inflight.finish = t
        if t > self.clock:
            self.clock = t
        return self.clock

    def step(self) -> float | None:
        sim = self.sim
        if self.stream is not None:
            now = self._advance(next(self.stream, None))
            if now is not None:
                return now
            sim._retire(self)
        while len(sim._records) + sim._inflight < sim._expected:
            if sim._horizon is not None and self.clock >= sim._horizon:
                break
            sim._arrivals.release(self.clock)
            request = sim.scheduler.pick(self.tile_index, self.clock)
            if request is None:
                target = sim._next_event(self.tile_index, self.clock)
                if target is None:
                    if sim._inflight == 0:
                        break  # nothing queued, nothing coming: drained
                    # A closed-loop follow-up may appear when another tile
                    # completes; re-check on a bounded idle tick.
                    target = self.clock + sim.idle_quantum
                else:
                    target = min(target, self.clock + sim.idle_quantum)
                # Guarantee forward progress even when an event is "now":
                # a pick that failed at this clock cannot succeed at it.
                self.clock = max(target, self.clock + 1.0)
                return self.clock
            sim._dispatch(self, request)
            now = self._advance(next(self.stream, None))
            if now is not None:
                return now
            sim._retire(self)  # a zero-event stream retires immediately
        return None


class _StreamingArrivals:
    """O(tenants + pending follow-ups) arrival plumbing.

    Holds exactly one pending pre-scheduled arrival per tenant — pulled
    from the tenant's :meth:`~repro.serve.workload.ArrivalSource
    .next_arrival` stream only when the previous one is released — plus
    any completion-triggered follow-ups.  The heap key ``(time, gen,
    tenant declaration index, request index)``, with ``gen=0`` for stream
    arrivals and a global push counter for follow-ups, orders simultaneous
    arrivals: stream arrivals beat same-time follow-ups, same-time stream
    arrivals resolve by tenant declaration then index, and same-time
    follow-ups by push order.
    """

    def __init__(self, sim: "ServingSimulation") -> None:
        self.sim = sim
        self._heap: list[tuple[float, int, int, int, Request]] = []
        self._followup_gen = 0
        self._tenant_order = {t.name: i for i, t in enumerate(sim.profile.tenants)}

    def __len__(self) -> int:
        return len(self._heap)

    def prime(self) -> None:
        for spec in self.sim.profile.tenants:
            self._pull(spec)

    def _build(self, spec: TenantSpec, time: float) -> Request:
        sim = self.sim
        start = sim._next_index.get(spec.name, 0)
        [request] = requests_for(
            spec,
            [time],
            start_index=start,
            clock_ghz=sim.clock_ghz,
        )
        sim._next_index[spec.name] = start + 1
        sim.tracer.instant(
            f"tenant:{spec.name}", "arrival", request.arrival, {"index": request.index}
        )
        return request

    def _pull(self, spec: TenantSpec) -> None:
        time = self.sim._sources[spec.name].next_arrival()
        if time is None:
            return
        request = self._build(spec, time)
        heapq.heappush(
            self._heap,
            (request.arrival, 0, self._tenant_order[spec.name], request.index, request),
        )

    def push_followup(self, spec: TenantSpec, time: float) -> None:
        request = self._build(spec, time)
        self._followup_gen += 1
        heapq.heappush(
            self._heap,
            (
                request.arrival,
                self._followup_gen,
                self._tenant_order[spec.name],
                request.index,
                request,
            ),
        )

    def release(self, now: float) -> None:
        """Admit every arrival due by ``now``, refilling released streams."""
        sim = self.sim
        while self._heap and self._heap[0][0] <= now:
            __, gen, __, __, request = heapq.heappop(self._heap)
            sim.scheduler.add(request)
            if gen == 0:
                self._pull(sim._specs[request.tenant])
        sim._note_peak()

    def peek(self) -> float | None:
        # Per-tenant streams are non-decreasing, so the earliest pending
        # entry is the true global next arrival.
        return self._heap[0][0] if self._heap else None

    def drain(self):
        """Tenants of pending *and never-pulled* arrivals (drop tally)."""
        while self._heap:
            request = heapq.heappop(self._heap)[-1]
            yield request.tenant
        for spec in self.sim.profile.tenants:
            for __ in range(self.sim._sources[spec.name].remaining_initial):
                yield spec.name


class ServingSimulation:
    """Bind one traffic profile to one SoC configuration and run it.

    By default requests are served through the macro-op trace record/replay
    fast path: the first executions of each ``(tile, model)`` pair run the
    per-macro-op generator while a :class:`~repro.sim.trace.TraceRecorder`
    captures the stream, and once a trusted trace exists (two consecutive
    uncontended recordings with identical fingerprints, or a sandboxed
    steady-state recording when the cluster is saturated) every later
    request replays it — uncontended segments as pure clock arithmetic,
    contended segments re-resolved against the live shared L2/DRAM/TLB
    (translations through ``translate_batch``, physical accesses through
    the exact segment path ``MemorySystem.access``).  ``replay=False``
    forces every request down the recording (full-fidelity) path.

    A simulation runs once: :meth:`run` drains its arrival sources, so a
    second call raises.
    """

    #: idle re-check interval while waiting on another tile's completion
    #: (closed-loop arrivals) — bounds how stale an idle tile's view can get
    idle_quantum: float = 50_000.0

    def __init__(
        self,
        profile: TrafficProfile,
        design: SoCDesign | None = None,
        scheduler: Scheduler | None = None,
        replay: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricStream | None = None,
        schedule_cache: ScheduleCache | None = None,
    ) -> None:
        #: telemetry sinks — the null singletons keep every emission site
        #: an unconditional (no-op) call on the disabled path
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: tuned schedules every tile's runtimes dispatch through (greedy
        #: tiling without one)
        self.schedule_cache = schedule_cache
        self.profile = profile
        if design is None:
            design = SoCDesign.homogeneous(num_tiles=profile.num_tiles)
        # The profile's tile count must agree with the design; the
        # TrafficProfile default (1) means "let the design decide".
        if profile.num_tiles not in (1, design.num_tiles):
            raise ValueError(
                f"profile expects {profile.num_tiles} tiles but the design "
                f"{design.name!r} has {design.num_tiles}"
            )
        profile.check_pins(design.num_tiles)
        self.design = design
        self.soc = SoC(design)
        self.num_tiles = design.num_tiles
        tiles = design.expand()
        self._tile_configs = tuple(c.gemmini for c in tiles)
        self._tile_hashes = tuple(c.config_hash for c in tiles)
        self.clock_ghz = design.clock_ghz
        self._specs = {t.name: t for t in profile.tenants}
        if scheduler is None:
            options = {}
            if profile.scheduler == "batch":
                options = {
                    "batch_size": profile.batch_size,
                    "window_cycles": profile.batch_window_ms * self.clock_ghz * 1e6,
                }
            scheduler = make_scheduler(profile.scheduler, **options)
        self.scheduler = scheduler
        # The one cost oracle: each tile's own analytic cost (on a
        # heterogeneous design the same request is cheap on a big tile and
        # expensive on a little one).  Binding evaluates nothing; only a
        # cost-aware policy (SJF) calls it, when it picks.
        self.scheduler.bind_tile_costs(self._tile_cost)
        self._compiled: dict[tuple[GemminiConfig, ModelKey], object] = {}
        self._runtimes: dict[tuple[int, ModelKey], Runtime] = {}
        # Trace replay is gated on every tile being replay-safe (the OS
        # time-slice model injects absolute-time-dependent context switches
        # that a shifted replay cannot reproduce).
        self.replay = replay and all(t.trace_replay_safe for t in self.soc.tiles)
        self._traces: dict[tuple[str, ModelKey], _TraceSlot] = {}
        self._replayed = 0
        #: last ModelKey each tile executed — a different model in between
        #: invalidates the steady-state assumption a trace is recorded under
        self._tile_last_model: dict[int, ModelKey] = {}
        horizon = profile.horizon_ms
        self._horizon = horizon * self.clock_ghz * 1e6 if horizon is not None else None
        self._started = False

    # ------------------------------------------------------------------ #
    # Model binding                                                        #
    # ------------------------------------------------------------------ #

    def _compile(self, config: GemminiConfig, key: ModelKey):
        """Compile one model for one accelerator config (heterogeneous
        designs lower the same model differently per tile class)."""
        slot = (config, key)
        if slot not in self._compiled:
            from repro.core.generator import SoftwareParams
            from repro.models.zoo import build_model, model_size_kwargs
            from repro.sw.compiler import compile_graph

            graph = build_model(key[0], **model_size_kwargs(*key))
            self._compiled[slot] = compile_graph(graph, SoftwareParams.from_config(config))
        return self._compiled[slot]

    def _runtime(self, tile_index: int, key: ModelKey) -> Runtime:
        """The tile's persistent binding for one model: tensors allocate in
        the tile's address space once, then every request of that model on
        that tile re-runs the same plan (a resident serving replica)."""
        slot = (tile_index, key)
        if slot not in self._runtimes:
            compiled = self._compile(self._tile_configs[tile_index], key)
            self._runtimes[slot] = Runtime(
                self.soc.tiles[tile_index], compiled, schedule_cache=self.schedule_cache
            )
        return self._runtimes[slot]

    def _tile_cost(self, request, tile_index: int) -> float:
        """Analytic service-cycle estimate on *this* tile's accelerator
        (the scheduler-facing cost oracle; memoized per workload+config)."""
        spec = self._specs[request.tenant]
        return estimate_service_cycles(spec, self._tile_configs[tile_index])

    # ------------------------------------------------------------------ #
    # Trace record/replay                                                  #
    # ------------------------------------------------------------------ #

    def _trace_slot(self, tile_index: int, key: ModelKey) -> _TileReplayState:
        """The replay state for one (tile, model) execution.

        The outer table is keyed ``(tile_config_hash, model)`` — replay
        state groups by tile *class* — while the returned state is the
        asking tile's own (see :class:`_TraceSlot` for why traces never
        cross physical tiles).
        """
        outer_key = (self._tile_hashes[tile_index], key)
        slot = self._traces.get(outer_key)
        if slot is None:
            slot = self._traces[outer_key] = _TraceSlot()
        return slot.state(tile_index)

    def _contended(self) -> bool:
        """True while any *other* tile has a request in flight (the caller's
        own request is always counted in ``_inflight``)."""
        return self._inflight > 1

    def _finish_recording(
        self, slot: _TileReplayState, recorder: TraceRecorder, runtime: Runtime
    ) -> None:
        """Decide whether the just-completed recording yields a usable trace.

        A clean (uncontended) recording becomes the trace once a second
        consecutive clean run fingerprints identically — from then on replay
        is bitwise-indistinguishable from the generator.  A contended
        recording can never converge that way, so the first one triggers a
        sandboxed steady-state recording instead (isolated memory system,
        same address streams); its replays carry the documented contention
        tolerance rather than a bitwise guarantee.
        """
        if recorder.dirty:
            slot.trace = record_steady_state_trace(
                runtime,
                self.design.mem,
                runtime.tile.os.config,
                warm_from=recorder.build_trace(),
            )
            return
        trace = recorder.build_trace()
        if slot.last_clean_fp is not None and slot.last_clean_fp == trace.fingerprint:
            slot.trace = trace
        else:
            slot.last_clean_fp = trace.fingerprint

    # ------------------------------------------------------------------ #
    # Simulation                                                           #
    # ------------------------------------------------------------------ #

    def _declare_lanes(self) -> None:
        """Lay out the trace: one lane per tile (the serving tracks), one
        per tenant (arrival markers), one cluster-wide counter lane."""
        tracer = self.tracer
        for tile in self.soc.tiles:
            tracer.declare_lane(
                tile.name,
                process="serve",
                label=f"{tile.name} [{tile.component.label}]",
                sort=tile.index,
            )
        tracer.declare_lane("cluster", process="serve", label="cluster", sort=self.num_tiles)
        for i, spec in enumerate(self.profile.tenants):
            tracer.declare_lane(
                f"tenant:{spec.name}", process="traffic", label=spec.name, sort=i
            )

    def _start(self) -> None:
        """Initialize run state: sources, arrival plumbing, tile actors."""
        profile = self.profile
        self._declare_lanes()
        #: retirement order; the report's float sums fold in this order
        self._records: list[RequestRecord] = []
        self._inflight = 0
        self._replayed = 0
        self.peak_inflight = 0
        self.peak_pending = 0
        self._sources = {
            t.name: make_source(t, profile.seed, self.clock_ghz) for t in profile.tenants
        }
        self._next_index: dict[str, int] = {}
        self._expected = sum(t.total_requests for t in profile.tenants)
        self._arrivals = _StreamingArrivals(self)
        self._arrivals.prime()
        self._actors = [_TileActor(self, index) for index in range(self.num_tiles)]
        self._started = True

    def run(self) -> ServeResult:
        """Run the simulation to completion and report; a second call raises."""
        if self._started:
            raise RuntimeError("ServingSimulation.run() already ran")
        self._start()
        loop = EventLoop()
        for actor in self._actors:  # tile order: equal clocks go to the lower tile
            loop.add(actor.step)
        loop.run()
        return self._build_result()

    def _build_result(self) -> ServeResult:
        # Makespan is the last completion; idle workers overshoot it by up
        # to one idle tick, so actor end clocks are only the empty-run
        # fallback.
        records = self._records
        if records:
            makespan = max(record.finish for record in records)
        else:
            makespan = max((actor.clock for actor in self._actors), default=0.0)
        if self.metrics and records and not self.metrics.due():
            # Close the stream on a final whole-run snapshot when
            # completions arrived after the last in-flight tick (a due
            # count means that tick already covered every record).
            self._tick_metrics(makespan)
        dropped = self._count_dropped()
        return ServeResult(
            profile=self.profile,
            records=sorted(records, key=lambda r: (r.finish, r.tenant, r.index)),
            report=build_report(
                records, self.profile.tenants, self.clock_ghz, makespan, dropped
            ),
            makespan_cycles=makespan,
            clock_ghz=self.clock_ghz,
            # Actually-generated requests: for a horizon-cut closed loop the
            # completion-driven chain stops issuing, so this can be well
            # under the spec's budget — issued - completed == sum(dropped).
            issued=sum(source.issued for source in self._sources.values()),
            dropped=dropped,
            l2_miss_rate=self.soc.l2_miss_rate(),
            dram_bytes=self.soc.mem.dram.bytes_moved,
            replayed=self._replayed,
            peak_inflight=self.peak_inflight,
            peak_pending=self.peak_pending,
        )

    # -- request plumbing ----------------------------------------------- #

    def _note_peak(self) -> None:
        """Track the high-water marks the O(in-flight) claim is gated on."""
        pending = len(self._arrivals) + len(self.scheduler) + self._inflight
        if pending > self.peak_pending:
            self.peak_pending = pending
        if self._inflight > self.peak_inflight:
            self.peak_inflight = self._inflight

    def _next_event(self, tile_index: int, now: float) -> float | None:
        """Earliest future time at which new work could become pickable."""
        candidates = []
        arrival = self._arrivals.peek()
        if arrival is not None:
            candidates.append(arrival)
        wake = self.scheduler.wakeup(tile_index, now)
        if wake is not None:
            candidates.append(wake)
        return min(candidates) if candidates else None

    def _dispatch(self, actor: _TileActor, request: Request) -> None:
        """Start one request on ``actor``'s tile: bind the runtime, choose
        record vs replay, and leave the live stream on the actor."""
        tile_index = actor.tile_index
        tile = self.soc.tiles[tile_index]
        start = max(actor.clock, request.arrival)
        tile.accel.controller.advance_to(start)
        runtime = self._runtime(tile_index, request.model_key)
        slot = self._trace_slot(tile_index, request.model_key) if self.replay else None
        recorder = None
        # A *different* model ran on this tile since the last request of
        # this pair: the tile-local and shared state no longer match the
        # steady state a trace assumes.  Such a run can neither serve as
        # a clean recording nor replay by pure offset arithmetic — it
        # re-resolves every macro-op against live state instead.
        prev_model = self._tile_last_model.get(tile_index)
        stale = prev_model is not None and prev_model != request.model_key
        self._tile_last_model[tile_index] = request.model_key
        replayed = False
        if slot is not None and slot.trace is not None:
            probe = (lambda: True) if stale else self._contended
            stream = slot.trace.replay(tile, start, contended=probe)
            self._replayed += 1
            replayed = True
        elif slot is not None:
            recorder = TraceRecorder(runtime)
            recorder.dirty = stale
            stream = recorder.record(dirty_probe=self._contended)
        else:
            stream = runtime.run_generator()
        self._inflight += 1
        actor.stream = stream
        actor.inflight = _Inflight(request, start, recorder, slot, replayed, runtime)
        self._note_peak()

    def _retire(self, actor: _TileActor) -> None:
        """Complete ``actor``'s in-flight request: keep its record, book
        its telemetry and trigger the closed-loop follow-up."""
        ctx = actor.inflight
        actor.stream = None
        actor.inflight = None
        self._inflight -= 1
        if ctx.recorder is not None:
            self._finish_recording(ctx.slot, ctx.recorder, ctx.runtime)
        request = ctx.request
        record = RequestRecord(
            tenant=request.tenant,
            index=request.index,
            model=request.model,
            tile=actor.tile_index,
            arrival=request.arrival,
            start=ctx.start,
            finish=ctx.finish,
            slo_cycles=request.slo_cycles,
        )
        self._records.append(record)
        self._observe_completion(record, actor.tile_index, ctx.replayed)
        follow = self._sources[request.tenant].next_after_completion(ctx.finish)
        if follow is not None:
            self._arrivals.push_followup(self._specs[request.tenant], follow)

    def _count_dropped(self) -> dict[str, int]:
        """Issued-but-unserved requests (horizon cut or starved pins).

        Counted structurally, by draining where unserved work actually
        sits: the scheduler (including requests staged inside an open
        batch on a tile that stopped picking — ``Scheduler.drain`` reaches
        policy-internal structures the queue accessors alone would miss)
        and the arrival plumbing (pending entries plus pre-scheduled
        arrivals never pulled).  Every issued request
        is therefore either a completion or a drop; the invariant
        ``completed + sum(dropped) == issued`` is asserted because a
        scheduler that strands work outside ``drain()`` would silently
        undercount drops.
        """
        out: dict[str, int] = {}
        for request in self.scheduler.drain():
            out[request.tenant] = out.get(request.tenant, 0) + 1
        for tenant in self._arrivals.drain():
            out[tenant] = out.get(tenant, 0) + 1
        issued = sum(source.issued for source in self._sources.values())
        completed = len(self._records)
        if completed + sum(out.values()) != issued:
            raise RuntimeError(
                f"request accounting broke: {completed} served + "
                f"{sum(out.values())} dropped != {issued} issued"
            )
        return out

    # -- telemetry ------------------------------------------------------- #

    def _observe_completion(self, record: RequestRecord, tile_index: int, replayed: bool) -> None:
        """Book one finished request into the tracer and metric stream.

        One span per request lifecycle on the serving tile's lane —
        arrival/queue carried as args (``queue_ms``), dispatch/service as
        the span itself, annotated replayed-vs-recorded.  Streaming
        metrics observe the same record and tick a snapshot every
        ``metrics.every`` completions, so percentiles/goodput/utilisation
        are readable while the simulation is still in flight.
        """
        to_ms = 1.0 / (self.clock_ghz * 1e6)
        queue_ms = record.queue_cycles * to_ms
        service_ms = (record.finish - record.start) * to_ms
        self.tracer.complete(
            f"tile{tile_index}",
            f"{record.tenant}[{record.index}]",
            record.start,
            record.finish,
            {
                "tenant": record.tenant,
                "index": record.index,
                "model": record.model,
                "replayed": replayed,
                "arrival_ms": record.arrival * to_ms,
                "queue_ms": queue_ms,
                "slo_met": record.slo_met,
            },
        )
        self.tracer.counter("cluster", "inflight", record.finish, self._inflight)

        metrics = self.metrics
        metrics.observe("latency_ms", record.latency_cycles * to_ms)
        metrics.observe("queue_ms", queue_ms)
        metrics.observe("service_ms", service_ms)
        metrics.mark("completed")
        if record.slo_met:
            metrics.mark("slo_met")
        if replayed:
            metrics.mark("replayed")
        metrics.acc(f"busy:tile{tile_index}", record.finish - record.start)
        if metrics.due():
            self._tick_metrics(record.finish)

    def _tick_metrics(self, now_cycles: float) -> None:
        """Freeze one streaming snapshot at simulated time ``now_cycles``."""
        metrics = self.metrics
        elapsed_s = now_cycles / (self.clock_ghz * 1e9)
        busy = sum(v for k, v in metrics.sums.items() if k.startswith("busy:"))
        extra = {
            "goodput_qps": metrics.count("slo_met") / elapsed_s if elapsed_s > 0 else 0.0,
            "throughput_qps": metrics.count("completed") / elapsed_s if elapsed_s > 0 else 0.0,
            "utilization": busy / (self.num_tiles * now_cycles) if now_cycles > 0 else 0.0,
            "inflight": self._inflight,
        }
        metrics.tick(elapsed_s, extra)


def simulate_serving(
    profile: TrafficProfile,
    design: SoCDesign | None = None,
    replay: bool = True,
    tracer: Tracer | None = None,
    metrics: MetricStream | None = None,
    schedule_cache: ScheduleCache | None = None,
) -> ServeResult:
    """One-shot convenience: build the cluster, run the traffic, report.

    ``design=`` is the (possibly heterogeneous)
    :class:`~repro.soc.components.SoCDesign` the traffic is served on;
    without one, ``profile.num_tiles`` default tiles
    (:meth:`~repro.soc.components.SoCDesign.homogeneous`).

    ``replay=False`` forces every request down the per-macro-op recording
    path (the pre-trace behaviour) — the baseline the replay benchmarks and
    parity tests compare against.

    ``tracer=``/``metrics=`` attach a :class:`~repro.obs.tracer.Tracer`
    (one span per request lifecycle, laned per tile) and a streaming
    :class:`~repro.obs.metrics.MetricStream`; both default to the no-op
    singletons, so an uninstrumented run pays one empty method call per
    emission site.

    ``schedule_cache=`` is the tuned-schedule cache every tile dispatches
    its matmuls through; without one every matmul takes the greedy plan.

    Module-level and pure-data in/out, so it can ship through
    :class:`~repro.eval.runner.ExperimentRunner` workers and its results
    land in the content-hash cache.
    """
    return ServingSimulation(
        profile,
        design=design,
        replay=replay,
        tracer=tracer,
        metrics=metrics,
        schedule_cache=schedule_cache,
    ).run()
