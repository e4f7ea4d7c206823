"""Dispatch policies: which queued request runs next on an idle tile.

Every scheduler keeps one global ready queue fed by the cluster engine
(:meth:`Scheduler.add`) and answers :meth:`Scheduler.pick` when a tile
goes idle.  Policies differ only in the ordering key — arrival order
(FCFS), priority, analytic service-time estimate (SJF), per-tenant
round-robin fairness — except for the batching scheduler, which holds
same-model requests until a batch fills or its window expires so that
consecutive executions reuse the tile's warmed scratchpad-resident state.

All tie-breaks fall back to ``(arrival, tenant, index)``, so every policy
is fully deterministic under a fixed seed.
"""

from __future__ import annotations

from repro.serve.request import Request

__all__ = [
    "SCHEDULERS",
    "Scheduler",
    "FCFSScheduler",
    "PriorityScheduler",
    "SJFScheduler",
    "RoundRobinScheduler",
    "BatchScheduler",
    "make_scheduler",
]


class Scheduler:
    """Base: a deterministic ready queue with per-tile pinning support."""

    name = "base"

    def __init__(self) -> None:
        self._queue: list[Request] = []
        #: per-tile cost oracle bound by the cluster engine (a request's
        #: service time depends on which tile runs it)
        self._tile_cost = None

    def bind_tile_costs(self, fn) -> None:
        """Install the ``fn(request, tile_index) -> cycles`` oracle.

        The cluster engine binds the analytic estimate evaluated against
        *each tile's own* accelerator config.  Only cost-aware policies
        call it, and only when they pick.
        """
        self._tile_cost = fn

    def cost_on(self, request: Request, tile_index: int) -> float:
        """Service-cycle estimate of ``request`` on ``tile_index``."""
        if self._tile_cost is None:
            raise RuntimeError(
                f"{self.name} scheduler has no cost oracle; bind one with bind_tile_costs()"
            )
        return self._tile_cost(request, tile_index)

    # -- queue management ---------------------------------------------- #

    def add(self, request: Request) -> None:
        self._queue.append(request)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> tuple[Request, ...]:
        return tuple(self._queue)

    def drain(self) -> list[Request]:
        """Remove and return every request still held, including any staged
        in policy-internal structures (open batches).  The cluster engine
        calls this once the simulation ends so stranded work lands in the
        dropped tally instead of silently vanishing with the scheduler."""
        out, self._queue = self._queue, []
        return out

    def _eligible(self, tile_index: int) -> list[Request]:
        return [r for r in self._queue if r.runnable_on(tile_index)]

    # -- policy interface ---------------------------------------------- #

    def key(self, request: Request) -> tuple:
        """Sort key; lower runs first.  Subclasses override."""
        raise NotImplementedError

    def pick(self, tile_index: int, now: float) -> Request | None:
        """Pop the request an idle ``tile_index`` should run at ``now``."""
        eligible = self._eligible(tile_index)
        if not eligible:
            return None
        best = min(eligible, key=lambda r: self.key(r) + (r.arrival, r.tenant, r.index))
        self._queue.remove(best)
        return best

    def wakeup(self, tile_index: int, now: float) -> float | None:
        """Earliest future time a ``pick`` on ``tile_index`` that returned
        None might succeed without any new arrival or completion
        (batch-window expiry).  Must be strictly after ``now`` or None —
        "now" would make an idle tile busy-spin."""
        return None


class FCFSScheduler(Scheduler):
    """First come, first served."""

    name = "fcfs"

    def key(self, request: Request) -> tuple:
        return (request.arrival,)


class PriorityScheduler(Scheduler):
    """Strict priority; FCFS within a priority level."""

    name = "priority"

    def key(self, request: Request) -> tuple:
        return (-request.priority, request.arrival)


class SJFScheduler(Scheduler):
    """Shortest job first, on the compiler's analytic cycle estimate.

    The bound per-tile cost oracle evaluates the estimate against the
    asking tile's own accelerator config — a job that is "short" on a
    32x32 tile can be "long" on an 8x8 one, and the pick order reflects
    that.  Picking without a bound oracle raises.
    """

    name = "sjf"

    def pick(self, tile_index: int, now: float) -> Request | None:
        eligible = self._eligible(tile_index)
        if not eligible:
            return None
        best = min(
            eligible,
            key=lambda r: (self.cost_on(r, tile_index), r.arrival, r.tenant, r.index),
        )
        self._queue.remove(best)
        return best


class RoundRobinScheduler(Scheduler):
    """Fair-share: rotate through tenants, FCFS within each tenant.

    The rotation only holds tenants with queued work: a tenant whose last
    request is served leaves the rotation (long multi-phase traces would
    otherwise scan every tenant that ever appeared, on every pick) and
    re-enters at the back when it next arrives — the same position a
    just-served tenant gets, so pruning never perturbs the deterministic
    rotation order.
    """

    name = "rr"

    def __init__(self) -> None:
        super().__init__()
        self._rotation: list[str] = []

    def add(self, request: Request) -> None:
        super().add(request)
        if request.tenant not in self._rotation:
            self._rotation.append(request.tenant)

    def pick(self, tile_index: int, now: float) -> Request | None:
        eligible = self._eligible(tile_index)
        if not eligible:
            return None
        by_tenant = {r.tenant for r in eligible}
        for offset in range(len(self._rotation)):
            tenant = self._rotation[offset]
            if tenant not in by_tenant:
                continue
            best = min(
                (r for r in eligible if r.tenant == tenant),
                key=lambda r: (r.arrival, r.index),
            )
            self._queue.remove(best)
            # Served tenant goes to the back of the rotation — unless it
            # just drained (it re-enters at the back on its next arrival,
            # which is the identical rotation position).  Tenants with
            # requests pinned to other tiles still count as queued.
            self._rotation.remove(tenant)
            if any(r.tenant == tenant for r in self._queue):
                self._rotation.append(tenant)
            return best
        return None

    def drain(self) -> list[Request]:
        self._rotation.clear()
        return super().drain()


class BatchScheduler(Scheduler):
    """FCFS with a batching window: hold requests until ``batch_size``
    same-model requests are queued or the oldest has waited ``window_cycles``,
    then run the whole batch back-to-back on one tile (amortising weight
    re-streaming through the tile's warmed TLB/L2 state)."""

    name = "batch"

    def __init__(self, batch_size: int = 4, window_cycles: float = 1_000_000.0) -> None:
        super().__init__()
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if window_cycles < 0:
            raise ValueError("window_cycles must be non-negative")
        self.batch_size = batch_size
        self.window_cycles = window_cycles
        self._batches: dict[int, list[Request]] = {}  # tile -> open batch

    def __len__(self) -> int:
        # Requests staged in open batches are still pending work: a batch
        # member not yet handed to its tile must count (it would otherwise
        # vanish from the queue-depth accounting the moment its batch
        # formed).
        return len(self._queue) + sum(len(batch) for batch in self._batches.values())

    @property
    def pending(self) -> tuple[Request, ...]:
        staged = tuple(
            request for tile in sorted(self._batches) for request in self._batches[tile]
        )
        return tuple(self._queue) + staged

    def drain(self) -> list[Request]:
        out = super().drain()
        for tile in sorted(self._batches):
            out.extend(self._batches.pop(tile))
        return out

    def pick(self, tile_index: int, now: float) -> Request | None:
        batch = self._batches.get(tile_index)
        if batch:
            return batch.pop(0)
        eligible = self._eligible(tile_index)
        if not eligible:
            return None
        oldest = min(eligible, key=lambda r: (r.arrival, r.tenant, r.index))
        group = sorted(
            (r for r in eligible if r.model_key == oldest.model_key),
            key=lambda r: (r.arrival, r.tenant, r.index),
        )[: self.batch_size]
        if len(group) < self.batch_size and now < oldest.arrival + self.window_cycles:
            return None  # keep collecting until the window expires
        for request in group:
            self._queue.remove(request)
        self._batches[tile_index] = group
        return self._batches[tile_index].pop(0)

    def wakeup(self, tile_index: int, now: float) -> float | None:
        # Only requests this tile could actually pick matter: an expiry
        # computed over another tile's pinned requests would wake this tile
        # for nothing (and an already-passed expiry means pick() would have
        # released the batch, so only future expiries are reported).
        eligible = self._eligible(tile_index)
        if not eligible:
            return None
        expiry = min(r.arrival for r in eligible) + self.window_cycles
        return expiry if expiry > now else None


#: Registered policies, by CLI name.
SCHEDULERS: dict[str, type[Scheduler]] = {
    cls.name: cls
    for cls in (
        FCFSScheduler,
        PriorityScheduler,
        SJFScheduler,
        RoundRobinScheduler,
        BatchScheduler,
    )
}


def make_scheduler(name: str, **options) -> Scheduler:
    """Instantiate a policy by name (``options`` reach the constructor)."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}") from None
    return cls(**options)
