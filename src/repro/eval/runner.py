"""Parallel experiment orchestration with per-config result caching.

Figure reproduction and design-space sweeps are embarrassingly parallel:
every point is an independent (function, config) pair.  The
:class:`ExperimentRunner` fans such points out over a
``ProcessPoolExecutor`` and memoises each result on disk, keyed by a
stable hash of the function identity and its keyword arguments, so
re-running a sweep only pays for the points that changed.

``eval/experiments.py`` (via :func:`repro.eval.experiments.run_figures`),
``examples/design_space_exploration.py`` and the ``benchmarks/`` suite all
route through this module.

Environment knobs:

* ``REPRO_WORKERS`` — default worker count (``1`` forces in-process
  serial execution, which also permits non-picklable callables).
* ``REPRO_CACHE_DIR`` — honoured by the benchmark suite to place the
  result cache; this module itself only caches when given a cache.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import inspect
import json
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "ExperimentRunner",
    "ExperimentSpec",
    "ResultCache",
    "RunnerStats",
    "config_hash",
    "default_workers",
]


# ---------------------------------------------------------------------- #
# Config hashing                                                          #
# ---------------------------------------------------------------------- #


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serialisable structure.

    Dataclasses (configs) flatten to ``{type, field: value, ...}``; mappings
    get sorted keys; sets are sorted; anything else that JSON cannot encode
    falls back to its ``repr``, which is deterministic for the config
    objects used here.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        # Fields marked compare=False are simulation knobs, not identity.
        flat = {f.name: _canonical(getattr(obj, f.name)) for f in fields(obj) if f.compare}
        flat["__type__"] = type(obj).__qualname__
        return flat
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        # repr keeps 1 and "1" distinct (str() would collide them).
        return {repr(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(_canonical(v)) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    # Only a loaded numpy can have built an array or a numpy scalar.
    np = sys.modules.get("numpy")
    if np is None:
        return repr(obj)
    if isinstance(obj, np.ndarray):
        # repr() truncates large arrays, which would collide distinct
        # sweep points; hash the full contents plus shape/dtype instead.
        return {
            "__ndarray__": obj.shape,
            "dtype": str(obj.dtype),
            "data": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
        }
    if isinstance(obj, np.generic):
        return obj.item()
    return repr(obj)


def config_hash(payload: Any) -> str:
    """Stable hex digest of an arbitrary experiment configuration."""
    return hashlib.sha256(_encode(_canonical(payload))).hexdigest()


def _encode(canonical: Any) -> bytes:
    """The JSON bytes :func:`config_hash` hashes, of an already-canonical structure."""
    return json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _callable_state(fn: Callable[..., Any]) -> Any:
    """Captured state a callable's source text does not show.

    Two closures minted by the same factory share source but differ in
    their closure cells; same for ``functools.partial`` bindings and
    argument defaults.  All of it must reach the cache key, or identical-
    looking callables would collide on one entry.
    """
    if isinstance(fn, functools.partial):
        return {
            "partial_args": [_canonical(a) for a in fn.args],
            "partial_kwargs": _canonical(dict(fn.keywords or {})),
            "inner": _callable_state(fn.func),
        }
    state: dict[str, Any] = {}
    bound_self = getattr(fn, "__self__", None)
    if bound_self is not None:
        # Bound methods of different instances share source and qualname;
        # the instance is part of the computation's identity.
        state["self"] = _canonical(bound_self)
    cells = getattr(fn, "__closure__", None)
    if cells:
        contents = []
        for cell in cells:
            try:
                contents.append(_canonical(cell.cell_contents))
            except ValueError:  # still-empty cell (recursive definition)
                contents.append("<empty-cell>")
        state["closure"] = contents
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        state["defaults"] = [_canonical(d) for d in defaults]
    return state


@lru_cache(maxsize=512)
def _fn_fingerprint(inner: Callable[..., Any]) -> tuple[str, str, str]:
    """(identity, source, module source) of an innermost callable.

    Memoised per function object: a sweep computes one cache key per point
    but every point shares the same function, so the source lookups (two
    file reads through :mod:`inspect`) would otherwise dominate key cost.
    A redefined function is a new object and gets a fresh entry.
    """
    ident = f"{getattr(inner, '__module__', '?')}.{getattr(inner, '__qualname__', repr(inner))}"
    try:
        source = inspect.getsource(inner)
    except (OSError, TypeError):
        source = ""
    # Also hash the function's whole module file: sweeps commonly read
    # module-level constants (shape lists, capacities) that the
    # function's own source does not contain.
    try:
        srcfile = inspect.getsourcefile(inner)
        module_src = Path(srcfile).read_text(encoding="utf-8") if srcfile else ""
    except (OSError, TypeError):
        module_src = ""
    return ident, source, module_src


@lru_cache(maxsize=None)
def _source_fingerprint(root: str | None = None) -> str:
    """Fingerprint of the package source tree (per-file path/size/mtime).

    Folded into every cache key so that editing *any* simulator module —
    not just the experiment function itself — invalidates cached results.
    Computed once per process; caches therefore never outlive a source
    edit, at the cost of also expiring on fresh checkouts (mtimes differ),
    which only ever re-runs an experiment, never serves a stale one.
    """
    if root is None:
        root = str(Path(__file__).resolve().parents[1])  # the repro package
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*.py")):
        stat = path.stat()
        digest.update(f"{path}:{stat.st_size}:{stat.st_mtime_ns};".encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Experiment specs                                                        #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a callable plus the keyword arguments to run it with."""

    name: str
    fn: Callable[..., Any]
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, fn: Callable[..., Any], *, label: str | None = None, **kwargs: Any
    ) -> "ExperimentSpec":
        """Build a spec; ``label`` is the display name.  It is keyword-only
        and deliberately not called ``name`` so it can never swallow an
        experiment function's own ``name`` argument — everything else in
        ``kwargs`` reaches the function verbatim."""
        return cls(
            name=label or getattr(fn, "__name__", repr(fn)),
            fn=fn,
            kwargs=tuple(sorted(kwargs.items())),
        )

    @property
    def key(self) -> str:
        """Cache key: hash of the function identity, its source text (when
        retrievable), the package source fingerprint (so editing the
        experiment *or* the simulator it calls invalidates cached results),
        and its arguments.

        ``name`` is deliberately excluded: it is a display label (sweep
        position, figure name), and the same computation must hit the same
        cache entry however it is labelled or ordered.
        """
        return _spec_keys([self])[0]

    def _identity(self) -> dict[str, Any]:
        """The key payload except ``kwargs``: what the callable is."""
        fn = self.fn
        target = getattr(fn, "__wrapped__", fn)
        # Identity and source come from the innermost function: a partial's
        # own repr embeds a memory address (nondeterministic across runs),
        # while its bindings are already captured by _callable_state.
        inner = target
        while isinstance(inner, functools.partial):
            inner = inner.func
        try:
            ident, source, module_src = _fn_fingerprint(inner)
        except TypeError:  # unhashable callable (e.g. a custom instance)
            ident, source, module_src = _fn_fingerprint.__wrapped__(inner)
        return {
            "fn": ident,
            "src": source,
            "module_src": module_src,
            "state": _callable_state(target),
            "env": _source_fingerprint(),
        }

    def run(self) -> Any:
        return self.fn(**dict(self.kwargs))


def _spec_keys(
    specs: Sequence[ExperimentSpec], encoded: dict[int, bytes] | None = None
) -> list[str]:
    """:attr:`ExperimentSpec.key` of every spec, encoding each distinct
    callable and argument object once for the whole batch (``encoded``
    supplies arguments' bytes already known, keyed by ``id``).

    Every spec of a :meth:`ExperimentRunner.map_batch` call shares one
    callable (its identity carries its module's whole source) and the same
    shared keyword objects (a DSE spec carries a whole model's shape list).
    The payload's JSON is the identity's members sorted around a
    ``kwargs`` member, so each item resumes a copy of its callable's hash
    state at that member with only its own kwargs, then the identity's
    tail: keys stay byte-identical to ``config_hash`` of the full payload.
    """
    identities: dict[int, tuple[Any, bytes]] = {}
    arguments: dict[int, bytes] = dict(encoded or {})
    keys = []
    for spec in specs:
        identity = identities.get(id(spec.fn))
        if identity is None:
            values = _canonical(spec._identity())
            names = sorted([*values, repr("kwargs")])
            # the kwargs member's value is left open: each item supplies it
            members = [
                _encode(name) + b":" + (_encode(values[name]) if name in values else b"")
                for name in names
            ]
            split = names.index(repr("kwargs")) + 1
            prefix = hashlib.sha256(b"{" + b",".join(members[:split]))
            suffix = b"".join(b"," + member for member in members[split:]) + b"}"
            identity = identities[id(spec.fn)] = (prefix, suffix)
        prefix, suffix = identity
        kwargs = []
        for name, value in sorted(spec.kwargs, key=lambda kv: repr(kv[0])):
            if id(value) not in arguments:
                arguments[id(value)] = _encode(_canonical(value))
            kwargs.append(_encode(repr(name)) + b":" + arguments[id(value)])
        digest = prefix.copy()
        digest.update(b"{" + b",".join(kwargs) + b"}" + suffix)
        keys.append(digest.hexdigest())
    return keys


def _run_spec_timed(spec: ExperimentSpec) -> tuple[Any, float, float, int]:
    """Module-level trampoline so specs can cross the process boundary.

    The worker stamps its own wall-clock interval and pid, so a traced
    parent can attribute the span to a worker lane.  Epoch (``time.time``)
    stamps are the one clock parent and workers share."""
    t0 = time.time()
    value = spec.run()
    return value, t0, time.time(), os.getpid()


# ---------------------------------------------------------------------- #
# Result cache                                                            #
# ---------------------------------------------------------------------- #


class ResultCache:
    """Pickle-per-key result store under one directory.

    Writes are atomic (tmp file + rename) so concurrent workers and
    interrupted runs can never leave a half-written entry behind; unreadable
    entries degrade to cache misses.
    """

    _MISS = object()

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Return the cached value, or :attr:`ResultCache._MISS`."""
        path = self.path(key)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # Unpickling can fail in arbitrary ways (truncated file, class
            # moved or renamed since the entry was written, __setstate__
            # errors); every one of them is just a miss.
            return self._MISS

    def put(self, key: str, value: Any) -> None:
        path = self.path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(value, fh)
            tmp.replace(path)
        except Exception:
            # A result that cannot be pickled (serial runners permit them)
            # or a filesystem error must not fail the run that computed it —
            # the entry is simply not cached.
            tmp.unlink(missing_ok=True)

    def clear(self) -> None:
        for entry in self.directory.glob("*.pkl"):
            entry.unlink(missing_ok=True)

    def __len__(self) -> int:
        return sum(1 for __ in self.directory.glob("*.pkl"))


# ---------------------------------------------------------------------- #
# Runner                                                                  #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunnerStats:
    """Cache effectiveness counters for one runner's lifetime."""

    hits: int
    misses: int

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def to_dict(self) -> dict[str, float]:
        """JSON-ready form (lands in the BENCH_*.json ``extra_info``)."""
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}

    def __str__(self) -> str:
        return (
            f"cache: {self.hits} hit{'s' if self.hits != 1 else ''} / "
            f"{self.misses} miss{'es' if self.misses != 1 else ''} "
            f"({self.hit_rate:.0%} hit rate)"
        )


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


class ExperimentRunner:
    """Fan experiment specs out over processes, consulting a result cache.

    With ``max_workers == 1`` (or a single submitted spec) everything runs
    in-process, which keeps tracebacks direct and permits closures; any
    higher worker count requires picklable callables/results, which all the
    ``run_fig*`` experiment runners satisfy.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache: ResultCache | str | os.PathLike | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        from repro.obs.tracer import NULL_TRACER

        self.max_workers = max_workers if max_workers is not None else default_workers()
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self._pool: ProcessPoolExecutor | None = None
        self.hits = 0
        self.misses = 0
        #: id -> (object, key bytes) of hashable map_batch shared arguments;
        #: holding the object keeps its id from being reused
        self._shared_keys: dict[int, tuple[Any, bytes]] = {}
        #: per-spec span / cache-attribution sink (no-op singleton when off)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.declare_lane("cache", process="runner", label="cache", sort=0)

    # -- lifecycle ------------------------------------------------------ #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ------------------------------------------------------ #

    def run(self, fn: Callable[..., Any], *, label: str | None = None, **kwargs: Any) -> Any:
        """Run one experiment (cached); serial unless workers are warranted.

        ``label`` is display-only; every other keyword reaches ``fn``."""
        return self.run_specs([ExperimentSpec.make(fn, label=label, **kwargs)])[0]

    def run_specs(self, specs: Sequence[ExperimentSpec]) -> list[Any]:
        """Run specs, returning results in order.

        Cached results are served immediately; within one batch, specs with
        identical cache keys compute once and fan out (the evolutionary and
        annealing DSE strategies routinely re-propose points); the
        remainder execute in parallel (or inline when a pool is not worth
        spinning up).
        """
        return self._cached(specs, functools.partial(self._execute, specs))

    def _cached(
        self,
        specs: Sequence[ExperimentSpec],
        execute: Callable[[list[int], Callable[[int, Any], None]], None],
        encoded: dict[int, bytes] | None = None,
    ) -> list[Any]:
        """The one cache pass behind :meth:`run_specs` and :meth:`map_batch`.

        Serves cache hits, folds in-batch duplicate keys onto their first
        occurrence (counted as hits), then hands the pending positions to
        ``execute(pending, record)``, which must call ``record(i, value)``
        once per pending position.
        """
        results: list[Any] = [None] * len(specs)
        pending: list[int] = []
        tracer = self.tracer
        # Key computation hashes source text and kwargs; do it once per spec.
        keys = _spec_keys(specs, encoded) if self.cache is not None else None
        primary: dict[str, int] = {}  # key -> first pending position
        duplicates: dict[int, int] = {}  # position -> its primary position
        for i, spec in enumerate(specs):
            if keys is not None:
                value = self.cache.get(keys[i])
                if value is not ResultCache._MISS:
                    results[i] = value
                    self.hits += 1
                    tracer.instant("cache", "hit", tracer.now(), {"spec": spec.name})
                    continue
                first = primary.setdefault(keys[i], i)
                if first != i:
                    # The identical computation is already pending in this
                    # batch: run it once, fan the result out below, and
                    # count the extra as a hit.
                    duplicates[i] = first
                    self.hits += 1
                    tracer.instant("cache", "hit", tracer.now(), {"spec": spec.name})
                    continue
            self.misses += 1
            pending.append(i)
        tracer.counter("cache", "cache_hits", tracer.now(), self.hits)
        tracer.counter("cache", "cache_misses", tracer.now(), self.misses)

        if not pending:
            return results

        # Cache every result the moment it exists: a point that fails (or a
        # Ctrl-C) must not discard the completed points of a long sweep.
        def record(i: int, value: Any) -> None:
            results[i] = value
            if keys is not None:
                self.cache.put(keys[i], value)

        execute(pending, record)
        for i, first in duplicates.items():
            results[i] = results[first]
        return results

    def _execute(
        self, specs: Sequence[ExperimentSpec], pending: list[int], record: Callable[[int, Any], None]
    ) -> None:
        """Run pending specs one by one: inline, or on the process pool."""
        tracer = self.tracer
        if self.max_workers == 1 or len(pending) == 1:
            pid = os.getpid()
            lane = f"worker:{pid}"
            tracer.declare_lane(lane, process="runner", label=f"pid {pid} (inline)")
            for i in pending:
                t0 = tracer.now()
                value = specs[i].run()
                tracer.complete(lane, specs[i].name, t0, tracer.now(), {"pid": pid})
                record(i, value)
            return
        pool = self._ensure_pool()
        futures = {pool.submit(_run_spec_timed, specs[i]): i for i in pending}
        try:
            for future in as_completed(futures):
                i = futures[future]
                value, t0, t1, pid = future.result()
                if tracer:
                    lane = f"worker:{pid}"
                    tracer.declare_lane(lane, process="runner", label=f"pid {pid}")
                    tracer.complete(
                        lane,
                        specs[i].name,
                        max(0.0, tracer.to_timeline(t0)),
                        max(0.0, tracer.to_timeline(t1)),
                        {"pid": pid},
                    )
                record(i, value)
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        label: str | None = None,
        labels: Sequence[Any] | None = None,
    ) -> list[Any]:
        """Parallel (cached) map of ``fn`` over ``items``.

        Each item is passed as the callable's single positional argument;
        per-item cache keys include the item itself.  ``labels`` (optional,
        one per item) replaces the positional ``[0]``, ``[1]``... suffix in
        spec names so sweep traces read as ``dse[dim=16,tile=2]`` instead
        of ``dse[7]``; it is display-only and never reaches the cache key.
        """
        items = list(items)
        base = label or getattr(fn, "__name__", "map")
        return self.run_specs(_item_specs(_ItemCall(fn), base, items, labels))

    def map_batch(
        self,
        batch_fn: Callable[..., Sequence[Any]],
        items: Iterable[Any],
        *,
        label: str | None = None,
        labels: Sequence[Any] | None = None,
        **shared: Any,
    ) -> list[Any]:
        """Cached map evaluated through one vectorised batch call.

        ``batch_fn(items, **shared)`` must return one result per item, in
        order.  Caching, hit/miss accounting and duplicate-key
        deduplication are :meth:`map`'s — the same per-item content-hash
        granularity, so re-running, reordering or enlarging a sweep only
        pays for genuinely new items — but all the misses execute in ONE
        ``batch_fn`` call instead of one task per item.  That call runs
        in-process whatever ``max_workers`` is: the point of a batched
        evaluator is that its per-item cost is far below what a process
        fan-out would amortise.
        """
        items = list(items)
        base = label or getattr(batch_fn, "__name__", "map_batch")
        specs = _item_specs(
            _BatchCall(batch_fn), base, items, labels, tuple(sorted(shared.items()))
        )
        tracer = self.tracer

        def execute(pending: list[int], record: Callable[[int, Any], None]) -> None:
            tracer.declare_lane("batch", process="runner", label="batched evaluator")
            t0 = tracer.now()
            values = list(batch_fn([items[i] for i in pending], **shared))
            tracer.complete(
                "batch", f"{base}[batch:{len(pending)}]", t0, tracer.now(),
                {"items": len(pending), "of": len(items)},
            )
            if len(values) != len(pending):
                raise ValueError(
                    f"batch function returned {len(values)} results "
                    f"for {len(pending)} items"
                )
            for i, value in zip(pending, values):
                record(i, value)

        encoded = self._encode_shared(shared.values()) if self.cache is not None else None
        return self._cached(specs, execute, encoded)

    def _encode_shared(self, values: Iterable[Any]) -> dict[int, bytes]:
        """Key bytes of each hashable shared argument, encoded once per
        runner: a DSE passes the same spec object to every proposal batch.

        Memoised by identity, not value (``1 == 1.0 == True`` encode
        differently), and only for values whose ``hash()`` succeeds;
        unhashable (mutable) values are re-encoded by every call.
        """
        encoded = {}
        for value in values:
            try:
                hash(value)
            except TypeError:
                continue
            entry = self._shared_keys.get(id(value))
            if entry is None:
                entry = self._shared_keys[id(value)] = (value, _encode(_canonical(value)))
            encoded[id(value)] = entry[1]
        return encoded

    def stats(self) -> RunnerStats:
        """Hits/misses/hit-rate accumulated since the last reset."""
        return RunnerStats(hits=self.hits, misses=self.misses)

    def reset_stats(self) -> None:
        """Zero the counters so multi-phase runs report per-phase numbers."""
        self.hits = 0
        self.misses = 0


class _ItemCall:
    """Adapter turning ``fn(item)`` into a kwargs call; picklable when fn is."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.__module__ = getattr(fn, "__module__", "?")
        self.__qualname__ = f"item:{getattr(fn, '__qualname__', repr(fn))}"
        self.__wrapped__ = fn  # lets ExperimentSpec.key fingerprint the source

    def __call__(self, item: Any) -> Any:
        return self.fn(item)


class _BatchCall:
    """Per-item cache identity over a batch function (``map_batch``).

    The spec's kwargs carry one item plus the shared keywords; calling the
    adapter evaluates just that item through a single-element batch, so a
    spec that ends up on the generic :meth:`ExperimentRunner.run_specs`
    path still computes the right value.
    """

    def __init__(self, fn: Callable[..., Sequence[Any]]) -> None:
        self.fn = fn
        self.__module__ = getattr(fn, "__module__", "?")
        self.__qualname__ = f"batch:{getattr(fn, '__qualname__', repr(fn))}"
        self.__wrapped__ = fn  # lets ExperimentSpec.key fingerprint the source

    def __call__(self, item: Any, **shared: Any) -> Any:
        return self.fn([item], **shared)[0]


def _item_specs(
    call: Callable[..., Any],
    base: str,
    items: list[Any],
    labels: Sequence[Any] | None,
    shared_kwargs: tuple[tuple[str, Any], ...] = (),
) -> list[ExperimentSpec]:
    """One spec per item, named ``base[label]`` (``base[i]`` unlabelled)."""
    if labels is not None:
        labels = list(labels)
        if len(labels) != len(items):
            raise ValueError(
                f"labels length {len(labels)} does not match items length {len(items)}"
            )
    return [
        ExperimentSpec(
            name=f"{base}[{labels[i] if labels is not None else i}]",
            fn=call,
            kwargs=(("item", item),) + shared_kwargs,
        )
        for i, item in enumerate(items)
    ]
