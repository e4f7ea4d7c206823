"""Parallel experiment orchestration with per-config result caching.

Figure reproduction and simulated design-space points are embarrassingly
parallel: every point is an independent (function, config) pair.  The
:class:`ExperimentRunner` fans such points out over a
``ProcessPoolExecutor`` and memoises each result on disk.  A result's key
hashes a digest of the callable (its function's source and module file,
the state that source does not show, the package source tree) and a
digest of each keyword argument, so re-running a sweep only pays for the
points that changed, and any package edit starts a fresh cache.

``eval/experiments.py`` (via :func:`repro.eval.experiments.run_figures`),
the ``benchmarks/`` suite and the DSE explorer's SoC-fidelity and serving
evaluations route through this module.  Analytic DSE points do not: one
batched evaluation of them costs less than keying, pickling and reading
back their cache entries.

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
from typing import Any, Callable, Iterable, Iterator, Sequence

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
    return _digest(payload).hex()


def _digest(obj: Any) -> bytes:
    """SHA-256 of ``obj``'s canonical JSON (:func:`config_hash`'s bytes)."""
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).digest()


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
def _fn_fingerprint(inner: Callable[..., Any]) -> bytes:
    """Digest of an innermost callable's identity, source and module file.

    Memoised per function object: every point of a sweep shares the same
    function, so the source lookups (two file reads through :mod:`inspect`)
    would otherwise dominate key cost.  A redefined function is a new
    object and gets a fresh entry.
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
        module_file = Path(srcfile).read_text(encoding="utf-8") if srcfile else ""
    except (OSError, TypeError):
        module_file = ""
    return _digest([ident, source, module_file])


def _callable_digest(fn: Callable[..., Any]) -> bytes:
    """What a callable computes: its innermost function's fingerprint,
    the state its source does not show, and the package source tree."""
    target = getattr(fn, "__wrapped__", fn)  # a functools.wraps decorator
    # Identity and source come from the innermost function: a partial's
    # own repr embeds a memory address (nondeterministic across runs),
    # while its bindings are captured by _callable_state.
    inner = target
    while isinstance(inner, functools.partial):
        inner = inner.func
    try:
        code = _fn_fingerprint(inner)
    except TypeError:  # unhashable callable (e.g. a custom instance)
        code = _fn_fingerprint.__wrapped__(inner)
    return _digest([code.hex(), _callable_state(target), _source_fingerprint()])


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
        """Cache key of running this spec: see :func:`_spec_keys`.

        ``name`` is deliberately excluded: it is a display label (sweep
        position, figure name), and the same computation must hit the same
        cache entry however it is labelled or ordered.
        """
        return _spec_keys([self])[0]

    def run(self) -> Any:
        return self.fn(**dict(self.kwargs))


def _spec_keys(specs: Sequence[ExperimentSpec]) -> list[str]:
    """Cache key of every spec: ``sha256(callable digest ‖ sorted (name,
    value digest) pairs)``.

    The callable digest (:func:`_callable_digest`) covers the package
    source tree, so any package edit changes every key.  Each distinct
    callable and argument object is digested once per call (a sweep's
    specs share their keyword argument objects).
    """
    values: dict[int, bytes] = {}
    callables: dict[int, bytes] = {}
    keys = []
    for spec in specs:
        fn = callables.get(id(spec.fn))
        if fn is None:
            fn = callables[id(spec.fn)] = _callable_digest(spec.fn)
        digest = hashlib.sha256(fn)
        for name, value in sorted(spec.kwargs, key=lambda kv: kv[0]):
            if id(value) not in values:
                values[id(value)] = _digest(value)
            digest.update(name.encode("utf-8") + b"\0" + values[id(value)])
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

        Cached results are served immediately (keys: :func:`_spec_keys`);
        within one batch, specs with identical cache keys compute once and
        fan out, counted as hits (the evolutionary and annealing DSE
        strategies routinely re-propose points); the remainder execute in
        parallel (or inline when a pool is not worth spinning up).
        """
        results: list[Any] = [None] * len(specs)
        pending: list[int] = []
        tracer = self.tracer
        keys = _spec_keys(specs) if self.cache is not None else None
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
        for i, value in self._execute(specs, pending):
            results[i] = value
            if keys is not None:
                self.cache.put(keys[i], value)
        for i, first in duplicates.items():
            results[i] = results[first]
        return results

    def _execute(
        self, specs: Sequence[ExperimentSpec], pending: list[int]
    ) -> Iterator[tuple[int, Any]]:
        """Run pending specs one by one, inline or on the process pool,
        yielding ``(position, result)`` as each finishes."""
        tracer = self.tracer
        if self.max_workers == 1 or len(pending) == 1:
            pid = os.getpid()
            lane = f"worker:{pid}"
            tracer.declare_lane(lane, process="runner", label=f"pid {pid} (inline)")
            for i in pending:
                t0 = tracer.now()
                value = specs[i].run()
                tracer.complete(lane, specs[i].name, t0, tracer.now(), {"pid": pid})
                yield i, value
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
                yield i, value
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        *,
        label: str | None = None,
        labels: Sequence[Any] | None = None,
        **shared: Any,
    ) -> list[Any]:
        """Parallel (cached) map of ``fn(item, **shared)`` over ``items``.

        Each item's spec runs ``functools.partial(fn, item)`` with the
        ``shared`` keywords, so its cache key covers the item and every
        shared argument.  ``labels`` (optional, one per item) replaces the
        positional ``[0]``, ``[1]``... in spec names so sweep traces read as
        ``dse[dim=16,tile=2]`` instead of ``dse[7]``; it is display-only and
        never reaches the cache key.
        """
        items = list(items)
        base = label or getattr(fn, "__name__", "map")
        kwargs = tuple(sorted(shared.items()))
        specs = [
            ExperimentSpec(name, functools.partial(fn, item), kwargs)
            for name, item in zip(_spec_names(base, items, labels), items)
        ]
        return self.run_specs(specs)

    def stats(self) -> RunnerStats:
        """Hits/misses/hit-rate accumulated since the last reset."""
        return RunnerStats(hits=self.hits, misses=self.misses)

    def reset_stats(self) -> None:
        """Zero the counters so multi-phase runs report per-phase numbers."""
        self.hits = 0
        self.misses = 0


def _spec_names(base: str, items: list[Any], labels: Sequence[Any] | None) -> list[str]:
    """One spec name per item: ``base[label]`` (``base[i]`` unlabelled)."""
    if labels is None:
        return [f"{base}[{i}]" for i in range(len(items))]
    labels = list(labels)
    if len(labels) != len(items):
        raise ValueError(
            f"labels length {len(labels)} does not match items length {len(items)}"
        )
    return [f"{base}[{label}]" for label in labels]
