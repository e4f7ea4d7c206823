"""Outside-in per-layer tracing of the simulator's host cost.

The tracer wraps public functions and methods of each simulator layer from
outside the package: nothing under ``src/`` knows it exists.  Every wrapped
call (or, for generator functions, every ``next()``) is one *frame* on a
stack, which gives three numbers per layer:

* ``calls`` -- exact number of frames;
* ``self_s`` -- exclusive ``perf_counter`` time: the frame's duration minus
  the time its child frames covered, net of the calibrated wrapper cost;
* ``incl_s`` -- inclusive time of the outermost frames of the layer (a
  recursive or nested call of the same layer is not counted twice), net of
  the wrapper cost of every frame beneath it.

The wrapper cost is calibrated on a no-op before wrapping.  ``inner`` is
the part of it that falls inside a frame's own interval (subtracted from the
frame), ``outer`` the part that falls outside (subtracted from the parent).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

#: deepest nesting of wrapped frames the tracer supports
_MAX_DEPTH = 1024

#: layer name -> wrapped targets, as ``module:qualname``.  A method is
#: wrapped on its class and on every subclass that overrides it.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.controller": ("repro.core.controller:Controller.issue",),
    "core.dma": ("repro.core.dma:DMAEngine.transfer",),
    "mem.tlb": ("repro.mem.tlb:TranslationSystem.translate_vpn",),
    "mem.page_table": ("repro.mem.page_table:VirtualMemory.translate",),
    "mem.hierarchy": ("repro.mem.hierarchy:MemorySystem.access",),
    "mem.bus": ("repro.mem.bus:SystemBus.transfer",),
    "mem.cache": ("repro.mem.cache:Cache.access",),
    "mem.dram": ("repro.mem.dram:DRAMModel.access",),
    "sim.timeline": (
        "repro.sim.timeline:Timeline.book",
        "repro.sim.timeline:BandwidthTimeline.transfer",
    ),
    "mem.cache_batch": ("repro.mem.cache:Cache.access_batch",),
    "mem.dram_batch": ("repro.mem.dram:DRAMModel.access_batch",),
    "mem.tlb_batch": ("repro.mem.tlb:TranslationSystem.translate_batch",),
    "mem.bus_batch": ("repro.mem.bus:SystemBus.transfer_batch",),
    "sim.trace.replay": ("repro.sim.trace:MacroTrace.replay",),
    "sim.trace.record": (
        "repro.sim.trace:TraceRecorder.record",
        "repro.sim.trace:record_steady_state_trace",
    ),
    "serve.cluster": ("repro.serve.cluster:ServingSimulation.run",),
    "serve.scheduler": (
        "repro.serve.scheduler:Scheduler.add",
        "repro.serve.scheduler:Scheduler.pick",
    ),
    "sw.compiler": ("repro.sw.compiler:compile_graph",),
    "soc.make_soc": ("repro.soc.soc:make_soc",),
    "sw.runtime": ("repro.sw.runtime:Runtime.run_generator",),
    "sw.kernels": tuple(
        f"repro.sw.kernels:TileKernels.{name}"
        for name in ("matmul_ops", "conv_ops", "dwconv_ops", "resadd_ops", "pool_ops")
    ),
    "sw.tune.enumerate": ("repro.sw.tune:enumerate_tilings",),
    "sw.tune.estimate": ("repro.sw.tune:estimate_cycles",),
    "sw.tune.simulate": ("repro.sw.tune:simulate_tiling_cycles",),
    "sw.schedule_cache.put": ("repro.sw.schedule_cache:ScheduleCache.put",),
    "dse.pareto": (
        "repro.dse.pareto:nondominated_sort",
        "repro.dse.pareto:split_front",
        "repro.dse.pareto:hypervolume",
    ),
    "dse.strategies": (
        "repro.dse.strategies:Strategy.ask",
        "repro.dse.strategies:Strategy.tell",
    ),
    "dse.objectives": ("repro.dse.objectives:evaluate_design_batch",),
    "eval.runner": ("repro.eval.runner:ExperimentRunner.map_batch",),
}

#: layer name -> classes whose instances' ``stats`` registries are summed
#: into that layer's counters (every instance the workload creates)
COUNTED: dict[str, str] = {
    "core.dma": "repro.core.dma:DMAEngine",
    "mem.tlb": "repro.mem.tlb:TranslationSystem",
    "mem.cache": "repro.mem.cache:Cache",
    "mem.dram": "repro.mem.dram:DRAMModel",
}


class Layer:
    """Accumulators of one traced layer."""

    __slots__ = ("name", "calls", "self_s", "incl_s", "depth")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


def _noop(a, b, c, d) -> None:
    return None


def _noop_gen(n: int):
    for i in range(n):
        yield i


class LayerTracer:
    """Wraps layer entry points, accumulates per-layer time, restores them.

    Call :meth:`calibrate` before the first :meth:`wrap`: wrappers bind the
    calibrated cost when they are made.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        #: per open frame (index 0 = outside every frame): time its child
        #: frames covered, and the wrapper cost of every frame beneath it;
        #: preallocated so a call allocates nothing
        self._child = [0.0] * _MAX_DEPTH
        self._nested = [0.0] * _MAX_DEPTH
        self._top = [0]
        self._patches: list[tuple[object, str, object]] = []
        self.registries: dict[str, list] = {}
        self.inner = 0.0
        self.outer = 0.0
        self.gen_inner = 0.0
        self.gen_outer = 0.0
        self._t0 = clock()

    # -- accumulators ---------------------------------------------------- #

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(name)
        return self.layers[name]

    def attributed_s(self) -> float:
        """Time spent inside top-level frames (wrapper cost included)."""
        return self._child[0]

    def elapsed_s(self) -> float:
        """Time since :meth:`install` (or since the tracer was made)."""
        return self.clock() - self._t0

    # -- wrappers ---------------------------------------------------------- #

    def wrap(self, fn, layer: Layer):
        """A wrapper timing each call of ``fn`` as one frame of ``layer``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)
        child, nested, top, clock = self._child, self._nested, self._top, self.clock
        inner, outer = self.inner, self.outer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            d = top[0] + 1
            top[0] = d
            child[d] = nested[d] = 0.0
            layer.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                top[0] = d - 1
                layer.depth -= 1
                child[d - 1] += elapsed + outer
                nested[d - 1] += nested[d] + inner + outer
                layer.calls += 1
                layer.self_s += elapsed - child[d] - inner
                if not layer.depth:
                    layer.incl_s += elapsed - nested[d] - inner

        return wrapper

    def _wrap_generator(self, fn, layer: Layer):
        """Generator functions do their work in ``next()``, not at the call
        that creates them: each ``next()`` is one frame."""
        child, nested, top, clock = self._child, self._nested, self._top, self.clock
        inner, outer = self.gen_inner, self.gen_outer

        def timed(iterator):
            step = iterator.__next__
            while True:
                d = top[0] + 1
                top[0] = d
                child[d] = nested[d] = 0.0
                layer.depth += 1
                t0 = clock()
                try:
                    item = step()
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - t0
                    top[0] = d - 1
                    layer.depth -= 1
                    child[d - 1] += elapsed + outer
                    nested[d - 1] += nested[d] + inner + outer
                    layer.calls += 1
                    layer.self_s += elapsed - child[d] - inner
                    if not layer.depth:
                        layer.incl_s += elapsed - nested[d] - inner
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return wrapper

    def calibrate(self, calls: int = 100_000, trials: int = 5) -> None:
        """Measure the per-frame wrapper cost on no-ops (min of ``trials``)."""
        clock = self.clock
        self.inner = self.outer = self.gen_inner = self.gen_outer = 0.0
        best = {}
        for _ in range(trials):
            probe = Layer("calibrate")
            wrapped = self.wrap(_noop, probe)
            t0 = clock()
            for _ in range(calls):
                _noop(0, 1, 2, 3)
            bare = (clock() - t0) / calls
            t0 = clock()
            for _ in range(calls):
                wrapped(0, 1, 2, 3)
            total = (clock() - t0) / calls
            inside = probe.self_s / calls - bare
            gen_probe = Layer("calibrate")
            t0 = clock()
            for _ in _noop_gen(calls):
                pass
            gen_bare = (clock() - t0) / calls
            wrapped_gen = self.wrap(_noop_gen, gen_probe)
            t0 = clock()
            for _ in wrapped_gen(calls):
                pass
            gen_total = (clock() - t0) / calls
            gen_inside = gen_probe.self_s / calls - gen_bare
            for key, value in (
                ("inner", inside),
                ("outer", total - bare - inside),
                ("gen_inner", gen_inside),
                ("gen_outer", gen_total - gen_bare - gen_inside),
            ):
                best[key] = min(best.get(key, value), value)
        self._child[0] = self._nested[0] = 0.0
        for key, value in best.items():
            setattr(self, key, max(0.0, value))

    @property
    def wrapper_ns(self) -> float:
        """Calibrated cost of one wrapped function call, in nanoseconds."""
        return (self.inner + self.outer) * 1e9

    # -- installation -------------------------------------------------------- #

    def _patch(self, owner, attr: str, layer: Layer) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer))

    def _count_instances(self, cls, layer_name: str) -> None:
        original = cls.__dict__["__init__"]
        registries = self.registries.setdefault(layer_name, [])

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            registries.append(obj.stats)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    def counters(self, layer_name: str) -> dict[str, int]:
        """The layer's simulator counters, summed over its instances."""
        total: dict[str, int] = {}
        for registry in self.registries.get(layer_name, ()):
            for name, value in registry.snapshot().items():
                total[name] = total.get(name, 0) + value
        return total

    def install(
        self,
        layers: dict[str, tuple[str, ...]] = LAYERS,
        counted: dict[str, str] = COUNTED,
        package: str = "repro",
    ) -> None:
        """Wrap every target of ``layers`` and count instances of the
        ``counted`` classes (resets the accumulators).

        Every submodule of ``package`` is imported first, so no module can
        import a wrapper by name after installation and keep it past
        :meth:`restore`.
        """
        root = importlib.import_module(package)
        for info in pkgutil.walk_packages(root.__path__, package + "."):
            importlib.import_module(info.name)
        self.layers.clear()
        self.registries.clear()
        self._child[0] = self._nested[0] = 0.0
        self._t0 = self.clock()
        for layer_name, targets in layers.items():
            layer = self.layer(layer_name)
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    for cls in _with_subclasses(getattr(module, class_name)):
                        if attr in cls.__dict__:
                            self._patch(cls, attr, layer)
                else:
                    # ``from module import fn`` copies the reference into the
                    # importer: rebind it there too.
                    original = getattr(module, qualname)
                    for holder in _modules_holding(original, package):
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._patch(holder, attr, layer)
        for layer_name, target in counted.items():
            module_name, class_name = target.split(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            self._count_instances(cls, layer_name)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _with_subclasses(cls) -> list[type]:
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _modules_holding(obj, package: str) -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == package or name.startswith(package + "."))
        and any(value is obj for value in list(vars(module).values()))
    ]
