"""The runtime: executes compiled models on an SoC tile.

Allocates every tensor in the process's virtual address space (so DMA
streams cross real page boundaries), then walks the layer plans in order:
accelerator layers become macro-op streams on the tile's decoupled
controller, CPU layers advance the clock by the host model's kernel cost,
and OS quantum expiry injects context-switch overhead and TLB flushes.

``run_generator`` yields the tile's dispatch clock (``controller.now``)
after every macro-op; for the paper's dual-core contention experiments
:class:`repro.sim.engine.EventLoop` steps each tile's generator laggard-first
on that clock.  That clock
trails the times the issued ops book the shared bus, L2 and DRAM, and
shared timelines book in call order, so tiles reach shared state in
dispatch order rather than global time order (ROADMAP item M).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Generator

from repro.core.generator import SoftwareParams
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.soc.soc import SoCTile
from repro.sw.compiler import CompiledModel, LayerPlan, Placement
from repro.sw.kernels import TileKernels
from repro.sw.schedule_cache import ScheduleCache


@dataclass
class LayerStats:
    """Per-layer execution record.

    ``cycles`` is the layer's *marginal* contribution to total run time:
    the amount the completion frontier advanced while this layer's ops were
    in flight.  Marginal cycles are additive (they sum to the run total),
    which makes per-layer-type comparisons across configurations sound even
    though neighbouring layers overlap in the decoupled pipeline.
    """

    name: str
    kind: str
    placement: str
    start_time: float
    end_time: float
    cycles: float = 0.0
    macs: int = 0
    cpu_cycles: float = 0.0


@dataclass
class RunResult:
    """Outcome of one full model execution on one tile."""

    model: str
    tile: str
    total_cycles: float
    layers: list[LayerStats] = field(default_factory=list)
    macro_ops: int = 0
    #: lazily built name -> LayerStats index backing :meth:`layer`
    _layer_index: dict | None = field(default=None, init=False, repr=False, compare=False)

    def fps(self, clock_ghz: float = 1.0) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return clock_ghz * 1e9 / self.total_cycles

    def cycles_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in self.layers:
            out[layer.kind] = out.get(layer.kind, 0.0) + layer.cycles
        return out

    def layer(self, name: str) -> LayerStats:
        """Look up one layer's stats by name (O(1) after the first call).

        Duplicate layer names raise instead of silently shadowing: a linear
        scan would always return the first match, hiding the later layer's
        stats from every caller.
        """
        if self._layer_index is None or len(self._layer_index) != len(self.layers):
            index: dict[str, LayerStats] = {}
            for layer in self.layers:
                if layer.name in index:
                    raise ValueError(
                        f"duplicate layer name {layer.name!r} in run result; "
                        "per-name lookup would silently shadow one of them"
                    )
                index[layer.name] = layer
            self._layer_index = index
        try:
            return self._layer_index[name]
        except KeyError:
            raise KeyError(name) from None


def _check_compiled_for(model: CompiledModel, tile: SoCTile) -> None:
    """Refuse a model compiled for another accelerator than the tile's: its
    plans and scratch buffers assume that config (a model compiled with the
    im2col unit has no host-im2col scratch, so on a tile without the unit
    the host lowering would stream past its input)."""
    expected = SoftwareParams.from_config(tile.accel.config)
    if model.params == expected:
        return
    differing = [
        f"{f.name}={getattr(model.params, f.name, None)!r} (tile: {getattr(expected, f.name)!r})"
        for f in fields(expected)
        if getattr(model.params, f.name, None) != getattr(expected, f.name)
    ]
    raise ValueError(
        f"model {model.name!r} was compiled for another accelerator than tile "
        f"{tile.name!r}: " + ", ".join(differing)
    )


class Runtime:
    """Binds one compiled model to one tile and executes it."""

    def __init__(
        self,
        tile: SoCTile,
        model: CompiledModel,
        sync_per_layer: bool = False,
        share_allocations_from: "Runtime | None" = None,
        tracer: Tracer | None = None,
        schedule_cache: "ScheduleCache | None" = None,
    ) -> None:
        _check_compiled_for(model, tile)
        self.tile = tile
        self.model = model
        #: per-layer span sink (``run --trace-out``); one span per layer,
        #: recorded once the run has drained
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: no ``schedule_cache`` means greedy tiling for every matmul
        self.kernels = TileKernels(
            tile, tracer=self.tracer, schedule_cache=schedule_cache
        )
        #: drain the controller at every layer boundary — slightly slower
        #: overall but gives exact per-layer cycle attribution (the way
        #: per-layer cycle counters behave on the real SoC)
        self.sync_per_layer = sync_per_layer
        self.addresses: dict[str, int] = {}
        self._im2col_vaddr: int | None = None
        if share_allocations_from is not None:
            # Re-bind an already-allocated model to another tile view of the
            # *same* virtual address space (the trace sandbox runs the model
            # against an isolated memory system but must produce the exact
            # DMA address streams of the original runtime).
            if share_allocations_from.model is not model:
                raise ValueError("can only share allocations for the same compiled model")
            self.addresses = share_allocations_from.addresses
            self._im2col_vaddr = share_allocations_from._im2col_vaddr
        else:
            self._allocate()

    # ------------------------------------------------------------------ #
    # Memory layout                                                        #
    # ------------------------------------------------------------------ #

    def _allocate(self) -> None:
        """Lay out weights then activations; resolve zero-copy views."""
        vm = self.tile.vm
        model = self.model

        # Zero-copy view resolution: single-input views alias their input;
        # concat inputs alias slices of the concat output.
        same_as: dict[str, str] = {}
        slice_of: dict[str, tuple[str, int]] = {}
        for plan in model.plans:
            if plan.kind != "noop":
                continue
            if len(plan.inputs) == 1:
                same_as[plan.output] = plan.inputs[0]
            else:
                offset = 0
                for name in plan.inputs:
                    nbytes = model.tensor_bytes.get(name, 0)
                    slice_of[name] = (plan.output, offset)
                    offset += nbytes

        def resolve(name: str, depth: int = 0) -> tuple[str, int]:
            if depth > 64:
                raise ValueError(f"view alias cycle at tensor {name!r}")
            if name in same_as:
                root, offset = resolve(same_as[name], depth + 1)
                return root, offset
            if name in slice_of:
                base, extra = slice_of[name]
                root, offset = resolve(base, depth + 1)
                return root, offset + extra
            return name, 0

        for name, nbytes in model.weight_bytes.items():
            self.addresses[name] = vm.alloc(nbytes, f"w:{name}")

        roots: dict[str, int] = {}
        for name, nbytes in model.tensor_bytes.items():
            root, __ = resolve(name)
            if root in model.tensor_bytes:
                size = model.tensor_bytes[root]
            else:
                size = nbytes
            if root not in roots:
                roots[root] = vm.alloc(size, f"t:{root}")
        for name in model.tensor_bytes:
            root, offset = resolve(name)
            self.addresses[name] = roots[root] + offset

        if model.im2col_scratch_bytes and not self.tile.accel.config.has_im2col:
            self._im2col_vaddr = vm.alloc(model.im2col_scratch_bytes, "im2col")

    def addr(self, tensor: str) -> int:
        try:
            return self.addresses[tensor]
        except KeyError:
            raise KeyError(f"tensor {tensor!r} was never allocated") from None

    # ------------------------------------------------------------------ #
    # Execution                                                            #
    # ------------------------------------------------------------------ #

    def run(self) -> RunResult:
        """Execute to completion (single-tile convenience)."""
        result = None
        for result in self.run_generator():
            pass
        return self._result

    def run_generator(self) -> Generator[float, None, None]:
        """Execute, yielding the tile-local clock after every macro-op."""
        controller = self.tile.accel.controller
        cpu = self.tile.cpu
        start = controller.now
        layers: list[LayerStats] = []
        macro_ops = 0
        frontier = start  # completion frontier for marginal attribution
        windows: list[float] = []  # the frontier before each layer

        for plan in self.model.plans:
            layer_start = controller.now
            layer_end = layer_start
            cpu_cycles = 0.0

            # OS time-slice bookkeeping at layer boundaries.
            overhead, flush = self.tile.os.check(controller.now)
            if overhead:
                controller.advance_to(controller.now + overhead)
            if flush:
                self.tile.accel.xlat.flush()

            if plan.placement is Placement.CPU:
                cpu_cycles = self._cpu_plan_cycles(plan)
                controller.drain()
                controller.advance_to(controller.now + cpu_cycles)
                layer_end = controller.now
                yield controller.now
            else:
                controller.advance_to(controller.now + cpu.dispatch_cycles)
                pre_cycles, ops = self._accel_plan_ops(plan)
                if pre_cycles:
                    # Host-side preprocessing (CPU im2col) must finish
                    # before the accelerator's loads stream the result.
                    controller.drain()
                    controller.advance_to(controller.now + pre_cycles)
                    cpu_cycles += pre_cycles
                for op in ops:
                    op_end = controller.issue(op)
                    if op_end > layer_end:
                        layer_end = op_end
                    macro_ops += 1
                    # Yield the (monotone) dispatch clock the event loop
                    # merges on; op completions are tracked separately.
                    yield controller.now

            if self.sync_per_layer:
                layer_end = max(layer_end, controller.drain())
            layer_end = max(layer_end, controller.now)
            windows.append(frontier)
            marginal = max(0.0, layer_end - frontier)
            frontier = max(frontier, layer_end)
            layers.append(
                LayerStats(
                    name=plan.name,
                    kind=plan.kind,
                    placement=plan.placement.value,
                    start_time=layer_start,
                    end_time=layer_end,
                    cycles=marginal,
                    macs=plan.macs,
                    cpu_cycles=cpu_cycles,
                )
            )

        end = controller.drain()
        if layers:
            layers[-1].end_time = max(layers[-1].end_time, end)
            layers[-1].cycles += max(0.0, end - frontier)
        if self.tracer:
            # A layer's span is the window its ``cycles`` cover, from the
            # completion frontier before it to the one after it (the final
            # drain for the last layer): the spans tile the run, while
            # dispatch-to-last-op intervals overlap under pipelining.
            windows.append(end)
            for layer, t0, t1 in zip(layers, windows, windows[1:]):
                self.tracer.complete(self.tile.name, layer.name, t0, t1, {
                    "kind": layer.kind,
                    "placement": layer.placement,
                    "macs": layer.macs,
                    "dispatch_start": layer.start_time,
                    "last_op_end": layer.end_time,
                })
        yield end
        self._result = RunResult(
            model=self.model.name,
            tile=self.tile.name,
            total_cycles=end - start,
            layers=layers,
            macro_ops=macro_ops,
        )

    @property
    def result(self) -> RunResult:
        return self._result

    # ------------------------------------------------------------------ #

    def _cpu_plan_cycles(self, plan: LayerPlan) -> float:
        cpu = self.tile.cpu
        if plan.kind == "noop":
            return 0.0
        kind = plan.cpu_kind
        if kind == "softmax":
            return cpu.softmax_cycles(plan.elements) + cpu.dispatch_cycles
        if kind == "layernorm":
            return cpu.layernorm_cycles(plan.elements) + cpu.dispatch_cycles
        if kind == "gelu":
            return cpu.gelu_cycles(plan.elements) + cpu.dispatch_cycles
        if kind == "pool":
            return cpu.pool_cycles(plan.elements) + cpu.dispatch_cycles
        return cpu.elementwise_cycles(plan.elements) + cpu.dispatch_cycles

    def _accel_plan_ops(self, plan: LayerPlan):
        kernels = self.kernels
        if plan.kind == "conv":
            pool_scale = 1.0
            pool_cycles = 0.0
            if plan.pool is not None and self.tile.accel.pooling is not None:
                pool_scale = (plan.pool.out_h * plan.pool.out_w) / float(
                    plan.pool.in_h * plan.pool.in_w
                )
                pool_cycles = kernels.pool_cycles(plan.pool, plan.conv.out_ch)
            ops, cpu_cycles = kernels.conv_ops(
                plan.conv,
                input_vaddr=self.addr(plan.inputs[0]),
                weight_vaddr=self.addr(plan.weight) if plan.weight else self.addr(plan.inputs[0]),
                output_vaddr=self.addr(plan.output),
                bias_vaddr=self.addr(plan.weight) if plan.has_bias and plan.weight else None,
                im2col_vaddr=self._im2col_vaddr,
                in_token=plan.inputs[0],
                w_token=plan.weight,
                out_token=plan.output,
                c_rows_scale=pool_scale,
                store_extra_cycles=pool_cycles,
                label=plan.name,
            )
            return cpu_cycles, ops
        if plan.kind == "dwconv":
            shape, channels = plan.array_matmul
            ops = kernels.dwconv_ops(
                plan.conv,
                shape,
                channels,
                input_vaddr=self.addr(plan.inputs[0]),
                weight_vaddr=self.addr(plan.weight) if plan.weight else self.addr(plan.inputs[0]),
                output_vaddr=self.addr(plan.output),
                in_token=plan.inputs[0],
                w_token=plan.weight,
                out_token=plan.output,
                label=plan.name,
            )
            return 0.0, ops
        if plan.kind == "matmul":
            b_name = plan.weight if plan.weight else plan.inputs[1]
            weight_vaddr = self.addr(b_name)
            ops = kernels.matmul_ops(
                self.addr(plan.inputs[0]),
                weight_vaddr,
                self.addr(plan.output),
                plan.m,
                plan.k,
                plan.n,
                bias_vaddr=weight_vaddr if plan.has_bias else None,
                a_token=plan.inputs[0],
                b_token=b_name,
                c_token=plan.output,
                label=plan.name,
            )
            return 0.0, ops
        if plan.kind == "resadd":
            ops = kernels.resadd_ops(
                self.addr(plan.inputs[0]),
                self.addr(plan.inputs[1]),
                self.addr(plan.output),
                plan.elements,
                x_token=plan.inputs[0],
                y_token=plan.inputs[1],
                out_token=plan.output,
                label=plan.name,
            )
            return 0.0, ops
        if plan.kind == "pool":
            channels = plan.elements // (plan.pool.in_h * plan.pool.in_w)
            ops = kernels.pool_ops(
                plan.pool,
                channels,
                input_vaddr=self.addr(plan.inputs[0]),
                output_vaddr=self.addr(plan.output),
                in_token=plan.inputs[0],
                out_token=plan.output,
                label=plan.name,
            )
            return 0.0, ops
        raise ValueError(f"runtime cannot execute plan kind {plan.kind!r}")

