"""The push-button compiler: graph IR -> per-layer execution plans.

Mirrors the paper's high-level software flow: given an ONNX-subset graph
and a generated accelerator's parameters, produce an ordered list of
:class:`LayerPlan` — "mapping as many kernels as possible onto the
Gemmini-generated accelerator" (Section III-B) and leaving the rest on the
host CPU.  Standard graph optimisations are applied first: batch-norm
folding into the preceding convolution, activation fusion, and max-pool
fusion into the convolution's store when a pooling engine was generated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.generator import SoftwareParams
from repro.core.peripherals import ConvParams, PoolParams
from repro.sw.graph import Graph, GraphError, Node


class Placement(enum.Enum):
    ACCEL = "accel"
    CPU = "cpu"


@dataclass
class LayerPlan:
    """One schedulable unit of work."""

    name: str
    kind: str  # conv | dwconv | matmul | resadd | pool | cpu_op | noop
    placement: Placement
    inputs: tuple[str, ...]
    output: str
    weight: str | None = None
    conv: ConvParams | None = None
    pool: PoolParams | None = None  # fused (conv) or standalone (pool kind)
    m: int = 0
    k: int = 0
    n: int = 0
    elements: int = 0
    cpu_kind: str = ""
    activation: str = "none"
    has_bias: bool = False
    macs: int = 0

    @property
    def array_matmul(self) -> tuple[tuple[int, int, int], int] | None:
        """This plan as ``count`` array matmuls of one shape: ``((m, k, n),
        count)``, or None.  A convolution is its im2col lowering
        (``m=num_patches, k=patch_size, n=out_ch``) and a matmul its own
        shape, once each; a depthwise convolution is one ``num_patches x
        k^2 @ k^2 x 1`` matmul per channel.  The kernels, the tuner's shape
        list, DSE's workloads and the SJF oracle all read this one lowering.
        """
        if self.placement is not Placement.ACCEL:
            return None
        conv = self.conv
        if self.kind == "matmul":
            return (self.m, self.k, self.n), 1
        if self.kind == "conv":
            return (conv.num_patches, conv.patch_size, conv.out_ch), 1
        if self.kind == "dwconv":
            return (conv.num_patches, conv.kernel * conv.kernel, 1), conv.out_ch
        return None

    def describe(self) -> str:
        extra = ""
        if self.kind in ("conv", "dwconv") and self.conv is not None:
            extra = (
                f" {self.conv.in_h}x{self.conv.in_w}x{self.conv.in_ch}"
                f"->k{self.conv.kernel}s{self.conv.stride}->{self.conv.out_ch}ch"
            )
        elif self.kind == "matmul":
            extra = f" {self.m}x{self.k}@{self.k}x{self.n}"
        elif self.kind in ("resadd", "cpu_op", "pool"):
            extra = f" {self.elements} elems"
        fused = f" +{self.activation}" if self.activation != "none" else ""
        pooled = " +pool" if self.kind == "conv" and self.pool is not None else ""
        return f"[{self.placement.value}] {self.kind}{extra}{fused}{pooled} ({self.name})"


@dataclass
class CompiledModel:
    """The compiler's output: an ordered plan plus memory requirements."""

    name: str
    plans: list[LayerPlan]
    tensor_bytes: dict[str, int]
    weight_bytes: dict[str, int]
    im2col_scratch_bytes: int
    total_macs: int
    params: SoftwareParams = field(repr=False, default=None)

    def matmul_shapes(self) -> list[tuple[int, int, int]]:
        """Ordered unique (m, k, n) shapes the runtime's matmul dispatch
        will plan for: the :attr:`LayerPlan.array_matmul` shape of every
        matmul layer and convolution.  Depthwise convolutions are excluded:
        their per-channel matmuls bypass the tiling planner.  This is the
        shape list ``gemmini-repro tune`` pre-warms the schedule cache with.
        """
        lowerings = (plan.array_matmul for plan in self.plans if plan.kind != "dwconv")
        return list(dict.fromkeys(lowering[0] for lowering in lowerings if lowering))

    def summary(self) -> str:
        lines = [f"model {self.name}: {len(self.plans)} layers, {self.total_macs / 1e6:.1f} MMACs"]
        kinds: dict[str, int] = {}
        for plan in self.plans:
            key = f"{plan.placement.value}:{plan.kind}"
            kinds[key] = kinds.get(key, 0) + 1
        for key in sorted(kinds):
            lines.append(f"  {key}: {kinds[key]}")
        return "\n".join(lines)


_DTYPE_BYTES = {"int8": 1, "int16": 2, "int32": 4, "fp32": 4, "bf16": 2}

_ACTIVATION_OPS = {"Relu": "relu", "Relu6": "relu6"}

_CPU_KINDS = {
    "Softmax": "softmax",
    "LayerNorm": "layernorm",
    "Gelu": "gelu",
    "AveragePool": "pool",
    "GlobalAveragePool": "pool",
    "BatchNorm": "elementwise",
    "Relu": "elementwise",
    "Relu6": "elementwise",
}


def compile_graph(graph: Graph, params: SoftwareParams) -> CompiledModel:
    """Compile a validated graph for one accelerator instance."""
    graph.validate()
    consumers = _count_consumers(graph)
    plans: list[LayerPlan] = []
    skip: set[int] = set()
    nodes = graph.nodes

    for index, node in enumerate(nodes):
        if index in skip:
            continue
        plan = _plan_node(graph, params, node)
        if plan is None:
            continue

        # Fusion window: look ahead while the chain is linear.
        cursor = index
        while cursor + 1 < len(nodes):
            nxt = nodes[cursor + 1]
            if nxt.inputs[0] != nodes[cursor].outputs[0]:
                break
            if consumers.get(nodes[cursor].outputs[0], 0) != 1:
                break
            if nxt.op == "BatchNorm" and plan.kind in ("conv", "dwconv"):
                plan.has_bias = True
                plan.output = nxt.outputs[0]
                skip.add(cursor + 1)
                cursor += 1
                continue
            if nxt.op in _ACTIVATION_OPS and plan.placement is Placement.ACCEL:
                plan.activation = _ACTIVATION_OPS[nxt.op]
                plan.output = nxt.outputs[0]
                skip.add(cursor + 1)
                cursor += 1
                continue
            if (
                nxt.op == "MaxPool"
                and plan.kind == "conv"
                and params.dim > 0
                and plan.pool is None
                and _pool_fusable(graph, nxt)
            ):
                out = graph.tensor(nodes[cursor].outputs[0])
                plan.pool = PoolParams(
                    size=nxt.attrs.get("kernel", 2),
                    stride=nxt.attrs.get("stride", nxt.attrs.get("kernel", 2)),
                    in_h=out.shape[0],
                    in_w=out.shape[1],
                )
                plan.output = nxt.outputs[0]
                skip.add(cursor + 1)
                cursor += 1
                continue
            break
        plans.append(plan)

    tensor_bytes, weight_bytes = _memory_requirements(graph)
    im2col_scratch = 0
    if not params.has_im2col:
        for plan in plans:
            if plan.kind == "conv" and plan.conv is not None:
                im2col_scratch = max(
                    im2col_scratch, plan.conv.num_patches * plan.conv.patch_size
                )
    return CompiledModel(
        name=graph.name,
        plans=plans,
        tensor_bytes=tensor_bytes,
        weight_bytes=weight_bytes,
        im2col_scratch_bytes=im2col_scratch,
        total_macs=graph.total_macs(),
        params=params,
    )


# ---------------------------------------------------------------------- #


def _count_consumers(graph: Graph) -> dict[str, int]:
    counts: dict[str, int] = {}
    for node in graph.nodes:
        for tensor in node.inputs:
            counts[tensor] = counts.get(tensor, 0) + 1
    for output in graph.outputs:
        counts[output] = counts.get(output, 0) + 1
    return counts


def _pool_fusable(graph: Graph, node: Node) -> bool:
    return node.attrs.get("kernel", 2) <= 3 and node.attrs.get("padding", 0) == 0


def _plan_node(graph: Graph, params: SoftwareParams, node: Node) -> LayerPlan | None:
    op = node.op
    out = graph.tensor(node.outputs[0])

    if op in ("Conv", "DepthwiseConv"):
        a = graph.tensor(node.inputs[0])
        conv = ConvParams(
            in_h=a.shape[0],
            in_w=a.shape[1],
            in_ch=a.shape[2],
            out_ch=out.shape[2],
            kernel=node.attrs.get("kernel", 1),
            stride=node.attrs.get("stride", 1),
            padding=node.attrs.get("padding", 0),
        )
        kind = "dwconv" if op == "DepthwiseConv" else "conv"
        macs = graph.node_macs(node)
        weight = node.inputs[1] if len(node.inputs) > 1 else None
        return LayerPlan(
            name=node.name,
            kind=kind,
            placement=Placement.ACCEL,
            inputs=(node.inputs[0],),
            output=node.outputs[0],
            weight=weight,
            conv=conv,
            macs=macs,
        )

    if op in ("Gemm", "MatMul"):
        a = graph.tensor(node.inputs[0])
        b = graph.tensor(node.inputs[1])
        return LayerPlan(
            name=node.name,
            kind="matmul",
            placement=Placement.ACCEL,
            inputs=(node.inputs[0], node.inputs[1]),
            output=node.outputs[0],
            weight=node.inputs[1] if b.is_weight else None,
            m=a.shape[0],
            k=a.shape[1],
            n=b.shape[1],
            elements=out.elements,
            macs=graph.node_macs(node),
            has_bias=op == "Gemm",
        )

    if op == "Add":
        return LayerPlan(
            name=node.name,
            kind="resadd",
            placement=Placement.ACCEL,
            inputs=(node.inputs[0], node.inputs[1]),
            output=node.outputs[0],
            elements=out.elements,
        )

    if op == "MaxPool":
        a = graph.tensor(node.inputs[0])
        pool = PoolParams(
            size=node.attrs.get("kernel", 2),
            stride=node.attrs.get("stride", node.attrs.get("kernel", 2)),
            in_h=a.shape[0],
            in_w=a.shape[1],
        )
        placement = Placement.ACCEL if params.dim else Placement.CPU
        return LayerPlan(
            name=node.name,
            kind="pool",
            placement=placement,
            inputs=(node.inputs[0],),
            output=node.outputs[0],
            pool=pool,
            elements=a.elements,
        )

    if op in ("Flatten", "Reshape", "Concat"):
        # Zero-copy in the tuned runtime (outputs are laid out contiguously).
        return LayerPlan(
            name=node.name,
            kind="noop",
            placement=Placement.CPU,
            inputs=tuple(node.inputs),
            output=node.outputs[0],
            cpu_kind="view",
        )

    if op in _CPU_KINDS:
        a = graph.tensor(node.inputs[0])
        batch = node.attrs.get("batch", 1)
        return LayerPlan(
            name=node.name,
            kind="cpu_op",
            placement=Placement.CPU,
            inputs=(node.inputs[0],),
            output=node.outputs[0],
            elements=a.elements * batch,
            cpu_kind=_CPU_KINDS[op],
        )

    raise GraphError(f"compiler has no rule for op {op!r}")


def _memory_requirements(graph: Graph) -> tuple[dict[str, int], dict[str, int]]:
    tensor_bytes: dict[str, int] = {}
    weight_bytes: dict[str, int] = {}
    for spec in graph.tensors.values():
        nbytes = spec.elements * _DTYPE_BYTES.get(spec.dtype, 1)
        if spec.is_weight:
            weight_bytes[spec.name] = nbytes
        else:
            tensor_bytes[spec.name] = nbytes
    return tensor_bytes, weight_bytes
