"""Analytic host-CPU cost models (Rocket-class in-order, BOOM-class OoO).

The host CPU enters the paper's evaluation through the *software kernels it
executes*: the naive DNN baselines of Figure 7, the im2col marshalling that
CNN inference needs when the accelerator lacks an on-the-fly im2col unit,
and CPU-resident operators (softmax, layer-norm, GELU) that language models
keep on the host.  A per-kernel cycles-per-element model captures exactly
that role; the constants are calibrated so the paper's published
CPU/accelerator anchors are reproduced (each anchor is noted at its
constant below).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CPUModel:
    """Per-kernel cycle costs of one host CPU class.

    ``*_cpe`` fields are cycles per elementary operation: per MAC for the
    compute kernels, per element for data-marshalling and pointwise kernels.
    """

    name: str
    #: naive direct convolution (the Figure 7 CPU baseline)
    conv_cpe: float
    #: naive depthwise convolution
    dwconv_cpe: float
    #: naive dense matmul / fully connected
    matmul_cpe: float
    #: im2col patch marshalling, per element gathered
    im2col_cpe: float
    #: pointwise ops: residual add, quantise, activation
    elementwise_cpe: float
    #: max/avg pooling, per input element compared
    pool_cpe: float
    #: softmax, per element (exp + normalise in software)
    softmax_cpe: float
    #: layer normalisation, per element
    layernorm_cpe: float
    #: GELU activation, per element (tanh approximation in software)
    gelu_cpe: float
    #: framework/driver overhead per layer dispatched
    dispatch_cycles: float
    #: cost of issuing one RoCC custom instruction
    rocc_issue_cycles: float

    # -- kernel cost entry points ---------------------------------------- #

    def conv_cycles(self, macs: int) -> float:
        """Naive direct convolution of ``macs`` multiply-accumulates."""
        return macs * self.conv_cpe

    def dwconv_cycles(self, macs: int) -> float:
        return macs * self.dwconv_cpe

    def matmul_cycles(self, macs: int) -> float:
        return macs * self.matmul_cpe

    def im2col_cycles(self, elements: int) -> float:
        """Marshalling ``elements`` values into patch-matrix layout."""
        return elements * self.im2col_cpe

    def elementwise_cycles(self, elements: int) -> float:
        return elements * self.elementwise_cpe

    def pool_cycles(self, elements: int) -> float:
        return elements * self.pool_cpe

    def softmax_cycles(self, elements: int) -> float:
        return elements * self.softmax_cpe

    def layernorm_cycles(self, elements: int) -> float:
        return elements * self.layernorm_cpe

    def gelu_cycles(self, elements: int) -> float:
        return elements * self.gelu_cpe

    def dispatch(self, layers: int = 1) -> float:
        return layers * self.dispatch_cycles

    def rocc_issue(self, instructions: int) -> float:
        return instructions * self.rocc_issue_cycles

    def scaled(self, factor: float, name: str | None = None) -> "CPUModel":
        """A CPU uniformly ``factor``x faster (for what-if studies)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            name=name or f"{self.name}/x{factor:g}",
            conv_cpe=self.conv_cpe / factor,
            dwconv_cpe=self.dwconv_cpe / factor,
            matmul_cpe=self.matmul_cpe / factor,
            im2col_cpe=self.im2col_cpe / factor,
            elementwise_cpe=self.elementwise_cpe / factor,
            pool_cpe=self.pool_cpe / factor,
            softmax_cpe=self.softmax_cpe / factor,
            layernorm_cpe=self.layernorm_cpe / factor,
            gelu_cpe=self.gelu_cpe / factor,
            dispatch_cycles=self.dispatch_cycles / factor,
            rocc_issue_cycles=self.rocc_issue_cycles / factor,
        )


#: Low-power in-order core (Rocket-class).  Calibration:
#: conv_cpe anchors the full-ResNet50 Rocket baseline at ~81 Gcycles, the
#: paper's 2,670x ratio against the generated accelerator; matmul_cpe
#: anchors the BERT ratio (144x); softmax/layernorm/gelu costs reflect
#: software exp/tanh on an in-order scalar core.
ROCKET = CPUModel(
    name="rocket",
    conv_cpe=26.3,
    dwconv_cpe=22.0,
    matmul_cpe=32.0,
    im2col_cpe=40.0,
    elementwise_cpe=12.0,
    pool_cpe=4.0,
    softmax_cpe=250.0,
    layernorm_cpe=110.0,
    gelu_cpe=320.0,
    dispatch_cycles=2000.0,
    rocc_issue_cycles=10.0,
)

#: High-performance out-of-order core (BOOM-class).  Calibrated to the
#: paper's 2.36x Rocket/BOOM full-CNN ratio (2,670x vs 1,130x) and the
#: ~2.0x end-to-end gain it gives CNNs when the CPU performs im2col.
BOOM = CPUModel(
    name="boom",
    conv_cpe=26.3 / 2.36,
    dwconv_cpe=22.0 / 2.36,
    matmul_cpe=32.0 / 2.36,
    im2col_cpe=20.0,
    elementwise_cpe=5.0,
    pool_cpe=2.0,
    softmax_cpe=95.0,
    layernorm_cpe=42.0,
    gelu_cpe=120.0,
    dispatch_cycles=800.0,
    rocc_issue_cycles=4.0,
)

_BY_NAME = {"rocket": ROCKET, "boom": BOOM}


def cpu_by_name(name: str) -> CPUModel:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown CPU {name!r}; known: {sorted(_BY_NAME)}") from None
