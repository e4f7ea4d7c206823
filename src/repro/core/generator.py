"""The generator front end: configuration in, accelerator + artifacts out.

``generate(config)`` mirrors invoking the Chisel generator: it validates the
template parameters, produces the software-facing artifacts (the C params
header, the tuned-kernel parameter block) and returns a handle that can
instantiate simulator instances attached to any SoC memory system.  Design
sweeps over the template live in :mod:`repro.dse.space`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.accelerator import Accelerator
from repro.core.config import Dataflow, GemminiConfig
from repro.core.header import emit_params_header
from repro.mem.hierarchy import MemorySystem
from repro.mem.host_memory import HostMemory
from repro.mem.page_table import VirtualMemory
from repro.sim.timeline import Timeline


@dataclass(frozen=True)
class SoftwareParams:
    """The parameter block Gemmini bakes into its tuned C kernels."""

    dim: int
    sp_rows: int
    acc_rows: int
    sp_capacity_bytes: int
    acc_capacity_bytes: int
    input_bytes: int
    acc_bytes: int
    has_im2col: bool
    supports_ws: bool
    supports_os: bool

    @staticmethod
    def from_config(config: GemminiConfig) -> "SoftwareParams":
        return SoftwareParams(
            dim=config.dim,
            sp_rows=config.sp_rows,
            acc_rows=config.acc_rows,
            sp_capacity_bytes=config.sp_capacity_bytes,
            acc_capacity_bytes=config.acc_capacity_bytes,
            input_bytes=config.input_type.bytes,
            acc_bytes=config.acc_type.bytes,
            has_im2col=config.has_im2col,
            supports_ws=config.dataflow.supports(Dataflow.WS),
            supports_os=config.dataflow.supports(Dataflow.OS),
        )


@dataclass
class GeneratedAccelerator:
    """The output of one generator run."""

    config: GemminiConfig
    header: str
    sw_params: SoftwareParams

    def instantiate(
        self,
        mem: MemorySystem | None = None,
        vm: VirtualMemory | None = None,
        host: HostMemory | None = None,
        ptw: Timeline | None = None,
        name: str = "gemmini",
    ) -> Accelerator:
        """Create a simulator instance of this design point."""
        return Accelerator(self.config, mem=mem, vm=vm, host=host, ptw=ptw, name=name)


def generate(config: GemminiConfig) -> GeneratedAccelerator:
    """Run the generator: validate, emit artifacts, return the handle.

    ``GemminiConfig`` already validates its invariants on construction; this
    function is the user-facing entry point matching the RTL generator flow.
    """
    return GeneratedAccelerator(
        config=config,
        header=emit_params_header(config),
        sw_params=SoftwareParams.from_config(config),
    )
