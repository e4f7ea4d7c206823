"""Tuned accelerator kernels: tiled matmul, conv, residual-add, pooling.

Each kernel lowers one layer into *macro-ops* for the accelerator's
decoupled controller: DMA loads and stores, built by
:meth:`DMAEngine.op <repro.core.dma.DMAEngine.op>` as the ISA executor's
MVIN/MVOUT ops are, run real address streams through the TLB and shared L2
(so translation and cache behaviour are exact), while compute ops carry
closed-form cycle costs from :func:`~repro.core.spatial_array.matmul_cycles`
(property-tested against the ISA-level simulator).  The double-buffered
loop structure mirrors Gemmini's tuned C library: loads of iteration *n+1*
overlap the matmul of iteration *n* through the scoreboard.

The kernels only yield ops; a caller puts them on the tile through
:meth:`Controller.issue <repro.core.controller.Controller.issue>`, one op
at a time, and waits with :meth:`~repro.core.controller.Controller.drain`
(the runtime, the tuner's verification and the benchmarks all do).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.controller import Op
from repro.core.generator import SoftwareParams
from repro.core.peripherals import ConvParams, PoolParams
from repro.core.spatial_array import fill_latency, matmul_cycles
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.soc.soc import SoCTile
from repro.sw.schedule_cache import NULL_SCHEDULE_CACHE, ScheduleCache, schedule_key
from repro.sw.tiling import MatmulTiling, plan_matmul_tiling


#: fixed controller overhead charged per macro compute op (loop bookkeeping
#: and RoCC issue of the hardware-loop commands); the tuner's screen charges
#: the same
ISSUE_OVERHEAD = 8.0


class TileKernels:
    """Kernel library bound to one SoC tile (CPU + accelerator pair)."""

    def __init__(
        self,
        tile: SoCTile,
        tracer: Tracer | None = None,
        schedule_cache: ScheduleCache | None = None,
    ) -> None:
        self.tile = tile
        self.accel = tile.accel
        self.config = self.accel.config
        self.params = SoftwareParams.from_config(self.config)
        self.dim = self.config.dim
        self._fill_latency = float(fill_latency(self.config))
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: tuned-schedule source for auto-planned matmuls; without one every
        #: matmul takes the greedy plan
        self.schedule_cache = (
            schedule_cache if schedule_cache is not None else NULL_SCHEDULE_CACHE
        )

    # ------------------------------------------------------------------ #
    # Schedule dispatch                                                    #
    # ------------------------------------------------------------------ #

    def select_tiling(self, m: int, k: int, n: int) -> MatmulTiling:
        """The schedule an auto-planned matmul of this shape will run.

        Cache hit -> the tuned schedule (never worse than greedy: the tuner
        always verifies the greedy plan as a candidate); miss or disabled
        cache -> the greedy heuristic.  Hit/miss counts land in the cache's
        stats and, when a tracer is attached, in ``schedule_hits`` /
        ``schedule_misses`` counter series for ``trace`` summaries.
        """
        cache = self.schedule_cache
        if not cache:
            return plan_matmul_tiling(self.params, m, k, n)
        tiling = cache.lookup(schedule_key(self.config, m, k, n))
        tracer = self.tracer
        if tracer:
            now = self.accel.controller.now
            stats = cache.stats
            tracer.counter(self.tile.name, "schedule_hits", now, float(stats.hits))
            tracer.counter(self.tile.name, "schedule_misses", now, float(stats.misses))
        if tiling is not None:
            return tiling
        return plan_matmul_tiling(self.params, m, k, n)

    # ------------------------------------------------------------------ #
    # Compute macro-op helper                                              #
    # ------------------------------------------------------------------ #

    def _exec_op(self, cycles: float, reads: tuple, writes: tuple, label: str = "exec") -> Op:
        return Op(
            unit="exec",
            cycles=cycles + ISSUE_OVERHEAD,
            reads=reads,
            writes=writes,
            write_latency=self._fill_latency,
            label=label,
        )

    # ------------------------------------------------------------------ #
    # Tiled matmul                                                         #
    # ------------------------------------------------------------------ #

    def matmul_ops(
        self,
        a_vaddr: int,
        b_vaddr: int,
        c_vaddr: int,
        m: int,
        k: int,
        n: int,
        elem_bytes: int = 1,
        out_bytes: int = 1,
        bias_vaddr: int | None = None,
        tiling: MatmulTiling | None = None,
        a_token: object = None,
        b_token: object = None,
        c_token: object = None,
        a_bytes_scale: float = 1.0,
        c_rows_scale: float = 1.0,
        store_extra_cycles: float = 0.0,
        label: str = "matmul",
    ) -> Iterator[Op]:
        """Yield the macro-op stream of a blocked ``m x k @ k x n`` matmul.

        ``a_bytes_scale`` shrinks the A-side DMA traffic; the on-the-fly
        im2col unit uses it to stream raw convolution inputs instead of the
        k^2-amplified patch matrix.
        """
        t = tiling or self.select_tiling(m, k, n)
        dma = self.accel.dma
        requester = self.accel.name
        # When the on-the-fly im2col unit feeds the array (a_bytes_scale =
        # 1/k^2), the A-side DMA walks the *raw input tensor*, not the
        # virtual patch matrix: offsets, row bytes and stride all shrink by
        # the patch-amplification factor so the stream stays inside the
        # input allocation.
        a_stride = max(1, int(k * elem_bytes * a_bytes_scale))
        b_stride = n * elem_bytes
        c_stride = n * out_bytes

        # Buffer parities ping-pong the scratchpad/accumulator halves; a
        # single-buffered schedule collapses every parity to 0, which makes
        # the scoreboard serialise the next load against the current exec.
        nbuf = 2 if t.double_buffer else 1
        if t.loop_order == "jik":
            pairs = ((i0, j0) for j0 in range(t.outer_j) for i0 in range(t.outer_i))
        else:
            pairs = ((i0, j0) for i0 in range(t.outer_i) for j0 in range(t.outer_j))

        for pair_index, (i0, j0) in enumerate(pairs):
            c_buf = ("C", label, pair_index % nbuf)
            if bias_vaddr is not None:
                # Bias row broadcast into the accumulator tile.
                m_cur, __, n_cur = t.clipped(i0, j0, 0)
                yield dma.op(
                    bias_vaddr + j0 * t.tile_n * 4,
                    bytes_per_row=n_cur * 4,
                    nrows=1,
                    stride=n_cur * 4,
                    is_write=False,
                    writes=(c_buf,),
                    reads=(("t", bias_vaddr),),
                    label=f"{label}.bias",
                    requester=requester,
                )
            for k0 in range(t.outer_k):
                m_cur, k_cur, n_cur = t.clipped(i0, j0, k0)
                a_buf = ("A", label, (i0 * t.outer_k + k0) % nbuf)
                b_buf = ("B", label, (j0 * t.outer_k + k0) % nbuf)

                a_tile_vaddr = a_vaddr + int(
                    (i0 * t.tile_m * k + k0 * t.tile_k) * elem_bytes * a_bytes_scale
                )
                a_row_bytes = max(1, int(k_cur * elem_bytes * a_bytes_scale))
                yield dma.op(
                    a_tile_vaddr,
                    bytes_per_row=a_row_bytes,
                    nrows=m_cur,
                    stride=a_stride,
                    is_write=False,
                    writes=(a_buf,),
                    reads=(("t", a_token),) if a_token is not None else (),
                    label=f"{label}.ldA",
                    requester=requester,
                )
                b_tile_vaddr = b_vaddr + (k0 * t.tile_k * n + j0 * t.tile_n) * elem_bytes
                yield dma.op(
                    b_tile_vaddr,
                    bytes_per_row=n_cur * elem_bytes,
                    nrows=k_cur,
                    stride=b_stride,
                    is_write=False,
                    writes=(b_buf,),
                    reads=(("t", b_token),) if b_token is not None else (),
                    label=f"{label}.ldB",
                    requester=requester,
                )
                yield self._exec_op(
                    matmul_cycles(self.config, m_cur, k_cur, n_cur),
                    reads=(a_buf, b_buf),
                    writes=(c_buf,),
                    label=f"{label}.ex",
                )
            m_cur, __, n_cur = t.clipped(i0, j0, 0)
            store_rows = max(1, int(m_cur * c_rows_scale))
            c_tile_vaddr = c_vaddr + int(
                (i0 * t.tile_m * c_rows_scale) * n + j0 * t.tile_n
            ) * out_bytes
            if store_extra_cycles:
                # Fused pooling occupies the store pipeline before the
                # (shrunken) result leaves for DRAM.
                yield Op(
                    unit="store",
                    cycles=store_extra_cycles / max(1, t.outer_i * t.outer_j),
                    reads=(c_buf,),
                    label=f"{label}.pool",
                )
            yield dma.op(
                c_tile_vaddr,
                bytes_per_row=n_cur * out_bytes,
                nrows=store_rows,
                stride=c_stride,
                is_write=True,
                reads=(c_buf,),
                writes=(("t", c_token),) if c_token is not None else (),
                label=f"{label}.st",
                requester=requester,
            )

    # ------------------------------------------------------------------ #
    # Convolution (im2col lowering)                                        #
    # ------------------------------------------------------------------ #

    def conv_ops(
        self,
        conv: ConvParams,
        input_vaddr: int,
        weight_vaddr: int,
        output_vaddr: int,
        bias_vaddr: int | None = None,
        im2col_vaddr: int | None = None,
        in_token: object = None,
        w_token: object = None,
        out_token: object = None,
        c_rows_scale: float = 1.0,
        store_extra_cycles: float = 0.0,
        label: str = "conv",
    ) -> tuple[Iterator[Op], float]:
        """Lower a convolution; returns (accelerator ops, CPU pre-cycles).

        On a config with the on-the-fly im2col unit, the patch matrix is
        generated as inputs stream from the scratchpad: A-side DMA moves
        only the raw input pixels and the CPU does no work.  Without it, the
        host CPU materialises the patch matrix into ``im2col_vaddr`` first
        (the returned CPU cycles), and the accelerator streams the
        k^2-amplified matrix from DRAM; that path needs ``im2col_vaddr``
        (streaming the k^2-times larger matrix from ``input_vaddr`` would
        read past the input).
        """
        m = conv.num_patches
        k = conv.patch_size
        n = conv.out_ch

        if self.params.has_im2col:
            ops = self.matmul_ops(
                input_vaddr,
                weight_vaddr,
                output_vaddr,
                m,
                k,
                n,
                bias_vaddr=bias_vaddr,
                a_token=in_token,
                b_token=w_token,
                c_token=out_token,
                a_bytes_scale=1.0 / (conv.kernel * conv.kernel),
                c_rows_scale=c_rows_scale,
                store_extra_cycles=store_extra_cycles,
                label=label,
            )
            return ops, 0.0

        # CPU-side im2col into a scratch DRAM buffer, then a plain matmul.
        if im2col_vaddr is None:
            raise ValueError(f"{label}: host im2col needs an im2col_vaddr scratch buffer")
        cpu_cycles = self.tile.cpu.im2col_cycles(m * k)
        ops = self.matmul_ops(
            im2col_vaddr,
            weight_vaddr,
            output_vaddr,
            m,
            k,
            n,
            bias_vaddr=bias_vaddr,
            a_token=("im2col", label),
            b_token=w_token,
            c_token=out_token,
            c_rows_scale=c_rows_scale,
            store_extra_cycles=store_extra_cycles,
            label=label,
        )
        return ops, cpu_cycles

    # ------------------------------------------------------------------ #
    # Depthwise convolution                                                #
    # ------------------------------------------------------------------ #

    def dwconv_ops(
        self,
        conv: ConvParams,
        shape: tuple[int, int, int],
        channels: int,
        input_vaddr: int,
        weight_vaddr: int,
        output_vaddr: int,
        in_token: object = None,
        w_token: object = None,
        out_token: object = None,
        label: str = "dwconv",
    ) -> Iterator[Op]:
        """Depthwise convolution: ``channels`` tiny matmuls of ``shape``.

        ``(shape, channels)`` is the plan's
        :attr:`~repro.sw.compiler.LayerPlan.array_matmul`: one
        ``(out_h*out_w) x k^2 @ k^2 x 1`` matmul per channel, almost no
        reuse, so the spatial array runs at a few percent utilisation.
        This is exactly the paper's MobileNetV2 observation.
        """
        kk = shape[1]
        per_channel = matmul_cycles(self.config, *shape)
        dma = self.accel.dma
        requester = self.accel.name

        # Tile channels so each group's I/O fits a scratchpad half.
        bytes_per_channel = conv.in_h * conv.in_w
        sp_half_bytes = self.params.sp_capacity_bytes // 2
        group = max(1, min(channels, sp_half_bytes // max(1, bytes_per_channel)))
        done = 0
        index = 0
        while done < channels:
            count = min(group, channels - done)
            in_buf = ("dwA", label, index % 2)
            out_buf = ("dwC", label, index % 2)
            in_bytes = count * bytes_per_channel
            rows = max(1, conv.in_h)
            yield dma.op(
                input_vaddr + done * bytes_per_channel,
                bytes_per_row=max(1, in_bytes // rows),
                nrows=rows,
                stride=max(1, in_bytes // rows),
                is_write=False,
                writes=(in_buf,),
                reads=(("t", in_token),) if in_token is not None else (),
                label=f"{label}.ld",
                requester=requester,
            )
            yield dma.op(
                weight_vaddr + done * kk,
                bytes_per_row=kk,
                nrows=count,
                stride=kk,
                is_write=False,
                writes=((label, "w"),),
                reads=(("t", w_token),) if w_token is not None else (),
                label=f"{label}.ldw",
                requester=requester,
            )
            yield self._exec_op(
                per_channel * count,
                reads=(in_buf, (label, "w")),
                writes=(out_buf,),
                label=f"{label}.ex",
            )
            out_bytes = count * conv.out_h * conv.out_w
            out_rows = max(1, conv.out_h)
            yield dma.op(
                output_vaddr + done * conv.out_h * conv.out_w,
                bytes_per_row=max(1, out_bytes // out_rows),
                nrows=out_rows,
                stride=max(1, out_bytes // out_rows),
                is_write=True,
                reads=(out_buf,),
                writes=(("t", out_token),) if out_token is not None else (),
                label=f"{label}.st",
                requester=requester,
            )
            done += count
            index += 1

    # ------------------------------------------------------------------ #
    # Residual addition                                                    #
    # ------------------------------------------------------------------ #

    def resadd_ops(
        self,
        x_vaddr: int,
        y_vaddr: int,
        out_vaddr: int,
        elements: int,
        x_token: object = None,
        y_token: object = None,
        out_token: object = None,
        label: str = "resadd",
    ) -> Iterator[Op]:
        """Elementwise add through the accumulator (paper Section V-B).

        Almost no data reuse: every element is loaded twice and stored once,
        so the kernel is memory-bound and its performance tracks whether the
        operands are still resident in the shared L2.
        """
        if elements <= 0:
            raise ValueError("resadd needs at least one element")
        dma = self.accel.dma
        requester = self.accel.name
        row_bytes = 512
        acc_tile_bytes = (self.params.acc_rows // 2) * self.dim * 4
        tile_elems = max(row_bytes, (acc_tile_bytes // 4 // row_bytes) * row_bytes)
        offset = 0
        index = 0
        while offset < elements:
            count = min(tile_elems, elements - offset)
            rows = max(1, count // row_bytes)
            per_row = -(-count // rows)
            acc_buf = (label, index % 2)
            yield dma.op(
                x_vaddr + offset,
                bytes_per_row=per_row,
                nrows=rows,
                stride=per_row,
                is_write=False,
                writes=(acc_buf,),
                reads=(("t", x_token),) if x_token is not None else (),
                label=f"{label}.ldx",
                requester=f"{requester}.resadd_x",
            )
            yield dma.op(
                y_vaddr + offset,
                bytes_per_row=per_row,
                nrows=rows,
                stride=per_row,
                is_write=False,
                writes=(acc_buf,),
                reads=(("t", y_token),) if y_token is not None else (),
                label=f"{label}.ldy",
                requester=f"{requester}.resadd_y",
            )
            yield dma.op(
                out_vaddr + offset,
                bytes_per_row=per_row,
                nrows=rows,
                stride=per_row,
                is_write=True,
                reads=(acc_buf,),
                writes=(("t", out_token),) if out_token is not None else (),
                label=f"{label}.st",
                requester=f"{requester}.resadd_st",
            )
            offset += count
            index += 1

    # ------------------------------------------------------------------ #
    # Pooling                                                              #
    # ------------------------------------------------------------------ #

    def pool_cycles(self, pool: PoolParams, channels: int) -> float:
        """Extra MVOUT cycles when max-pooling is fused into the store."""
        if self.accel.pooling is None:
            raise ValueError("this instance has no pooling engine")
        return float(self.accel.pooling.cycles(pool, channels))

    def pool_ops(
        self,
        pool: PoolParams,
        channels: int,
        input_vaddr: int,
        output_vaddr: int,
        in_token: object = None,
        out_token: object = None,
        label: str = "pool",
    ) -> Iterator[Op]:
        """Standalone max-pool: stream in, pool in the engine, stream out."""
        in_elems = pool.in_h * pool.in_w * channels
        out_elems = pool.out_h * pool.out_w * channels
        in_rows = max(1, pool.in_h)
        out_rows = max(1, pool.out_h)
        buf = (label, "buf")
        dma = self.accel.dma
        requester = self.accel.name
        yield dma.op(
            input_vaddr,
            bytes_per_row=max(1, in_elems // in_rows),
            nrows=in_rows,
            stride=max(1, in_elems // in_rows),
            is_write=False,
            writes=(buf,),
            reads=(("t", in_token),) if in_token is not None else (),
            label=f"{label}.ld",
            requester=requester,
        )
        yield self._exec_op(
            self.pool_cycles(pool, channels),
            reads=(buf,),
            writes=((label, "out"),),
            label=f"{label}.ex",
        )
        yield dma.op(
            output_vaddr,
            bytes_per_row=max(1, out_elems // out_rows),
            nrows=out_rows,
            stride=max(1, out_elems // out_rows),
            is_write=True,
            reads=((label, "out"),),
            writes=(("t", out_token),) if out_token is not None else (),
            label=f"{label}.st",
            requester=requester,
        )
