"""The accelerator's DMA engine: strided row transfers with translation.

Every MVIN/MVOUT becomes a sequence of row transfers.  Each row is
translated through the accelerator's :class:`TranslationSystem` (one request
per page the row touches — consecutive same-page requests are what the
filter registers of Section V-A capture), then moved over the system bus and
through the shared L2/DRAM at the physical address the translation
returned.  Read and write channels are independent, so
loads and stores overlap like the paper's overlapped read/write streams.

A transfer is simulated in staged passes rather than row by row: one
channel issue scan, one translation pass over every request, then one
memory pass per *segment* of physical accesses whose start times are
known.  Each pass is one loop owned by its component, and every timeline
sees the bookings the row-by-row order makes, so the results are bitwise
those of simulating each row in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, sub

from repro.core.config import GemminiConfig
from repro.mem.hierarchy import MemorySystem
from repro.mem.tlb import TranslationSystem
from repro.sim.stats import StatsRegistry
from repro.sim.timeline import Timeline


@dataclass
class DMAResult:
    """Timing summary of one MVIN/MVOUT-sized transfer."""

    start_time: float
    end_time: float
    bytes_moved: int
    tlb_requests: int
    translation_stall: float

    @property
    def cycles(self) -> float:
        return self.end_time - self.start_time


class DMAEngine:
    """Row-granularity DMA with separate read and write channels."""

    def __init__(
        self,
        config: GemminiConfig,
        xlat: TranslationSystem,
        mem: MemorySystem,
        name: str = "dma",
    ) -> None:
        self.config = config
        self.xlat = xlat
        self.mem = mem
        self.name = name
        self.read_channel = Timeline(f"{name}.rd")
        self.write_channel = Timeline(f"{name}.wr")
        self.stats = StatsRegistry(owner=name)
        self.page_bytes = xlat.config.page_bytes
        #: a :class:`~repro.sim.trace.TraceRecorder` logging every
        #: translation and memory access while it records, else None
        self.recorder = None
        # Least costs behind :meth:`floor`: a translation (a filter hit is
        # free, else the private TLB is looked up first), a bus transaction
        # (overhead + bytes / beat) and the memory after the bus (an L2 hit,
        # or without an L2 the faster of a DRAM row hit and a random access).
        self._least_translation = (
            0.0 if xlat.filters is not None else xlat.config.private_hit_latency
        )
        self._bus_overhead = mem.bus.overhead
        self._bus_beat = float(mem.bus.beat_bytes)
        l2 = mem.config.l2
        dram = mem.config.dram
        self._least_memory = (
            l2.hit_latency if l2 is not None
            else min(dram.row_hit_latency, dram.access_latency)
        )

    # ------------------------------------------------------------------ #

    def floor(self, bytes_per_row: int, nrows: int) -> float:
        """A lower bound on ``transfer(now, ...).end_time - now`` for these rows.

        It holds whatever the TLBs, filter registers, L2 and DRAM hold and
        however busy the channel, PTW, bus and ports are, for any address,
        stride and direction.  The transfer's end is no earlier than each of:

        * the channel scan: ``nrows`` back-to-back occupancies;
        * the translation chain: at least one single-ported request per
          row, each taking the least translation latency (0 with filter
          registers, else the private TLB's hit latency), then the last
          request's bus overhead and the memory's least latency;
        * the bus: the first request's least translation, then ``nrows``
          FCFS transactions of at least ``overhead + bytes_per_row / beat``
          each (a row split at a page boundary pays two overheads), then
          the memory's least latency (an L2 hit, else a DRAM row hit or
          random access, whichever is faster).

        Memory contention, misses and walks only add to these, so this is
        the floor the controller's drain bound charges a DMA op.  It holds
        in exact arithmetic; the transfer's float additions may end a few
        ulps of its times earlier, which the drain bound's scaling covers.
        """
        occupancy = max(1.0, bytes_per_row / self.config.dma_bus_bytes)
        translation = self._least_translation
        overhead = self._bus_overhead
        memory = self._least_memory
        return max(
            nrows * occupancy,
            nrows * translation + overhead + memory,
            translation + nrows * (overhead + bytes_per_row / self._bus_beat) + memory,
        )

    def transfer(
        self,
        now: float,
        vaddr: int,
        bytes_per_row: int,
        nrows: int,
        stride_bytes: int,
        is_write: bool,
        requester: str = "",
    ) -> DMAResult:
        """Move ``nrows`` rows of ``bytes_per_row`` with a row stride.

        Returns the transfer's timing summary.  Rows are pipelined on the
        channel: the channel is occupied ``bytes/bus_width`` cycles per row
        while translation and memory latency overlap with later rows.

        The transfer runs as staged passes, each owned by one component and
        each one loop over many requests in issue order: the channel issue
        scan, the translation pass (:meth:`TranslationSystem.translate_chain`)
        and the memory pass (:meth:`MemorySystem.access`, one call per
        segment).  Every timeline sees the bookings a row-by-row loop makes,
        in the same order and with the same float arithmetic.
        """
        if bytes_per_row <= 0 or nrows <= 0:
            raise ValueError("transfer must move at least one byte")
        channel = self.write_channel if is_write else self.read_channel
        page_bytes = self.page_bytes

        # 1. Channel issue scan.  Rows occupy the channel back to back, so
        # each row after the first issues when the previous one frees it.
        occupancy = max(1.0, bytes_per_row / self.config.dma_bus_bytes)
        first_issue = channel.peek(now)
        frees = channel.book_all([now] * nrows, [occupancy] * nrows)

        # One translation request and one physical access ("chunk") per page
        # each row touches.  A row's first chunk waits for all of its
        # translations; a later chunk starts when the previous one completes.
        xl_earliest: list[float] = []
        vpns: list[int] = []
        chunk_offset: list[int] = []  # byte offset of each chunk in its page
        chunk_bytes: list[int] = []
        crossing: list[tuple[int, int]] = []  # (first, last) chunk of split rows
        row_vaddr = vaddr
        for issue in (first_issue, *frees[:-1]):
            first_vpn = row_vaddr // page_bytes
            last_vpn = (row_vaddr + bytes_per_row - 1) // page_bytes
            if first_vpn == last_vpn:
                xl_earliest.append(issue)
                vpns.append(first_vpn)
                chunk_offset.append(row_vaddr % page_bytes)
                chunk_bytes.append(bytes_per_row)
            else:
                crossing.append((len(vpns), len(vpns) + last_vpn - first_vpn))
                cursor = row_vaddr
                remaining = bytes_per_row
                for vpn in range(first_vpn, last_vpn + 1):
                    offset = cursor % page_bytes
                    chunk = min(remaining, page_bytes - offset)
                    xl_earliest.append(issue)
                    vpns.append(vpn)
                    chunk_offset.append(offset)
                    chunk_bytes.append(chunk)
                    cursor += chunk
                    remaining -= chunk
            row_vaddr += stride_bytes

        # 2. Translation pass.  The TLB is single-ported: successive rows'
        # translations serialise, so a burst of misses (e.g. at a tile
        # boundary) throttles the whole stream — the effect the Section V-A
        # TLB sizing study measures.
        xlat = self.xlat
        xl_start, xl_end, ppns = xlat.translate_chain(xl_earliest, vpns, is_write)
        # Summed in request order, as a running ``+=`` would.
        translation_stall = reduce(add, map(sub, xl_end, xl_start), 0.0)
        # Physical addresses come from the translation pass's PPNs; the page
        # table still counts one functional walk per request.
        paddrs = [ppn * page_bytes + offset for ppn, offset in zip(ppns, chunk_offset)]
        if xlat.page_table is not None:
            xlat.page_table.count_functional_walks(len(vpns))

        # 3. Memory pass, one segment at a time.  A segment ends after each
        # chunk that has a successor in its row, since that successor starts
        # at the chunk's completion (filled into ``starts`` once known).
        starts = list(xl_end)
        cuts: list[int] = []
        for first, last in crossing:
            starts[first] = xl_end[last]
            cuts.extend(range(first + 1, last + 1))
        writes = [is_write] * len(vpns)
        ends: list[float] = []
        for begin, stop in zip([0, *cuts], [*cuts, len(vpns)]):
            if begin:
                starts[begin] = ends[-1]
            ends += self.mem.access(starts[begin:stop], paddrs[begin:stop],
                                    chunk_bytes[begin:stop], writes[begin:stop], requester)

        if self.recorder is not None:
            self.recorder.log_translations(xl_start, xl_end, vpns, is_write)
            self.recorder.log_accesses(starts, ends, paddrs, chunk_bytes, is_write, requester)

        bytes_moved = bytes_per_row * nrows
        self.stats.add("bytes_written" if is_write else "bytes_read", bytes_moved)
        self.stats.add("rows", nrows)
        self.stats.add("transfers")
        return DMAResult(
            start_time=first_issue,
            end_time=max(now, max(ends), frees[-1]),
            bytes_moved=bytes_moved,
            tlb_requests=len(vpns),
            translation_stall=translation_stall,
        )
