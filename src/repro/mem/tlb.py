"""Virtual-address translation: TLBs, filter registers, and the PTW.

This module implements the translation hierarchy of the paper's Section V-A
case study:

* a small **private TLB** inside the accelerator's DMA path,
* an optional larger **shared L2 TLB** the private TLB falls back on,
* a single **page-table walker** shared by the CPU and the accelerator,
* optional per-channel **filter registers** — one caching the last
  translation used by DMA reads and one for DMA writes — which serve
  consecutive same-page requests with zero-cycle latency and keep reads and
  writes from evicting each other's hot entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.sim.stats import RateWindow, StatsRegistry
from repro.sim.timeline import Timeline


@dataclass(frozen=True)
class TLBConfig:
    """Translation-system parameters.

    ``private_entries``/``shared_entries`` of zero disable that level.  All
    latencies are in cycles.  TLBs are fully associative with true-LRU
    replacement, matching small accelerator TLBs.
    """

    private_entries: int = 16
    shared_entries: int = 128
    filter_registers: bool = False
    page_bytes: int = 4096
    private_hit_latency: float = 4.0
    shared_hit_latency: float = 16.0
    #: three radix levels, typically L2-resident: 3 x ~20 cycles
    walk_latency: float = 60.0
    miss_rate_window: int = 512

    def __post_init__(self) -> None:
        if self.private_entries < 0 or self.shared_entries < 0:
            raise ValueError("TLB entry counts must be non-negative")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page_bytes must be a positive power of two")
        if min(self.private_hit_latency, self.shared_hit_latency, self.walk_latency) < 0:
            raise ValueError("latencies must be non-negative")


class TLB:
    """A fully associative, true-LRU TLB mapping each resident VPN to its PPN."""

    def __init__(self, entries: int, name: str = "tlb") -> None:
        if entries < 0:
            raise ValueError("entries must be non-negative")
        self.entries = entries
        self.name = name
        self._lru: OrderedDict[int, int] = OrderedDict()

    def lookup(self, vpn: int) -> bool:
        """True on hit (and refresh recency); False on miss."""
        if vpn in self._lru:
            self._lru.move_to_end(vpn)
            return True
        return False

    def fill(self, vpn: int, ppn: int) -> None:
        if self.entries == 0:
            return
        if vpn in self._lru:
            self._lru.move_to_end(vpn)
            self._lru[vpn] = ppn
            return
        if len(self._lru) >= self.entries:
            self._lru.popitem(last=False)
        self._lru[vpn] = ppn

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy(self) -> int:
        return len(self._lru)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._lru


class FilterRegisters:
    """Last-translation registers, one per DMA channel direction.

    A request whose virtual page number matches the channel's register skips
    the TLB entirely (zero-cycle translation) and takes the register's PPN.
    Keeping separate read and write registers prevents the overlapped
    read/write streams from evicting each other's entry — the contention the
    paper observed.
    """

    __slots__ = ("read_vpn", "write_vpn", "read_ppn", "write_ppn")

    def __init__(self) -> None:
        self.flush()

    def check(self, vpn: int, is_write: bool) -> bool:
        if is_write:
            return vpn == self.write_vpn
        return vpn == self.read_vpn

    def update(self, vpn: int, is_write: bool, ppn: int) -> None:
        if is_write:
            self.write_vpn = vpn
            self.write_ppn = ppn
        else:
            self.read_vpn = vpn
            self.read_ppn = ppn

    def flush(self) -> None:
        self.read_vpn = None
        self.write_vpn = None
        self.read_ppn = None
        self.write_ppn = None


class TranslationSystem:
    """The full translation path used by an accelerator's DMA engine.

    ``ptw`` may be shared between several translation systems (and the host
    CPU) to model the paper's single shared page-table walker; pass the same
    :class:`~repro.sim.timeline.Timeline` to each.
    """

    def __init__(
        self,
        config: TLBConfig,
        ptw: Timeline | None = None,
        page_table=None,
        name: str = "xlat",
    ) -> None:
        self.config = config
        self.name = name
        self.private = TLB(config.private_entries, f"{name}.private")
        self.shared = TLB(config.shared_entries, f"{name}.shared")
        self.filters = FilterRegisters() if config.filter_registers else None
        self.ptw = ptw if ptw is not None else Timeline(f"{name}.ptw")
        self.page_table = page_table
        self.stats = StatsRegistry(owner=name)
        self.miss_window = RateWindow(f"{name}.miss_rate", config.miss_rate_window)
        self._last_vpn = {False: None, True: None}

    # ------------------------------------------------------------------ #

    def translate_chain(self, earliest, vpns, is_write: bool):
        """Translate one channel's request stream in issue order.

        The TLB is single-ported, so request ``i`` starts at
        ``max(earliest[i], end of request i-1)``.  One pass walks the filter
        register, the private and shared TLBs and the PTW in order (walks
        book the possibly shared PTW one by one), records every outcome in
        the miss-rate window and adds each counter once.  Returns the lists
        ``(starts, ends, ppns)``, one entry per request.  A PPN comes from
        the level that served the request (the filter register, the
        private or shared TLB, or a walk, which reads it from the page
        table; with no page table the PPN is the VPN).  Which level served
        each request shows only in the counters.

        A request on the same page as the chain's previous one needs no
        lookup: that page is the filter register's (a zero-cycle filter
        hit) or, without filter registers, the private TLB's newest entry
        (a private hit).  With no filter registers and no private TLB,
        every request takes the full path.
        """
        cfg = self.config
        private = self.private
        private_lru = private._lru
        private_ppn = private_lru.get
        refresh_private = private_lru.move_to_end
        shared = self.shared
        shared_lru = shared._lru
        shared_entries = cfg.shared_entries
        private_latency = cfg.private_hit_latency
        shared_latency = cfg.shared_hit_latency
        walk_offset = shared_latency if shared_entries else 0
        walk_latency = cfg.walk_latency
        page_table = self.page_table
        ptw = self.ptw
        filters = self.filters
        if filters is not None:
            filter_vpn = filters.write_vpn if is_write else filters.read_vpn
            filter_ppn = filters.write_ppn if is_write else filters.read_ppn
            repeat_latency = 0.0
        else:
            repeat_latency = private_latency
        # The VPN the same-page fast path compares against (None: off).
        prev = None
        repeats = cfg.private_entries > 0 or filters is not None
        # Track consecutive same-page behaviour per channel (paper: 87% of
        # consecutive reads and 83% of consecutive writes hit the same page).
        last = self._last_vpn[is_write]
        # Every request but a stream's very first follows one on its channel.
        consecutive = len(vpns) if last is not None else max(len(vpns) - 1, 0)
        same = filter_hits = private_hits = shared_hits = walks = 0
        starts: list[float] = []
        ends: list[float] = []
        ppns: list[int] = []
        # Indices of the requests that missed the private TLB.
        miss_at: list[int] = []
        add_start = starts.append
        add_end = ends.append
        add_ppn = ppns.append
        end = float("-inf")
        for e, vpn in zip(earliest, vpns):
            t = e if e > end else end
            if last == vpn:
                same += 1
            last = vpn
            if vpn == prev:
                end = t + repeat_latency
            elif filters is not None and vpn == filter_vpn:
                end = t
                filter_hits += 1
                ppn = filter_ppn
                prev = vpn
            else:
                ppn = private_ppn(vpn)
                if ppn is not None:
                    refresh_private(vpn)
                    end = t + private_latency
                    private_hits += 1
                else:
                    after_private = t + private_latency
                    miss_at.append(len(starts))
                    if shared_entries and shared.lookup(vpn):
                        shared_hits += 1
                        ppn = shared_lru[vpn]
                        private.fill(vpn, ppn)
                        end = after_private + shared_latency
                    else:
                        # Full page-table walk on the (possibly shared) PTW.
                        walks += 1
                        ppn = page_table.walk(vpn) if page_table is not None else vpn
                        __, end = ptw.book(after_private + walk_offset, walk_latency)
                        private.fill(vpn, ppn)
                        shared.fill(vpn, ppn)
                if filters is not None:
                    filter_vpn = vpn
                    filter_ppn = ppn
                if repeats:
                    prev = vpn
            add_start(t)
            add_end(end)
            add_ppn(ppn)

        self.miss_window.record_each(starts, miss_at)
        self._last_vpn[is_write] = last
        if filters is not None:
            filters.update(filter_vpn, is_write, filter_ppn)
        # A same-page repeat is a filter hit with filter registers, else a
        # private hit.
        repeat_hits = len(starts) - filter_hits - private_hits - shared_hits - walks
        if filters is not None:
            filter_hits += repeat_hits
        else:
            private_hits += repeat_hits
        kind = "write" if is_write else "read"
        counts = {
            "requests": len(starts),
            f"{kind}_requests": len(starts),
            f"consecutive_{kind}": consecutive,
            f"consecutive_same_{kind}": same,
            "filter_hits": filter_hits,
            "private_hits": private_hits,
            "private_misses": shared_hits + walks,
            "shared_hits": shared_hits,
            "shared_misses": walks if shared_entries else 0,
            "walks": walks,
        }
        stats = self.stats
        for name, value in counts.items():
            if value:
                stats.add(name, value)
        return starts, ends, ppns

    def translate_batch(self, now, vpns, is_write):
        """Translate a whole request sequence; returns the end times.

        Aggregate-equivalent to calling :meth:`translate_chain` on each
        request alone: the TLB/filter state walks through the identical
        lookups and fills (each with its real PPN, as the DMA reads it from a
        warmed TLB), the (possibly shared) PTW sees the same bookings in the
        same order, the miss-rate window records every outcome, and counters
        are added once per name.  The python loop stays, but it is lean — all the per-call
        stats traffic of the scalar path is hoisted out, which is what makes
        batched replay re-resolution cheap.
        """
        import numpy as np

        now = np.asarray(now, dtype=np.float64)
        vpn_list = np.asarray(vpns, dtype=np.int64).tolist()
        write_list = np.asarray(is_write, dtype=bool).tolist()
        if not vpn_list:
            return now
        cfg = self.config
        filters = self.filters
        private = self.private
        shared = self.shared
        shared_entries = cfg.shared_entries
        private_hit_latency = cfg.private_hit_latency
        shared_latency = cfg.shared_hit_latency if shared_entries else 0.0
        last_vpn = self._last_vpn
        # Miss-window outcomes, folded into runs of equal polarity: weighted
        # records split at window boundaries exactly like per-event records,
        # so the emitted rate series carries identical values (only the
        # emission timestamps coarsen to the run's last event).
        run_positive = False
        run_weight = 0
        run_t = 0.0

        def miss_record(t, positive):
            nonlocal run_positive, run_weight, run_t
            if run_weight and positive is not run_positive:
                self.miss_window.record(run_t, run_positive, weight=run_weight)
                run_weight = 0
            run_positive = positive
            run_weight += 1
            run_t = t

        n_write = n_consec_r = n_consec_w = n_same_r = n_same_w = 0
        n_filter = n_priv_hit = n_priv_miss = n_shared_hit = n_shared_miss = n_walk = 0
        last_r = last_vpn[False]
        last_w = last_vpn[True]
        private_lru = private._lru
        private_ppn = private_lru.get
        move_private = private_lru.move_to_end
        shared_lru = shared._lru
        page_table = self.page_table
        ends = now.tolist()
        for i, (vpn, w, t) in enumerate(zip(vpn_list, write_list, ends)):
            if w:
                n_write += 1
                if last_w is not None:
                    n_consec_w += 1
                    if last_w == vpn:
                        n_same_w += 1
                last_w = vpn
            else:
                if last_r is not None:
                    n_consec_r += 1
                    if last_r == vpn:
                        n_same_r += 1
                last_r = vpn

            if filters is not None and filters.check(vpn, w):
                n_filter += 1
                miss_record(t, False)
                continue

            ppn = private_ppn(vpn)
            if ppn is not None:
                move_private(vpn)
                n_priv_hit += 1
                miss_record(t, False)
                ends[i] = t + private_hit_latency
            else:
                n_priv_miss += 1
                miss_record(t, True)
                after_private = t + private_hit_latency
                if shared_entries and shared.lookup(vpn):
                    n_shared_hit += 1
                    ppn = shared_lru[vpn]
                    private.fill(vpn, ppn)
                    ends[i] = after_private + shared_latency
                else:
                    if shared_entries:
                        n_shared_miss += 1
                    n_walk += 1
                    ppn = page_table.walk(vpn) if page_table is not None else vpn
                    __, walk_end = self.ptw.book(after_private + shared_latency, cfg.walk_latency)
                    private.fill(vpn, ppn)
                    shared.fill(vpn, ppn)
                    ends[i] = walk_end
            if filters is not None:
                filters.update(vpn, w, ppn)
        last_vpn[False] = last_r
        last_vpn[True] = last_w
        counts = {
            "requests": len(vpn_list),
            "write_requests": n_write,
            "consecutive_read": n_consec_r,
            "consecutive_write": n_consec_w,
            "consecutive_same_read": n_same_r,
            "consecutive_same_write": n_same_w,
            "filter_hits": n_filter,
            "private_hits": n_priv_hit,
            "private_misses": n_priv_miss,
            "shared_hits": n_shared_hit,
            "shared_misses": n_shared_miss,
            "walks": n_walk,
        }

        if run_weight:
            self.miss_window.record(run_t, run_positive, weight=run_weight)
        stats = self.stats
        for name, value in counts.items():
            if value or name == "requests":
                stats.add(name, value)
        reads = counts["requests"] - counts["write_requests"]
        if reads:
            stats.add("read_requests", reads)
        return np.asarray(ends, dtype=np.float64)

    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Flush all translation state (e.g. on a context switch)."""
        self.private.flush()
        self.shared.flush()
        if self.filters is not None:
            self.filters.flush()
        self._last_vpn = {False: None, True: None}
        self.stats.add("flushes")

    # -- derived metrics ------------------------------------------------ #

    def hit_rate_including_filters(self) -> float:
        """Fraction of requests served without leaving the private level."""
        requests = self.stats.value("requests")
        if not requests:
            return 0.0
        served = self.stats.value("filter_hits") + self.stats.value("private_hits")
        return served / requests

    def private_miss_rate(self) -> float:
        """Private-TLB miss rate over requests that reached the private TLB."""
        looked_up = self.stats.value("private_hits") + self.stats.value("private_misses")
        if not looked_up:
            return 0.0
        return self.stats.value("private_misses") / looked_up

    def consecutive_same_page_fraction(self, is_write: bool) -> float:
        total = self.stats.value("consecutive_write" if is_write else "consecutive_read")
        same = self.stats.value(
            "consecutive_same_write" if is_write else "consecutive_same_read"
        )
        return same / total if total else 0.0

    def reset(self) -> None:
        self.private.flush()
        self.shared.flush()
        if self.filters is not None:
            self.filters.flush()
        self.ptw.reset()
        self.stats.reset()
        self.miss_window.reset()
        self._last_vpn = {False: None, True: None}
