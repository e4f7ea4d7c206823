"""Host-speed normalisation of CPU time.

On a shared two-vCPU host the same deterministic work takes anywhere from
1x to 2x the CPU time, depending on what else runs on the physical core
(measured: 1.63 s to 2.88 s of CPU for one identical squeezenet tune).  CPU
time removes waiting, not a slower core.  So while a repetition runs, a
SIGPROF timer interrupts it every ``INTERVAL_S`` of process CPU time and
runs a fixed reference kernel -- a miniature of the simulator's hot path
(LRU cache sets, open-row DRAM, FCFS timelines), owned by the benchmark so
that no change to the simulator can make it faster.  The kernel's mean CPU
time per sample measures how fast the host ran simulator-like code during
exactly the measured interval, and :meth:`SpeedSampler.normalise` rescales
the interval's CPU time to the speed of an unloaded host.

Over 25 tune and 33 DSE repetitions the per-repetition coefficient of
variation fell from 0.20 raw to 0.06-0.07 scaled.  The kernel shares the
caches with the workload, so a change that shrinks the workload's
footprint also speeds the kernel slightly and is under-reported by that
share.
"""

from __future__ import annotations

import random
import signal
import time
from collections import OrderedDict

#: process CPU time between two samples
INTERVAL_S = 0.01
#: seconds of one kernel sample on an unloaded host: the lowest decile of
#: 20,000 samples in a tight loop on a 2-vCPU Intel Xeon VM at 2.1 GHz
#: (the median there was 374 us: the host alternates between speeds)
REFERENCE_SAMPLE_S = 2.0e-4

_ACCESSES = 200
_STREAM = 1 << 13


class _Timeline:
    __slots__ = ("next_free",)

    def __init__(self) -> None:
        self.next_free = 0.0

    def book(self, earliest: float, duration: float) -> float:
        start = self.next_free if self.next_free > earliest else earliest
        self.next_free = start + duration
        return self.next_free


class _MiniCache:
    """A 1 MiB 8-way LRU cache over an open-row DRAM, FCFS-timed."""

    def __init__(self, sets: int = 2048, ways: int = 8) -> None:
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways
        self.port = _Timeline()
        self.dram = _Timeline()
        self.open_rows: dict[int, int] = {}

    def access(self, now: float, addr: int) -> float:
        line = addr >> 6
        ways = self.sets[line % len(self.sets)]
        tag = line // len(self.sets)
        end = now
        if tag in ways:
            ways.move_to_end(tag)
        else:
            if len(ways) >= self.ways:
                ways.popitem(last=False)
            ways[tag] = False
            bank, row = line % 8, line >> 5
            latency = 20.0 if self.open_rows.get(bank) == row else 60.0
            self.open_rows[bank] = row
            end = self.dram.book(now + latency, 4.0)
        return max(end, self.port.book(now + 20.0, 1.0))


class SpeedSampler:
    """Samples the reference kernel on a CPU-time timer (one per process)."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._cache = _MiniCache()
        # half random lines over 4 MiB, half a sequential stream
        self._addrs = [
            rng.randrange(1 << 22) if rng.random() < 0.5 else (i * 64) % (1 << 22)
            for i in range(_STREAM)
        ]
        self._pos = 0
        self.samples = 0
        self.sample_s = 0.0
        for _ in range(_STREAM // _ACCESSES):  # warm: fill the sets
            self.kernel()

    def kernel(self) -> float:
        """One fixed slice of cache accesses."""
        start = self._pos
        self._pos = (start + _ACCESSES) % (_STREAM - _ACCESSES)
        access = self._cache.access
        t = 0.0
        for addr in self._addrs[start:start + _ACCESSES]:
            t = access(t, addr)
        return t

    def _on_timer(self, signum, frame) -> None:
        # Process CPU time does not advance inside a SIGPROF handler on a
        # Linux 6.x KVM guest; a sample is short enough that its wall time
        # is its CPU time.
        t0 = time.perf_counter()
        self.kernel()
        self.sample_s += time.perf_counter() - t0
        self.samples += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # a signal already pending would terminate the process under SIG_DFL
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def mark(self) -> tuple[float, int, float]:
        """(process CPU time, samples so far, their seconds)."""
        return time.process_time(), self.samples, self.sample_s

    @staticmethod
    def slowdown(begin: tuple[float, int, float], end: tuple[float, int, float]) -> float:
        """How much slower than the reference host the samples between two
        marks ran (1.0 if no sample was taken)."""
        samples = end[1] - begin[1]
        if not samples:
            return 1.0
        return (end[2] - begin[2]) / samples / REFERENCE_SAMPLE_S

    @staticmethod
    def normalise(begin: tuple[float, int, float], end: tuple[float, int, float]) -> float:
        """CPU seconds between two marks, less the samples' own cost, at
        the reference host's speed (raw seconds if no sample was taken)."""
        cpu = end[0] - begin[0] - (end[2] - begin[2])
        return cpu / SpeedSampler.slowdown(begin, end)
