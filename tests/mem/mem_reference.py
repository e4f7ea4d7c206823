"""Per-element reference of the memory pass, the oracle of the ``tests/mem`` suite.

:class:`ReferenceMemory` moves one access at a time through an FCFS bus, a
tag-keyed LRU L2 and an open-row DRAM channel, and makes every booking
with its own ``Timeline.book`` call.  It keeps the counters the way
:meth:`repro.mem.hierarchy.MemorySystem.access` adds them: one add per name
per call, the conditional ones only when nonzero.  :func:`translate_one`
reads which translation level served a request.
"""

from collections import OrderedDict

from repro.sim.timeline import Timeline


#: translation counter -> the level it counts (each request adds to one)
LEVEL_COUNTERS = {
    "filter_hits": "filter",
    "private_hits": "private",
    "shared_hits": "shared",
    "walks": "walk",
}


def translate_one(xlat, start, vpn, is_write):
    """One request as a one-request ``translate_chain``: ``(end, level)``.

    The chain returns no levels; the level is the one counter of
    :data:`LEVEL_COUNTERS` the request added to.
    """
    before = {name: xlat.stats.value(name) for name in LEVEL_COUNTERS}
    __, (end,), __ppns = xlat.translate_chain([start], [vpn], is_write)
    (level,) = [
        level for name, level in LEVEL_COUNTERS.items()
        if xlat.stats.value(name) != before[name]
    ]
    return end, level


class Counters:
    """A counter snapshot built by per-call adds."""

    def __init__(self):
        self.values = {}

    def add(self, name, value, always=False):
        if value or always:
            self.values[name] = self.values.get(name, 0) + value


class ReferenceBus:
    """One ``1 + n / beat_bytes`` booking per transaction, FCFS."""

    def __init__(self, beat_bytes):
        self.beat_bytes = float(beat_bytes)
        self.timeline = Timeline("bus")
        self.bytes_moved = 0
        self.counters = Counters()

    def transfer(self, t, nbytes):
        self.bytes_moved += nbytes
        return self.timeline.book(t, 1.0 + nbytes / self.beat_bytes)[1]


class ReferenceDRAM:
    """One request at a time against its bank's open row.

    A row miss books the activate at the issue time, then every request
    books its data at ``issue + latency``.
    """

    def __init__(self, config):
        self.config = config
        self.timeline = Timeline("dram")
        self.open_rows = {}
        self.bytes_moved = 0
        self.counters = Counters()
        self.tally = {"row_hits": 0, "row_misses": 0, "writes": 0, "reads": 0, "bytes": 0}

    def request(self, t, addr, nbytes, is_write):
        cfg = self.config
        row = addr // cfg.row_buffer_bytes
        bank = row % cfg.num_banks
        if self.open_rows.get(bank) == row:
            self.tally["row_hits"] += 1
            latency = cfg.row_hit_latency
        else:
            self.tally["row_misses"] += 1
            self.open_rows[bank] = row
            if cfg.activate_occupancy:
                self.timeline.book(t, cfg.activate_occupancy)
            latency = cfg.access_latency
        self.tally["writes" if is_write else "reads"] += 1
        self.tally["bytes"] += nbytes
        self.bytes_moved += nbytes
        return self.timeline.book(t + latency, nbytes / cfg.bytes_per_cycle)[1]

    def end_call(self):
        for name, value in self.tally.items():
            self.counters.add(name, value)
            self.tally[name] = 0


class ReferenceL2:
    """The L2 as one scalar loop per line.

    Each set is an ``OrderedDict`` from tag to dirty flag (LRU first); a
    line's set is ``index % num_sets`` and its tag ``index // num_sets``.
    """

    def __init__(self, config):
        self.config = config
        self.sets = [OrderedDict() for __ in range(config.num_sets)]
        self.port = Timeline("L2.port")
        self.port_bytes = 0
        self.counters = Counters()

    def lower_requests(self, addr, nbytes, is_write):
        """Walk one access's lines; returns its lower-level requests
        ``(addr, is_write)`` in issue order and its hits and misses."""
        cfg = self.config
        line, num_sets = cfg.line_bytes, cfg.num_sets
        requests, hits, misses = [], 0, 0
        for index in range(addr // line, (addr + nbytes - 1) // line + 1):
            set_index, tag = index % num_sets, index // num_sets
            ways = self.sets[set_index]
            if tag in ways:
                hits += 1
                ways.move_to_end(tag)
                if is_write:
                    ways[tag] = True
                continue
            misses += 1
            if len(ways) >= cfg.ways:
                victim_tag, victim_dirty = ways.popitem(last=False)
                self.counters.add("evictions", 1)
                if victim_dirty and cfg.writeback:
                    self.counters.add("writebacks", 1)
                    requests.append(((victim_tag * num_sets + set_index) * line, True))
            requests.append((index * line, False))
            ways[tag] = is_write
        return requests, hits, misses

    def probe(self, addr):
        index = addr // self.config.line_bytes
        return index // self.config.num_sets in self.sets[index % self.config.num_sets]

    def resident_lines(self):
        return sum(len(ways) for ways in self.sets)

    def lru_order(self):
        """Each set's ``(line index, dirty)`` pairs, least recently used first."""
        num_sets = self.config.num_sets
        return [
            [(tag * num_sets + set_index, dirty) for tag, dirty in ways.items()]
            for set_index, ways in enumerate(self.sets)
        ]


class ReferenceMemory:
    """Bus -> L2 (or none) -> DRAM, one access and one booking at a time."""

    def __init__(self, config):
        self.bus = ReferenceBus(config.bus_beat_bytes)
        self.l2 = ReferenceL2(config.l2) if config.l2 is not None else None
        self.dram = ReferenceDRAM(config.dram)

    def access(self, now, addr, nbytes, is_write, requester=""):
        """One call of the pass over parallel lists; returns the end times."""
        l2 = self.l2
        ends = []
        hits = misses = 0
        for t, a, nb, w in zip(now, addr, nbytes, is_write):
            t = self.bus.transfer(t, nb)
            if l2 is None:
                ends.append(self.dram.request(t, a, nb, w))
                continue
            cfg = l2.config
            port_end = l2.port.book(t + cfg.hit_latency, nb / cfg.bytes_per_cycle)[1]
            l2.port_bytes += nb
            requests, access_hits, access_misses = l2.lower_requests(a, nb, w)
            hits += access_hits
            misses += access_misses
            end = t
            for low_addr, low_write in requests:
                end = max(end, self.dram.request(t, low_addr, cfg.line_bytes, low_write))
            ends.append(max(port_end, end))
        total, writes = sum(nbytes), sum(is_write)
        counters = self.bus.counters
        counters.add("transactions", len(now), always=True)
        counters.add("bytes", total, always=True)
        if requester:
            counters.add(f"bytes_{requester}", total, always=True)
        if l2 is not None:
            counters = l2.counters
            counters.add("hits", hits, always=True)
            counters.add("misses", misses, always=True)
            counters.add("accesses", hits + misses, always=True)
            counters.add("writes", writes)
            counters.add("reads", len(now) - writes)
            if requester:
                counters.add(f"hits_{requester}", hits, always=True)
                counters.add(f"misses_{requester}", misses, always=True)
        self.dram.end_call()
        return ends


def timeline_state(timeline):
    return (timeline.next_free, timeline.busy_time, timeline.bookings)


def assert_matches(mem, reference, label=""):
    """Every timeline, byte count, counter and open row of ``mem`` equals
    the reference's, compared with ``==``."""
    assert timeline_state(mem.bus.channel) == timeline_state(reference.bus.timeline), label
    assert mem.bus.stats.value("bytes") == reference.bus.bytes_moved, label
    assert mem.bus.stats.snapshot() == reference.bus.counters.values, label
    assert timeline_state(mem.dram.channel) == timeline_state(reference.dram.timeline), label
    assert mem.dram.bytes_moved == reference.dram.bytes_moved, label
    assert mem.dram.stats.snapshot() == reference.dram.counters.values, label
    assert mem.dram._open_rows == reference.dram.open_rows, label
    assert (mem.l2 is None) == (reference.l2 is None), label
    if mem.l2 is not None:
        port = mem.l2.port
        assert timeline_state(port) == timeline_state(reference.l2.port), label
        # Every L2 access comes through the bus first, so the bytes through
        # the port are the bus's byte count.
        assert mem.bus.stats.value("bytes") == reference.l2.port_bytes, label
        assert mem.l2.stats.snapshot() == reference.l2.counters.values, label
        assert mem.l2.resident_lines() == reference.l2.resident_lines(), label
        assert [list(ways.items()) for ways in mem.l2._sets] == reference.l2.lru_order(), label
