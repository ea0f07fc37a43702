"""Property test: the line-indexed store buffer answers like a full scan.

Each core keeps its not-yet-drained stores both in program order and
indexed by cacheline.  Two cores run random store/load/MCLAZY programs
over one small shared region, with stores that straddle lines; a probe
event fires every few cycles while they run and checks, against a
brute-force scan of each core's pending list:

* the line index itself (every line lists exactly its stores, oldest
  first);
* store-to-load forwarding, including zero-size loads;
* the two overlap checks, including 4 KB MCLAZY and 2 MB huge-page
  ranges that span more lines than there are pending stores;
* the ``read_memory`` overlay, applied per core in core order.
"""

from hypothesis import given, settings, strategies as st

from repro import System, small_system
from repro.common.units import CACHELINE_SIZE, KB, MB
from repro.isa import ops

CL = CACHELINE_SIZE
REGION = 16 * CL
NUM_CORES = 2


# ---------------------------------------------------------- brute force
def scan_forward(pending, addr, size):
    for s_addr, s_size, s_data in reversed(pending):
        if s_addr <= addr and addr + size <= s_addr + s_size:
            offset = addr - s_addr
            return bytes(s_data[offset:offset + size])
    return None


def scan_overlap(pending, addr, size):
    end = addr + size
    return any(s_addr < end and addr < s_addr + s_size
               for s_addr, s_size, _ in pending)


def scan_older_overlaps(pending, entry):
    addr, size, _ = entry
    end = addr + size
    for other in pending:
        if other is entry:
            return False
        if other[0] < end and addr < other[0] + other[1]:
            return True
    return False


def scan_overlay(pending, addr, size, out):
    for s_addr, s_size, s_data in pending:
        lo = max(s_addr, addr)
        hi = min(s_addr + s_size, addr + size)
        if lo < hi:
            out[lo - addr:hi - addr] = s_data[lo - s_addr:hi - s_addr]


def rebuilt_index(pending):
    index = {}
    for entry in pending:
        addr, size, _ = entry
        first = addr // CL
        last = (addr + size - 1) // CL if size > 0 else first
        for line in range(first, last + 1):
            index.setdefault(line, []).append(entry)
    return index


# ------------------------------------------------------------- programs
@st.composite
def core_program(draw):
    steps = []
    for _ in range(draw(st.integers(4, 24))):
        kind = draw(st.sampled_from(
            ("store", "store", "store", "load", "mclazy")))
        if kind == "store":
            size = draw(st.sampled_from((1, 8, 8, 24, 64, 100, 130)))
            steps.append(("store", draw(st.integers(0, REGION - size)),
                          size))
        elif kind == "load":
            steps.append(("load", draw(st.integers(0, REGION - 8)),
                          draw(st.sampled_from((1, 8, 16)))))
        else:
            steps.append(("mclazy",))
    return steps


@st.composite
def query(draw):
    """A (region offset, size) probe, small or MCLAZY/huge-page sized."""
    size = draw(st.one_of(st.integers(0, 3 * CL),
                          st.sampled_from((4 * KB, 2 * MB))))
    return draw(st.integers(-CL, REGION)), size


def run_program(system, base, lazy_dst, lazy_src, steps, core_id):
    for i, step in enumerate(steps):
        if step[0] == "store":
            _, off, size = step
            data = bytes((core_id * 97 + i * 31 + k) & 0xFF
                         for k in range(size))
            yield ops.store(base + off, size, data=data)
        elif step[0] == "load":
            yield ops.load(base + step[1], step[2])
        else:
            yield ops.mclazy(lazy_dst, lazy_src, 4 * KB)


def check_core(core, queries):
    pending = core._pending_stores
    assert core._store_lines == rebuilt_index(pending)
    for entry in pending:
        assert core._older_store_overlaps(entry) == \
            scan_older_overlaps(pending, entry)
    for addr, size in queries:
        assert core._forward_from_store_buffer(addr, size) == \
            scan_forward(pending, addr, size)
        assert core._pending_store_overlap(addr, size) == \
            scan_overlap(pending, addr, size)


@settings(max_examples=40, deadline=None)
@given(st.lists(core_program(), min_size=NUM_CORES, max_size=NUM_CORES),
       st.lists(query(), min_size=1, max_size=8),
       st.integers(1, 6))
def test_store_index_matches_full_scan(programs, offsets, period):
    system = System(small_system(num_cpus=NUM_CORES))
    base = system.alloc(REGION)
    lazy_src = system.alloc(4 * KB, align=4 * KB)
    lazy_dsts = [system.alloc(4 * KB, align=4 * KB)
                 for _ in range(NUM_CORES)]
    queries = [(base + off, size) for off, size in offsets]
    sim = system.sim
    checks = []

    def probe():
        for core in system.cores:
            check_core(core, queries)
        for addr, size in queries:
            if size > 4 * KB:
                continue  # the overlay rebuilds the bytes; keep it small
            expected = bytearray(size)
            actual = bytearray(size)
            for core in system.cores:
                scan_overlay(core._pending_stores, addr, size, expected)
                core.overlay_pending_stores(addr, size, actual)
            assert actual == expected
        checks.append(sim.now)
        if sim.pending:
            sim.schedule(period, probe, label="sb-probe")

    sim.schedule(0, probe, label="sb-probe")
    system.run_programs({
        c: run_program(system, base, lazy_dsts[c], lazy_src, programs[c], c)
        for c in range(NUM_CORES)})
    system.drain()
    assert checks
    for core in system.cores:
        assert core._pending_stores == [] and core._store_lines == {}


def test_probe_sees_pending_stores():
    """The property above is not vacuous: stores do sit in the buffer."""
    system = System(small_system(num_cpus=1))
    base = system.alloc(REGION)
    seen = []

    def probe():
        seen.append(len(system.cores[0]._pending_stores))
        if system.sim.pending:
            system.sim.schedule(1, probe)

    system.sim.schedule(0, probe)
    system.run_program(ops.store(base + i * 24, 100) for i in range(12))
    assert max(seen) >= 4


def test_zero_size_forward_from_store_ending_at_line_boundary():
    """A store ending at a line boundary covers the empty load there."""
    system = System(small_system(num_cpus=1))
    base = system.alloc(REGION)
    core = system.cores[0]
    seen = []

    def probe():
        pending = core._pending_stores
        if pending:
            for addr in (base + CL, base + 2 * CL):
                assert core._forward_from_store_buffer(addr, 0) == \
                    scan_forward(pending, addr, 0)
            seen.append(core._forward_from_store_buffer(base + CL, 0))
        if system.sim.pending:
            system.sim.schedule(1, probe)

    system.sim.schedule(0, probe)
    system.run_program(ops.store(base + off, 32) for off in (32, 96))
    assert b"" in seen
