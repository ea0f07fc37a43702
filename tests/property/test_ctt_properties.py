"""Property-based tests for the Copy Tracking Table.

A reference model tracks, per destination cacheline, the byte address of
the source backing each dest byte.  Random sequences of inserts/removes/
frees are applied to both the CTT and the reference; tracked mappings
must agree and the structural invariants must hold after every step,
including the bisect key list mirroring the entries' destinations.
A second property checks the system's CTT-aware backing read, which
overlays only the entries a destination bisect returns, against a
scan of every entry on trimmed and split tables.
"""

from hypothesis import given, settings, strategies as st

from repro import System, SystemConfig
from repro.mcsquare.ctt import CopyTrackingTable

CL = 64
REGION_LINES = 64  # operate on a small region so overlaps are common
REGION = REGION_LINES * CL
DST_BASE = 0x100000
SRC_BASE = 0x200000


class ReferenceModel:
    """Byte-accurate mirror of what the CTT must remember."""

    def __init__(self):
        # dest byte addr -> source byte addr backing it (or absent)
        self.backing = {}

    def insert(self, dst, src, size):
        # Redirection first: a new source byte that is itself a tracked
        # destination resolves to the original source.  A byte that
        # resolves onto *itself* (swap patterns like A<-B then B<-A)
        # needs no tracking: memory already holds the right value.
        resolved = [self.backing.get(src + i, src + i) for i in range(size)]
        for i in range(size):
            if resolved[i] == dst + i:
                self.backing.pop(dst + i, None)
            else:
                self.backing[dst + i] = resolved[i]

    def remove_dest(self, addr, size):
        for i in range(size):
            self.backing.pop(addr + i, None)

    def tracked_dest_lines(self):
        return {a - a % CL for a in self.backing}


def line_aligned(base, max_lines):
    return st.integers(0, max_lines - 1).map(lambda n: base + n * CL)


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["insert", "insert", "insert",
                                     "remove", "free"]))
        if kind == "insert":
            dst = draw(line_aligned(DST_BASE, REGION_LINES - 8))
            # Sources from either the source region or the dest region
            # (to exercise redirection); cacheline-aligned so that one
            # entry can always represent the mapping.
            src_region = draw(st.sampled_from([SRC_BASE, DST_BASE]))
            src = draw(line_aligned(src_region, REGION_LINES - 8))
            size = draw(st.integers(1, 8)) * CL
            ops.append(("insert", dst, src, size))
        elif kind == "remove":
            addr = draw(line_aligned(DST_BASE, REGION_LINES))
            size = draw(st.integers(1, 4)) * CL
            ops.append(("remove", addr, size))
        else:
            addr = draw(line_aligned(DST_BASE, REGION_LINES))
            size = draw(st.integers(1, 16)) * CL
            ops.append(("free", addr, size))
    return ops


@settings(max_examples=150, deadline=None)
@given(operations())
def test_ctt_matches_reference_model(ops):
    ctt = CopyTrackingTable(capacity=4096)
    ref = ReferenceModel()
    for op in ops:
        if op[0] == "insert":
            _, dst, src, size = op
            # Skip inserts whose source overlaps their own destination
            # (illegal for memcpy: buffers must not overlap).
            if src < dst + size and dst < src + size:
                continue
            result = ctt.insert(dst, src, size)
            assert result.ok
            assert not result.eager_lines, \
                "aligned sources must never need eager resolution"
            ref.insert(dst, src, size)
        elif op[0] == "remove":
            _, addr, size = op
            ctt.remove_dest_range(addr, size)
            ref.remove_dest(addr, size)
        else:
            _, addr, size = op
            ctt.free_hint(addr, size)
            ref.remove_dest(addr, size)
        ctt.verify_invariants()
        assert ctt._starts == [e.dst for e in ctt._entries]

    # Every reference mapping must be reproduced by the CTT, byte for byte.
    for dst_byte, src_byte in ref.backing.items():
        line = dst_byte - dst_byte % CL
        entry = ctt.lookup_dest_line(line)
        assert entry is not None, f"CTT lost dest byte {dst_byte:#x}"
        assert entry.src_for_dst(dst_byte) == src_byte
    # And the CTT must not track anything the reference does not.
    for entry in ctt.entries:
        for off in range(0, entry.size, CL):
            assert (entry.dst + off) in ref.backing


def _full_scan_read(system, addr, size):
    """Backing bytes with *every* CTT entry overlaid (the reference)."""
    out = bytearray(system.backing.read(addr, size))
    for entry in system.ctt.entries:
        lo = max(entry.dst, addr)
        hi = min(entry.dst_end, addr + size)
        if lo < hi:
            out[lo - addr:hi - addr] = system.backing.read(
                entry.src_for_dst(lo), hi - lo)
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(operations(), st.lists(st.tuples(st.integers(0, REGION - 1),
                                        st.integers(0, 3 * CL)),
                              min_size=1, max_size=6),
       st.booleans())
def test_mcsquare_read_matches_full_scan(ops, windows, misaligned):
    """The bisect overlay reads what overlaying every entry reads."""
    system = System(SystemConfig())
    ctt = system.ctt
    for base in (DST_BASE, SRC_BASE):
        system.backing.write(base, bytes((base // CL + i * 7) & 0xFF
                                         for i in range(REGION + CL)))
    for op in ops:
        if op[0] == "insert":
            _, dst, src, size = op
            if misaligned:
                src += (dst // CL * 13) % CL
            if src < dst + size and dst < src + size:
                continue
            assert ctt.insert(dst, src, size).ok
        elif op[0] == "remove":
            ctt.remove_dest_range(op[1], op[2])
        else:
            ctt.free_hint(op[1], op[2])
        assert ctt._starts == [e.dst for e in ctt._entries]
        for offset, size in windows:
            addr = DST_BASE + offset
            assert (system._mcsquare_read(addr, size)
                    == _full_scan_read(system, addr, size))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40),
                          st.integers(1, 6)), min_size=1, max_size=30))
def test_misaligned_sources_keep_invariants(triples):
    """Arbitrary (incl. misaligned) sources never break structure."""
    ctt = CopyTrackingTable(capacity=4096)
    for dst_line, src_off, lines in triples:
        dst = DST_BASE + dst_line * CL
        src = SRC_BASE + src_off * CL + (src_off * 13) % CL  # misaligned
        size = lines * CL
        if src < dst + size and dst < src + size:
            continue
        result = ctt.insert(dst, src, size)
        assert result.ok
        ctt.verify_invariants()
        assert ctt._starts == [e.dst for e in ctt._entries]
        for dst_eager, pieces in result.eager_lines:
            assert sum(p[2] for p in pieces) == CL


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=64))
def test_merge_never_loses_bytes(line_indices):
    """Per-line inserts of a contiguous copy always track all bytes."""
    ctt = CopyTrackingTable(capacity=4096)
    inserted = set()
    for idx in line_indices:
        ctt.insert(DST_BASE + idx * CL, SRC_BASE + idx * CL, CL)
        inserted.add(idx)
        ctt.verify_invariants()
    assert ctt.tracked_bytes() == len(inserted) * CL
    for idx in inserted:
        entry = ctt.lookup_dest_line(DST_BASE + idx * CL)
        assert entry is not None
        assert entry.src_for_dst(DST_BASE + idx * CL) == SRC_BASE + idx * CL


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 16), st.integers(0, 15))
def test_pop_smallest_is_minimal(n_entries, seed):
    ctt = CopyTrackingTable(capacity=4096)
    sizes = [((seed + i) % 7 + 1) * CL for i in range(n_entries)]
    for i, size in enumerate(sizes):
        ctt.insert(DST_BASE + i * 8 * CL, SRC_BASE + i * 8 * CL, size)
    entry = ctt.pop_smallest()
    assert entry.size == min(sizes)
    assert not entry.active
