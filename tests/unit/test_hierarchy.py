"""Unit tests for the cache hierarchy (timing + functional data)."""

import pytest

from repro import System, small_system
from repro.common import params
from repro.isa import ops

CL = 64


def build(**kw):
    return System(small_system(**kw))


class TestLoadPath:
    def test_first_load_misses_second_hits(self):
        system = build()
        addr = system.alloc(4096)
        times = []

        def prog():
            yield ops.load(addr, 8, blocking=True,
                           on_retire=lambda op, t: times.append(t))
            yield ops.load(addr, 8, blocking=True,
                           on_retire=lambda op, t: times.append(t))

        system.run_program(prog())
        l1 = system.stats.children["caches"].children["l1_0"].counters
        assert l1["misses"].value >= 1
        assert l1["hits"].value >= 1
        # Second access (L1 hit) is far faster than the first.
        assert times[1] - times[0] < 50

    def test_l2_hit_path(self):
        system = build()
        addr = system.alloc(4096)

        def prog_a():
            yield ops.load(addr, 8)

        system.run_program(prog_a())
        # Evict from L1 only: invalidate L1 copy, keep L2.
        system.hierarchy.l1s[0].invalidate(addr)

        def prog_b():
            yield ops.load(addr, 8)

        system.run_program(prog_b())
        l2 = system.stats.children["caches"].children["l2"].counters
        assert l2["hits"].value >= 1

    def test_load_value_correct_through_hierarchy(self):
        system = build()
        addr = system.alloc(4096)
        system.backing.write(addr, b"\x12\x34\x56\x78" * 2)
        got = {}

        def prog():
            got["v"] = (yield ops.load(addr, 8, blocking=True))

        system.run_program(prog())
        assert got["v"] == b"\x12\x34\x56\x78" * 2


class TestCoherence:
    def test_peer_core_sees_dirty_data(self):
        system = build()
        addr = system.alloc(4096)
        got = {}

        def writer():
            yield ops.store(addr, 8, data=b"WRITTEN!")
            yield ops.mfence()

        def reader():
            got["v"] = (yield ops.load(addr, 8, blocking=True))

        system.run_program(writer(), core=0)
        system.run_program(reader(), core=1)
        assert got["v"] == b"WRITTEN!"

    def test_store_invalidates_peer_copy(self):
        system = build()
        addr = system.alloc(4096)

        def reader():
            yield ops.load(addr, 8)

        system.run_program(reader(), core=1)
        assert system.hierarchy.l1s[1].probe(addr)

        def writer():
            yield ops.store(addr, 8, data=b"AAAAAAAA")

        system.run_program(writer(), core=0)
        assert not system.hierarchy.l1s[1].probe(addr)


class TestWritebackPath:
    def test_dirty_eviction_reaches_memory(self):
        system = build()
        # Write many lines mapping to the same L1 set to force eviction
        # all the way through L2.
        base = system.alloc(1 << 21, align=1 << 21)

        def prog():
            for i in range(600):
                yield ops.store(base + i * 4096, 8, data=b"\xEE" * 8)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        for mc in system.controllers:
            mc.drain_wpq_fully()
        # At least some of the early stores must have reached backing.
        hit = any(system.backing.read(base + i * 4096, 8) == b"\xEE" * 8
                  for i in range(10))
        assert hit

    def test_flush_all_writes_back_everything(self):
        system = build()
        addr = system.alloc(4096)

        def prog():
            yield ops.store(addr, 8, data=b"FLUSHME!")

        system.run_program(prog())
        system.hierarchy.flush_all()
        system.drain()
        assert system.backing.read(addr, 8) == b"FLUSHME!"


class TestClwb:
    def test_clwb_writes_back_and_keeps_line(self):
        system = build()
        addr = system.alloc(4096)

        def prog():
            yield ops.store(addr, 8, data=b"CLWBDATA")
            yield ops.clwb(addr)
            yield ops.mfence()

        system.run_program(prog())
        assert system.backing.read(addr, 8) == b"CLWBDATA"
        line = system.hierarchy.l1s[0].lookup(addr, 0, touch=False)
        assert line is not None and not line.dirty

    def test_clwb_parallelism_limit_serializes_long_trains(self):
        def run(n_lines):
            system = build()
            base = system.alloc(n_lines * CL, align=4096)

            def prog():
                for i in range(n_lines):
                    yield ops.clwb(base + i * CL)
                yield ops.mfence()

            return system.run_program(prog())

        short = run(4)
        long = run(64)
        # 16x the lines should cost clearly more than 3x once the LFB
        # pool saturates (drain-rate bound, not issue bound).
        assert long > short * 3


class TestMclazyAtCaches:
    def test_dest_lines_invalidated(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield ops.load(dst, 8)   # cache a dest line
            yield ops.mclazy(dst, src, 4096)
            yield ops.mfence()

        system.run_program(prog())
        assert not system.hierarchy.l1s[0].probe(dst)

    def test_dirty_source_written_back_before_insert(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield ops.store(src, 8, data=b"NEWSRC!!")
            # No CLWB: the MCLAZY packet itself must flush the line.
            yield ops.mclazy(dst, src, 4096)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert system.read_memory(dst, 8) == b"NEWSRC!!"


class TestBulkCopy:
    def test_bulk_copy_moves_data(self):
        system = build()
        src = system.alloc(8192, align=4096)
        dst = system.alloc(8192, align=4096)
        system.backing.fill(src, 8192, 0x3A)

        def prog():
            yield ops.bulk_copy(dst, src, 8192)

        system.run_program(prog())
        assert system.read_memory(dst, 8192) == b"\x3A" * 8192

    def test_bulk_copy_includes_cached_dirty_source(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield ops.store(src, 8, data=b"DIRTYSRC")
            yield ops.bulk_copy(dst, src, 4096)

        system.run_program(prog())
        assert system.read_memory(dst, 8) == b"DIRTYSRC"

    def test_bulk_copy_invalidates_stale_dest_cache(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        system.backing.fill(src, 4096, 0x99)
        got = {}

        def prog():
            yield ops.load(dst, 8)  # cache stale zeros
            yield ops.bulk_copy(dst, src, 4096)
            got["v"] = (yield ops.load(dst, 8, blocking=True))

        system.run_program(prog())
        assert got["v"] == b"\x99" * 8


class TestCleanRefreshesOlderCopies:
    """Every caller of the clean scan: a dirty L1 line over an older L2
    copy is cleaned, the (now clean) L1 line is evicted silently, and a
    load must still see the fresh bytes, not the L2's stale ones."""

    OLD = b"\x11" * CL
    MID = b"\x22" * CL
    NEW = b"\x33" * CL

    def _dirty_l1_over_stale_l2(self, system, addr, l2_dirty, holder=0):
        h = system.hierarchy
        system.backing.write(addr, self.OLD)
        h.l2.fill(addr, self.MID if l2_dirty else self.OLD, now=0,
                  dirty=l2_dirty)
        h.l1s[holder].fill(addr, self.NEW, now=0, dirty=True)

    def _evict_and_load(self, system, addr, holder=0):
        h = system.hierarchy
        line = h.l1s[holder].invalidate(addr)
        assert line is not None and not line.dirty  # a silent eviction
        got = {}
        h.load(0, addr, 8, lambda data, t: got.setdefault("v", data))
        system.drain()
        return got["v"]

    def _clean_with(self, caller, system, addr):
        h = system.hierarchy
        done = []
        other = addr + 16 * 1024  # row-aligned, channel-congruent dst
        if caller == "clwb":
            h.clwb(0, addr, done.append)
        elif caller == "clwb_range":
            h.clwb_range(0, addr, CL, done.append)
        elif caller == "handle_mclazy":
            h.handle_mclazy(0, other, addr, CL, done.append)
        elif caller == "handle_inmem_copy":
            h.handle_inmem_copy(0, other, addr, CL, "rowclone", done.append)
        else:
            h.bulk_copy(0, other, addr, CL, done.append)
        system.drain()
        assert done
        return other

    @pytest.mark.parametrize("l2_dirty", [False, True])
    @pytest.mark.parametrize("caller", ["clwb", "clwb_range",
                                        "handle_mclazy",
                                        "handle_inmem_copy", "bulk_copy"])
    def test_load_after_clean_and_evict_sees_fresh_data(self, caller,
                                                        l2_dirty):
        kw = {}
        if caller != "handle_mclazy":
            kw = dict(mcsquare_enabled=False, inmem_layout="ideal")
        system = build(**kw)
        addr = system.alloc(64 * 1024, align=16 * 1024)
        self._dirty_l1_over_stale_l2(system, addr, l2_dirty)
        other = self._clean_with(caller, system, addr)
        assert system.backing.read(addr, CL) == self.NEW
        assert self._evict_and_load(system, addr) == self.NEW[:8]
        if caller in ("handle_mclazy", "handle_inmem_copy", "bulk_copy"):
            assert system.read_memory(other, CL) == self.NEW

    def test_clwb_from_peer_core_writes_the_owner_copy(self):
        # The dirty line sits in core 1's L1 over an older dirty L2
        # copy; core 0's CLWB must write core 1's bytes, not the L2's.
        system = build()
        addr = system.alloc(4096)
        self._dirty_l1_over_stale_l2(system, addr, True, holder=1)
        self._clean_with("clwb", system, addr)
        assert system.backing.read(addr, CL) == self.NEW
        assert self._evict_and_load(system, addr, holder=1) == self.NEW[:8]
