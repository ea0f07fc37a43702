"""Unit tests for the software copy backends' user and kernel variants.

``mclazy`` with ``min_lazy`` / ``page_size`` / ``clwb_sources`` and
``eager`` with ``bulk_copy`` (the native kernel's line-granular copy),
built through the :mod:`repro.copyengine` registry.
"""

import pytest

from repro import System, small_system
from repro.common.units import HUGE_PAGE_SIZE, KB, PAGE_SIZE
from repro.copyengine import make_backend
from repro.isa.ops import OpKind
from repro.workloads.common import fill_pattern


def build():
    return System(small_system())


def pattern(n):
    return bytes((i * 23 + 11) & 0xFF for i in range(n))


class TestLazyEngine:
    def test_min_lazy_threshold(self):
        system = build()
        engine = make_backend("mclazy", system, min_lazy=1 * KB)
        src = system.alloc(8 * KB, align=PAGE_SIZE)
        dst = system.alloc(8 * KB, align=PAGE_SIZE)
        small = list(engine.copy_ops(dst, src, 512))
        large = list(engine.copy_ops(dst, src, 2 * KB))
        assert not any(o.kind is OpKind.MCLAZY for o in small)
        assert any(o.kind is OpKind.MCLAZY for o in large)

    def test_free_ops_yield_mcfree(self):
        system = build()
        engine = make_backend("mclazy", system)
        assert [o.kind for o in engine.free_ops(0x4000, 4096)] == \
            [OpKind.MCFREE]

    def test_kernel_page_size_single_mclazy_for_huge_page(self):
        system = System(small_system(dram_size=64 * 1024 * 1024))
        engine = make_backend("mclazy", system, page_size=HUGE_PAGE_SIZE,
                              clwb_sources=False)
        src = system.alloc(HUGE_PAGE_SIZE, align=HUGE_PAGE_SIZE)
        dst = system.alloc(HUGE_PAGE_SIZE, align=HUGE_PAGE_SIZE)
        mclazys = [o for o in engine.copy_ops(dst, src, HUGE_PAGE_SIZE)
                   if o.kind is OpKind.MCLAZY]
        assert len(mclazys) == 1
        assert mclazys[0].size == HUGE_PAGE_SIZE

    def test_kernel_paged_copy_data_exact(self):
        system = build()
        engine = make_backend("mclazy", system, page_size=PAGE_SIZE,
                              clwb_sources=False)
        src = system.alloc(8 * KB, align=PAGE_SIZE)
        dst = system.alloc(8 * KB, align=PAGE_SIZE)
        data = pattern(8 * KB)
        system.backing.write(src, data)
        system.run_program(engine.copy_ops(dst, src, 8 * KB))
        system.drain()
        assert system.read_memory(dst, 8 * KB) == data


class TestKernelEagerEngine:
    def test_line_aligned_uses_bulk_copy(self):
        system = build()
        engine = make_backend("eager", system, bulk_copy=True)
        src = system.alloc(4 * KB, align=PAGE_SIZE)
        dst = system.alloc(4 * KB, align=PAGE_SIZE)
        kinds = [o.kind for o in engine.copy_ops(dst, src, 4 * KB)]
        assert OpKind.BULK_COPY in kinds
        assert OpKind.LOAD not in kinds

    def test_relative_misalignment_falls_back_to_chunks(self):
        system = build()
        engine = make_backend("eager", system, bulk_copy=True)
        src = system.alloc(4 * KB, align=PAGE_SIZE) + 8
        dst = system.alloc(4 * KB, align=PAGE_SIZE)
        kinds = [o.kind for o in engine.copy_ops(dst, src, 1 * KB)]
        assert OpKind.BULK_COPY not in kinds
        assert OpKind.LOAD in kinds

    def test_sub_line_tail_copied(self):
        system = build()
        engine = make_backend("eager", system, bulk_copy=True)
        src = system.alloc(4 * KB, align=PAGE_SIZE)
        dst = system.alloc(4 * KB, align=PAGE_SIZE)
        data = pattern(200)
        system.backing.write(src, data)
        system.run_program(engine.copy_ops(dst, src, 200))
        system.drain()
        system.hierarchy.flush_all()
        system.drain()
        assert system.read_memory(dst, 200) == data


class TestEngineAccessPassthrough:
    def test_reads_and_writes_are_plain_ops(self):
        system = build()
        engine = make_backend("eager", system)
        reads = list(engine.read_ops(0x4000, 8))
        writes = list(engine.write_ops(0x4000, 8, data=b"x" * 8))
        nt = list(engine.write_ops(0x4000, 64, nontemporal=True))
        assert [o.kind for o in reads] == [OpKind.LOAD]
        assert [o.kind for o in writes] == [OpKind.STORE]
        assert [o.kind for o in nt] == [OpKind.NT_STORE]
