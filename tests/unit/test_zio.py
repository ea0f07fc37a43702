"""Unit tests for the zIO comparator backend."""

import pytest

from repro import System, small_system
from repro.common import params
from repro.common.units import PAGE_SIZE
from repro.copyengine import make_backend
from repro.isa.ops import OpKind


def build():
    system = System(small_system(mcsquare_enabled=False))
    return system, make_backend("zio", system)


def pattern(n):
    return bytes((i * 31 + 7) & 0xFF for i in range(n))


class TestElisionPolicy:
    def test_subpage_copy_not_elided(self):
        system, zio = build()
        src = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        system.run_program(zio.copy_ops(dst, src, 2048))
        assert zio.elisions == 0
        assert zio.fallback_copies == 1

    def test_page_copy_elided(self):
        system, zio = build()
        src = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        system.run_program(zio.copy_ops(dst, src, PAGE_SIZE))
        assert zio.elisions == 1
        assert zio.is_elided(dst)

    def test_unaligned_region_with_no_full_page_falls_back(self):
        system, zio = build()
        src = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE) + 100
        dst = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE) + 100
        system.run_program(zio.copy_ops(dst, src, PAGE_SIZE))
        # Destination covers no complete page: cannot remap.
        assert zio.elisions == 0

    def test_fringes_copied_eagerly(self):
        system, zio = build()
        src = system.alloc(3 * PAGE_SIZE, align=PAGE_SIZE) + 512
        dst = system.alloc(3 * PAGE_SIZE, align=PAGE_SIZE) + 512
        size = 2 * PAGE_SIZE
        data = pattern(size)
        system.backing.write(src, data)
        system.run_program(zio.copy_ops(dst, src, size))
        system.drain()
        # Head fringe (before the first whole page) must be real data.
        head = PAGE_SIZE - 512
        assert system.read_memory(dst, head) == data[:head]


class TestCopyOnAccess:
    def test_read_faults_once_and_returns_data(self):
        system, zio = build()
        src = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        data = pattern(PAGE_SIZE)
        system.backing.write(src, data)
        got = {}

        def prog():
            yield from zio.copy_ops(dst, src, PAGE_SIZE)
            got["a"] = (yield from _read(zio, dst + 100, 8))
            got["b"] = (yield from _read(zio, dst + 200, 8))

        system.run_program(prog())
        system.drain()
        assert got["a"] == data[100:108]
        assert got["b"] == data[200:208]
        assert zio.faults == 1  # same page faults only once

    def test_each_page_faults_separately(self):
        system, zio = build()
        size = 4 * PAGE_SIZE
        src = system.alloc(size + PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(size + PAGE_SIZE, align=PAGE_SIZE)

        def prog():
            yield from zio.copy_ops(dst, src, size)
            for page in range(4):
                yield from _read(zio, dst + page * PAGE_SIZE, 8)

        system.run_program(prog())
        assert zio.faults == 4

    def test_write_also_faults(self):
        system, zio = build()
        src = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        data = pattern(PAGE_SIZE)
        system.backing.write(src, data)

        def prog():
            yield from zio.copy_ops(dst, src, PAGE_SIZE)
            yield from zio.write_ops(dst + 8, 8, data=b"NEWBYTES")

        system.run_program(prog())
        system.drain()
        system.hierarchy.flush_all()
        system.drain()
        # Fault copied the page, then the store modified 8 bytes.
        assert system.read_memory(dst, 8) == data[:8]
        assert system.read_memory(dst + 8, 8) == b"NEWBYTES"
        assert zio.faults == 1

    def test_free_drops_elision(self):
        system, zio = build()
        src = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)

        def prog():
            yield from zio.copy_ops(dst, src, PAGE_SIZE)
            yield from zio.free_ops(dst, PAGE_SIZE)

        system.run_program(prog())
        assert not zio.is_elided(dst)


class TestCosts:
    def test_elision_cost_charged(self):
        system, zio = build()
        src = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        t = system.run_program(zio.copy_ops(dst, src, PAGE_SIZE))
        assert t >= params.ZIO_ELISION_BASE_CYCLES

    def test_fault_cost_charged(self):
        system, zio = build()
        src = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(2 * PAGE_SIZE, align=PAGE_SIZE)

        def copy_only():
            yield from zio.copy_ops(dst, src, PAGE_SIZE)

        t_copy = system.run_program(copy_only())

        def access():
            yield from _read_gen(zio, dst, 8)

        t_after = system.run_program(access())
        assert t_after - t_copy >= params.USERFAULTFD_FAULT_CYCLES


def _read(zio, addr, size):
    """Yield the backend's read ops; return the loaded bytes."""
    value = None
    for op in zio.read_ops(addr, size, blocking=True):
        value = yield op
    return value


def _read_gen(zio, addr, size):
    for op in zio.read_ops(addr, size):
        yield op
