"""Software copy backends: eager loop, (MC)² lazy wrapper, zIO elision.

The ``mclazy`` backend's op stream is pinned byte-for-byte to the golden
trace by ``tests/integration/test_golden_trace.py``: it emits exactly
what :func:`repro.sw.memcpy.memcpy_lazy_ops` emits, with no marker ops
and no extra fences.

Kernel copy paths are constructor arguments, not separate classes:
``EagerBackend(bulk_copy=True)`` is the native kernel's line-granular
copy and ``McLazyBackend(page_size=HUGE_PAGE_SIZE, clwb_sources=False)``
is the (MC)²-modified ``copy_user_huge_page``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.common import params
from repro.common.units import CACHELINE_SIZE, PAGE_SIZE, align_down
from repro.copyengine.base import CopyBackend
from repro.copyengine.registry import register_backend
from repro.isa import ops
from repro.isa.ops import Op
from repro.sim.shard import shard_local
from repro.sw.memcpy import memcpy_lazy_ops, memcpy_ops


@register_backend
@shard_local(domain="cpu")
class EagerBackend(CopyBackend):
    """The native software ``memcpy`` loop (the paper's baseline).

    ``bulk_copy=True`` models native-kernel copies (``pipe_read`` /
    ``pipe_write``, ``copy_user_huge_page``): they do not loop SIMD
    chunks through the out-of-order scheduler but run a microcoded
    ``rep movsb``-style copy that streams whole cachelines.  Copies whose
    buffers are not both line-aligned keep the chunked loop, and a
    sub-line tail is copied by it too.
    """

    name = "eager"

    def __init__(self, system, bulk_copy: bool = False):
        super().__init__(system)
        self.bulk_copy = bulk_copy

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        self._outcome("copied")
        if (not self.bulk_copy or dst % CACHELINE_SIZE
                or src % CACHELINE_SIZE):
            yield from memcpy_ops(self.system, dst, src, size)
            return
        bulk = size & ~(CACHELINE_SIZE - 1)
        if bulk:
            yield ops.bulk_copy(dst, src, bulk)
        if size - bulk:
            yield from memcpy_ops(self.system, dst + bulk, src + bulk,
                                  size - bulk)


@register_backend
@shard_local(domain="cpu")
class McLazyBackend(CopyBackend):
    """(MC)² lazy MemCopy through the ``memcpy_lazy`` wrapper (Fig. 8).

    ``min_lazy`` models the interposer policy (§V-B redirects copies of
    1KB and larger); 0 makes every copy lazy.  ``page_size`` is the
    contiguity granularity the wrapper may assume (4KB for user space,
    2MB when the kernel copies huge pages), and ``clwb_sources=False``
    drops the per-line CLWB train for kernel paths whose hardware writes
    dirty source lines back as the MCLAZY packet traverses the caches.
    """

    name = "mclazy"

    @classmethod
    def config_kwargs(cls, config) -> dict:
        return {"min_lazy": getattr(config, "copy_min_lazy", 0)}

    def __init__(self, system, min_lazy: int = 0,
                 page_size: int = PAGE_SIZE,
                 clwb_sources: bool = True):
        super().__init__(system)
        self.min_lazy = min_lazy
        self.page_size = page_size
        self.clwb_sources = clwb_sources

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        if size < self.min_lazy:
            self._outcome("copied")
            self._fallback_bytes.inc(size)
            yield from memcpy_ops(self.system, dst, src, size)
            return
        self._outcome("deferred")
        yield from memcpy_lazy_ops(self.system, dst, src, size,
                                   clwb_sources=self.clwb_sources,
                                   page_size=self.page_size)

    def _free_ops(self, addr: int, size: int) -> Iterator[Op]:
        yield ops.mcfree(addr, size)

    def tracked_bytes(self) -> int:
        ctt = getattr(self.system, "ctt", None)
        return ctt.tracked_bytes() if ctt is not None else 0

    # No _resolve_ops override: deferred copies live in the CTT, and
    # System.read_memory resolves through it (bounce semantics), so
    # final memory contents are already observable.


@register_backend
@shard_local(domain="cpu")
class ZioBackend(CopyBackend):
    """zIO (Stamler et al., OSDI 2022): page-granularity copy elision.

    zIO elides ``memcpy`` calls of at least a page: it records the copy
    in a skiplist, unmaps the destination pages (charging munmap +
    TLB-shootdown costs), and marks them copy-on-access via userfaultfd.
    The first access to an elided page takes a fault: zIO allocates
    physical memory and copies that page eagerly.  Sub-page copies
    cannot be elided and fall back to plain ``memcpy`` — which is why
    zIO gains nothing on the Protobuf workload (all copies < 4KB, §V-B)
    and why it loses when copied data is heavily accessed (MongoDB,
    Figs. 12-13).  Following the paper's methodology (§IV), elision
    applies to *all* memcpy calls, not only IO-path ones.

    ``elisions`` / ``faults`` / ``fallback_copies`` are plain counters,
    kept out of the stat tree.
    """

    name = "zio"

    @classmethod
    def config_kwargs(cls, config) -> dict:
        kwargs = {}
        min_elision = getattr(config, "zio_min_elision", None)
        if min_elision is not None:
            kwargs["min_elision"] = min_elision
        return kwargs

    def __init__(self, system,
                 min_elision: int = params.ZIO_MIN_ELISION_SIZE):
        super().__init__(system)
        self.min_elision = min_elision
        # Elided destination page -> source byte address backing it.
        self._elided: Dict[int, int] = {}
        self.elisions = 0
        self.faults = 0
        self.fallback_copies = 0

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        # Only whole destination pages can be remapped; fringes copy
        # eagerly.  An elidable region needs at least one full page.
        first_page = align_down(dst + PAGE_SIZE - 1, PAGE_SIZE)
        last_page_end = align_down(dst + size, PAGE_SIZE)
        if size < self.min_elision or first_page >= last_page_end:
            self._outcome("copied")
            self.fallback_copies += 1
            yield from memcpy_ops(self.system, dst, src, size)
            self._fallback_bytes.inc(size)
            return

        self._outcome("elided")
        head = first_page - dst
        if head:
            yield from memcpy_ops(self.system, dst, src, head)
        tail = (dst + size) - last_page_end
        if tail:
            yield from memcpy_ops(self.system, last_page_end,
                                  src + (last_page_end - dst), tail)

        pages = (last_page_end - first_page) // PAGE_SIZE
        for i in range(pages):
            page = first_page + i * PAGE_SIZE
            self._elided[page] = src + (page - dst)
        self.elisions += 1
        # Elision cost: skiplist insert + munmap + TLB shootdown IPIs.
        yield ops.compute(params.ZIO_SKIPLIST_OP_CYCLES
                          + params.ZIO_ELISION_BASE_CYCLES
                          + pages * params.ZIO_UNMAP_PER_PAGE_CYCLES)

    def _free_ops(self, addr: int, size: int) -> Iterator[Op]:
        for page in range(align_down(addr, PAGE_SIZE), addr + size,
                          PAGE_SIZE):
            self._elided.pop(page, None)
        yield ops.compute(params.ZIO_SKIPLIST_OP_CYCLES)

    # ----------------------------------------------------------- accesses
    def _fault_ops(self, addr: int) -> Iterator[Op]:
        """Copy-on-access: userfaultfd round trip plus an eager page copy."""
        page = align_down(addr, PAGE_SIZE)
        src = self._elided.pop(page, None)
        if src is None:
            return
        self.faults += 1
        yield ops.compute(params.USERFAULTFD_FAULT_CYCLES)
        yield from memcpy_ops(self.system, page, src, PAGE_SIZE)
        yield ops.compute(params.ZIO_SKIPLIST_OP_CYCLES)

    def is_elided(self, addr: int) -> bool:
        """True when the page containing ``addr`` awaits copy-on-access."""
        return align_down(addr, PAGE_SIZE) in self._elided

    def read_ops(self, addr: int, size: int = 8, blocking: bool = False,
                 on_retire=None) -> Iterator[Op]:
        yield from self._fault_ops(addr)
        yield from super().read_ops(addr, size, blocking=blocking,
                                    on_retire=on_retire)

    def write_ops(self, addr: int, size: int = 8,
                  data: Optional[bytes] = None, on_retire=None,
                  nontemporal: bool = False) -> Iterator[Op]:
        yield from self._fault_ops(addr)
        yield from super().write_ops(addr, size, data=data,
                                     on_retire=on_retire,
                                     nontemporal=nontemporal)

    def tracked_bytes(self) -> int:
        return len(self._elided) * PAGE_SIZE

    def _resolve_ops(self, addr: int, size: int) -> Iterator[Op]:
        # The elision map is backend state the memory system cannot see:
        # fault every still-elided page in so final bytes land in DRAM.
        for page in range(align_down(addr, PAGE_SIZE), addr + size,
                          PAGE_SIZE):
            if self.is_elided(page):
                yield from self.read_ops(page, 8)
