"""Virtual memory substrate: address spaces, fork, copy-on-write.

A deliberately lightweight model of the Linux mechanisms the paper's OS
experiments exercise (§V-B "Concurrent snapshots with huge pages"):

* an :class:`AddressSpace` maps virtual pages (4KB or 2MB huge pages) to
  physical frames with writable/COW bits and frame reference counts;
* :meth:`OperatingSystem.fork` clones an address space by copying PTEs
  and marking both sides copy-on-write (charging the per-PTE cost that
  makes huge pages attractive — 512× fewer PTEs);
* a write to a COW page raises :class:`CowFault`; the caller resolves it
  with :meth:`OperatingSystem.begin_cow_fault` /
  :meth:`~OperatingSystem.complete_cow_fault`, emitting the page-copy ops
  through whichever :class:`~repro.copyengine.CopyBackend` is under
  test — the native kernel copies eagerly, the modified kernel uses
  ``MCLAZY``.

Translation is explicit (workload generators call :meth:`translate`)
rather than interposed on every op, keeping the hot simulation path
simple; protection semantics are still enforced at translation time,
mirroring the paper's argument that (MC)² needs no protection changes
because the MMU checks happen before physical addresses reach the MC
(§III-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common import params
from repro.common.errors import AddressError, ProtectionFault
from repro.common.units import HUGE_PAGE_SIZE, PAGE_SIZE, align_down
from repro.copyengine.base import CopyBackend
from repro.isa import ops
from repro.isa.ops import Op


class CowFault(Exception):
    """A write touched a copy-on-write page; carries the faulting VA."""

    def __init__(self, vaddr: int):
        super().__init__(f"COW fault at {vaddr:#x}")
        self.vaddr = vaddr


@dataclass
class PageTableEntry:
    """One mapping from a virtual page to a physical frame."""

    frame: int           # physical base address
    writable: bool
    cow: bool = False


class AddressSpace:
    """Per-process page table over one page size."""

    def __init__(self, os_: "OperatingSystem",
                 page_size: int = PAGE_SIZE):
        if page_size not in (PAGE_SIZE, HUGE_PAGE_SIZE):
            raise AddressError(f"unsupported page size {page_size}")
        # Deliberately no serial id (see sim.packet): a module-global
        # counter is shared mutable state across forked sweep workers.
        self.os = os_
        self.page_size = page_size
        self.ptes: Dict[int, PageTableEntry] = {}

    # ------------------------------------------------------------ mapping
    def _vpage(self, vaddr: int) -> int:
        return align_down(vaddr, self.page_size)

    def map_region(self, vaddr: int, size: int,
                   writable: bool = True) -> None:
        """Allocate and map physical frames for [vaddr, vaddr+size)."""
        page = self._vpage(vaddr)
        end = vaddr + size
        while page < end:
            if page not in self.ptes:
                frame = self.os.alloc_frame(self.page_size)
                self.ptes[page] = PageTableEntry(frame, writable)
            page += self.page_size

    def unmap_region(self, vaddr: int, size: int) -> None:
        """Drop mappings; frames are released when refcounts hit zero."""
        page = self._vpage(vaddr)
        end = vaddr + size
        while page < end:
            pte = self.ptes.pop(page, None)
            if pte is not None:
                self.os.release_frame(pte.frame)
            page += self.page_size

    # -------------------------------------------------------- translation
    def translate(self, vaddr: int, write: bool = False) -> int:
        """VA → PA; raises :class:`CowFault` on a COW write,
        :class:`ProtectionFault` on other violations."""
        pte = self.ptes.get(self._vpage(vaddr))
        if pte is None:
            raise ProtectionFault(f"unmapped address {vaddr:#x}")
        if write:
            if pte.cow:
                raise CowFault(vaddr)
            if not pte.writable:
                raise ProtectionFault(f"write to read-only page {vaddr:#x}")
        return pte.frame + (vaddr - self._vpage(vaddr))

    def translate_range(self, vaddr: int, size: int,
                        write: bool = False) -> List[Tuple[int, int]]:
        """Translate a range into (paddr, length) page-bounded pieces."""
        out: List[Tuple[int, int]] = []
        pos = vaddr
        end = vaddr + size
        while pos < end:
            page_end = self._vpage(pos) + self.page_size
            take = min(page_end, end) - pos
            out.append((self.translate(pos, write), take))
            pos += take
        return out


class OperatingSystem:
    """Frame allocator + process table + fork/COW machinery."""

    def __init__(self, system):
        self.system = system
        self._refcounts: Dict[int, int] = {}
        self.spaces: List[AddressSpace] = []
        self.cow_faults = 0
        self.forks = 0

    # ------------------------------------------------------------- frames
    def alloc_frame(self, page_size: int) -> int:
        frame = self.system.alloc(page_size, align=page_size)
        self._refcounts[frame] = 1
        return frame

    def share_frame(self, frame: int) -> None:
        self._refcounts[frame] = self._refcounts.get(frame, 1) + 1

    def release_frame(self, frame: int) -> None:
        count = self._refcounts.get(frame, 1) - 1
        if count <= 0:
            self._refcounts.pop(frame, None)
        else:
            self._refcounts[frame] = count

    def create_space(self, page_size: int = PAGE_SIZE) -> AddressSpace:
        """A new empty address space."""
        space = AddressSpace(self, page_size)
        self.spaces.append(space)
        return space

    # --------------------------------------------------------------- fork
    def fork(self, parent: AddressSpace) -> Tuple[AddressSpace, Iterator[Op]]:
        """Clone ``parent``; both sides become COW.

        Returns the child space and the op fragment charging the fork
        cost (page-table copy: base + per-PTE work — the reason huge
        pages cut direct fork cost by ~512×).
        """
        self.forks += 1
        child = self.create_space(parent.page_size)
        for vpage, pte in parent.ptes.items():
            pte.cow = True
            self.share_frame(pte.frame)
            child.ptes[vpage] = PageTableEntry(pte.frame, pte.writable,
                                               cow=True)
        cost = (params.FORK_BASE_CYCLES
                + len(parent.ptes) * params.FORK_PER_PTE_CYCLES)
        return child, iter([ops.compute(cost)])

    # ----------------------------------------------------------- COW path
    def begin_cow_fault(self, space: AddressSpace,
                        vaddr: int) -> Tuple[int, int]:
        """Start servicing a COW fault.

        Allocates the private frame and returns ``(old_frame,
        new_frame)``.  The caller emits the page copy (eager or lazy)
        plus :data:`params.PAGE_FAULT_CYCLES` of kernel work, then calls
        :meth:`complete_cow_fault`.
        """
        self.cow_faults += 1
        vpage = space._vpage(vaddr)
        pte = space.ptes.get(vpage)
        if pte is None or not pte.cow:
            raise ProtectionFault(f"no COW fault pending at {vaddr:#x}")
        old_frame = pte.frame
        if self._refcounts.get(old_frame, 1) <= 1:
            # Sole owner: just clear the COW bit, no copy needed.
            pte.cow = False
            return old_frame, old_frame
        new_frame = self.alloc_frame(space.page_size)
        return old_frame, new_frame

    def complete_cow_fault(self, space: AddressSpace, vaddr: int,
                           new_frame: int) -> None:
        """Install the private frame after the copy ops have been issued."""
        vpage = space._vpage(vaddr)
        pte = space.ptes[vpage]
        if pte.frame != new_frame:
            self.release_frame(pte.frame)
            pte.frame = new_frame
        pte.cow = False

    def cow_store_ops(self, space: AddressSpace, vaddr: int, size: int,
                      engine: Optional[CopyBackend] = None,
                      data: Optional[bytes] = None,
                      on_retire=None) -> Iterator[Op]:
        """A store through the VM layer, servicing a COW fault if raised.

        This is the convenience path the Fig. 18 workload uses: kernel
        entry cost, page copy through ``engine``, PTE fixup, then the
        user store.  ``engine`` defaults to the machine's configured
        copy backend (``SystemConfig.copy_backend``), so the kernel COW
        path dispatches through :mod:`repro.copyengine` like userspace
        ``memcpy`` does.
        """
        if engine is None:
            engine = self.system.copy_backend()
        try:
            paddr = space.translate(vaddr, write=True)
        except CowFault:
            yield ops.compute(params.PAGE_FAULT_CYCLES)
            old_frame, new_frame = self.begin_cow_fault(space, vaddr)
            if new_frame != old_frame:
                yield from engine.copy_ops(new_frame, old_frame,
                                           space.page_size)
            self.complete_cow_fault(space, vaddr, new_frame)
            paddr = space.translate(vaddr, write=True)
        yield from engine.write_ops(paddr, size, data=data,
                                    on_retire=on_retire)
