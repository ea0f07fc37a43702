"""CPU-visible operations, including the two new (MC)² instructions.

Workload *programs* are Python generators that yield these ops; the core
(:mod:`repro.cpu.core`) pulls ops to fill its instruction window.  A
``Load`` with ``blocking=True`` suspends the program until the value
returns (the core ``send()``s the loaded bytes back into the generator),
which is how pointer-chasing dependency chains serialize (Fig. 13).

All addresses at this layer are *physical*; the software layer
(:mod:`repro.sw`, :mod:`repro.os`) handles virtual→physical translation.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional


class OpKind(enum.Enum):
    """The kinds of µops the simulated core executes."""

    LOAD = "load"
    STORE = "store"
    NT_STORE = "nt_store"      # non-temporal store: no RFO, bypasses caches
    CLWB = "clwb"              # write back (keep) one cacheline
    CLWB_RANGE = "clwb_range"  # §V-A1 extension: range writeback
    MCLAZY = "mclazy"          # register a prospective copy (new ISA)
    MCFREE = "mcfree"          # drop prospective copies into a buffer (new ISA)
    MFENCE = "mfence"          # order all prior memory ops
    COMPUTE = "compute"        # non-memory work occupying the pipeline
    BULK_COPY = "bulk_copy"    # rep-movsb-style line-granular kernel copy
    INMEM_COPY = "inmem_copy"  # in-DRAM row copy (RowClone / mirroring)

    # Identity hash, consistent with Enum's identity equality: the core
    # hashes op.kind for every op it issues (_SB_KINDS, _ISSUE_COST),
    # and Enum.__hash__ is a Python-level call hashing the name.  No
    # code iterates a set of kinds, so no order depends on it.
    __hash__ = object.__hash__


class Op:
    """One dynamic operation flowing through the core.

    Attributes
    ----------
    kind:
        The operation type.
    addr / size:
        Physical address and byte size the op touches.
    src_addr:
        MCLAZY only: physical source buffer address.
    data:
        STORE/NT_STORE: bytes to write (defaults to a repeated marker).
    blocking:
        LOAD only: suspend the program until the value is available.
    cycles:
        COMPUTE only: pipeline occupancy.
    on_retire:
        Optional callback ``f(op, retire_cycle)`` fired at retirement —
        used by workloads to timestamp individual operations (Fig. 18).
    """

    __slots__ = ("kind", "addr", "size", "src_addr", "data", "blocking",
                 "cycles", "on_retire", "copy_mode", "issued_at",
                 "completed_at", "retired_at", "value")

    def __init__(
        self,
        kind: OpKind,
        addr: int = 0,
        size: int = 0,
        src_addr: Optional[int] = None,
        data: Optional[bytes] = None,
        blocking: bool = False,
        cycles: int = 0,
        on_retire: Optional[Callable[["Op", int], None]] = None,
    ):
        self.kind = kind
        self.addr = addr
        self.size = size
        self.src_addr = src_addr
        self.data = data
        self.blocking = blocking
        self.cycles = cycles
        self.on_retire = on_retire
        self.copy_mode: Optional[str] = None  # INMEM_COPY: rowclone|mirror
        self.issued_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.retired_at: Optional[int] = None
        self.value: Optional[bytes] = None  # loaded bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Op({self.kind.value}, addr={self.addr:#x}, size={self.size})"


# ------------------------------------------------------------ constructors
def load(addr: int, size: int = 8, blocking: bool = False,
         on_retire=None) -> Op:
    """A load of ``size`` bytes at physical ``addr``."""
    return Op(OpKind.LOAD, addr=addr, size=size, blocking=blocking,
              on_retire=on_retire)


def store(addr: int, size: int = 8, data: Optional[bytes] = None,
          on_retire=None) -> Op:
    """A store of ``size`` bytes at physical ``addr``."""
    return Op(OpKind.STORE, addr=addr, size=size, data=data,
              on_retire=on_retire)


def nt_store(addr: int, size: int = 64, data: Optional[bytes] = None,
             on_retire=None) -> Op:
    """A non-temporal (streaming) store: no read-for-ownership."""
    return Op(OpKind.NT_STORE, addr=addr, size=size, data=data,
              on_retire=on_retire)


def clwb(addr: int) -> Op:
    """Write back the cacheline containing ``addr`` (line stays cached)."""
    return Op(OpKind.CLWB, addr=addr, size=64)


def clwb_range(addr: int, size: int) -> Op:
    """Write back every dirty line in ``[addr, addr+size)``.

    The paper's §V-A1 proposes this extension: a single wider writeback
    (e.g. page-granularity) replaces the per-line CLWB train that
    dominates ``memcpy_lazy`` cost above 1KB.  One fixed-cost µop probes
    the range; only lines that are actually dirty generate writebacks.
    """
    return Op(OpKind.CLWB_RANGE, addr=addr, size=size)


def mclazy(dst: int, src: int, size: int) -> Op:
    """Register a prospective copy of ``size`` bytes from ``src`` to ``dst``.

    ISA contract (§III-C): ``dst`` must be cacheline-aligned, ``size`` a
    cacheline multiple, and both buffers physically contiguous (the
    software wrapper guarantees per-page invocation).
    """
    return Op(OpKind.MCLAZY, addr=dst, src_addr=src, size=size)


def mcfree(addr: int, size: int) -> Op:
    """Hint that ``[addr, addr+size)`` will not be read again."""
    return Op(OpKind.MCFREE, addr=addr, size=size)


def mfence() -> Op:
    """Full memory fence: completes when all prior ops have completed."""
    return Op(OpKind.MFENCE)


def compute(cycles: int) -> Op:
    """Non-memory work occupying ``cycles`` of pipeline time."""
    return Op(OpKind.COMPUTE, cycles=cycles)


def inmem_copy(dst: int, src: int, size: int, mode: str = "rowclone") -> Op:
    """Offload a copy of ``size`` bytes from ``src`` to ``dst`` to DRAM.

    Contract (mirrors MCLAZY's §III-C shape): both addresses
    cacheline-aligned, ``size`` a cacheline multiple, and every
    source/destination line pair resident on the *same* channel — the
    issuing backend (:mod:`repro.copyengine.indram`) checks channel
    congruence and falls back to the software loop otherwise.  ``mode``
    selects the in-DRAM mechanism: ``"rowclone"`` (FPM/PSM per
    RowClone) or ``"mirror"`` (In-Memory Mirroring).  The op holds a
    store-buffer slot until every channel reports completion, so an
    MFENCE after it observes the finished copy.
    """
    op = Op(OpKind.INMEM_COPY, addr=dst, src_addr=src, size=size)
    op.copy_mode = mode
    return op


def bulk_copy(dst: int, src: int, size: int) -> Op:
    """A ``rep movsb``-style line-granular copy executed by the memory
    system directly (used for kernel copies like ``copy_user_huge_page``
    and ``copy_to_user``, which do not loop SIMD chunks through the
    scheduler).  Occupies the core until the copy completes."""
    return Op(OpKind.BULK_COPY, addr=dst, src_addr=src, size=size,
              blocking=False)
