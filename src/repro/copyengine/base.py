"""The pluggable copy-backend contract.

:class:`CopyBackend` is the one copy-engine class: workloads are written
once against it and run under every copy mechanism the crossover study
compares — the eager software loop (user ``memcpy`` or the kernel's
line-granular bulk copy), (MC)² lazy tracking, zIO page elision, and the
in-DRAM RowClone / mirroring models.  It routes *reads and writes of
copied data* as well as copies, because zIO interposes page faults on
first access; the other backends pass accesses straight through.  Each
backend has a standard observable surface and a four-hook lifecycle:

* **issue** (:meth:`CopyBackend._issue_ops`) — emit the µops that
  perform (or register, or elide) one copy.  This is the only hook a
  backend must implement.
* **track** (:meth:`CopyBackend.tracked_bytes`) — how many bytes of
  copies the backend is currently *deferring* (CTT-tracked bytes for
  ``mclazy``, elided pages for ``zio``, always 0 for mechanisms that
  finish copies before returning).
* **resolve** (:meth:`CopyBackend.resolve_ops`) — force deferred state
  to become ordinary memory so a functional comparison (or a checkpoint)
  sees final bytes.  ``mclazy`` needs nothing here because
  ``System.read_memory`` is CTT-aware; ``zio`` must fault its elided
  pages in because the elision map lives in the engine, invisible to
  the memory system.
* **coherence** (:meth:`CopyBackend.coherence_ops`) — the CPU-boundary
  cost a mechanism pays before offloading (LazyPIM-style flush +
  invalidate bookkeeping for the in-DRAM backends; free for the
  software mechanisms, whose ops are naturally coherent).

Every backend owns a ``StatGroup`` subtree under
``system.stats["copyengine"][<name>]`` and emits copy-lifecycle spans in
the opt-in ``copyengine`` trace category (off by default, so traced
golden runs stay byte-identical).

Backends run on the core that executes their generated ops, hence the
``cpu`` shard declaration; everything they touch cross-shard goes
through the ops they emit, never by direct mutation.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.isa import ops
from repro.isa.ops import Op
from repro.sim.shard import shard_local
from repro.sw.memcpy import memcpy_ops


@shard_local(domain="cpu")
class CopyBackend:
    """Base class for registered copy backends."""

    name = "backend"

    @classmethod
    def config_kwargs(cls, config) -> dict:
        """Constructor kwargs this backend derives from a SystemConfig.

        The registry's :func:`make_backend` applies these under any
        explicit overrides, so ``SystemConfig`` fields like
        ``copy_min_lazy`` flow to the right backend automatically.
        """
        return {}

    def __init__(self, system):
        self.system = system
        group = system.stats.group("copyengine").group(self.name)
        self.stats = group
        self._copies = group.counter("copies", "copy requests issued")
        self._bytes = group.counter("bytes_requested",
                                    "bytes the workload asked to copy")
        self._fallback_bytes = group.counter(
            "fallback_bytes", "bytes that took the eager software loop")
        self._frees = group.counter("frees", "free hints received")
        self._resolves = group.counter("resolves",
                                       "explicit resolve requests")
        # Instance-local span sequence (a process-global counter would
        # be fork-unsafe across sweep workers, MC2401).
        self._span_seq = 0
        self._last_outcome = "issued"

    # ------------------------------------------------------------ wrapper
    def copy_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        """Count, trace, and delegate one copy to :meth:`_issue_ops`."""
        self._copies.inc()
        self._bytes.inc(size)
        tracer = getattr(self.system, "tracer", None)
        span_id = None
        if tracer is not None and tracer.wants("copyengine"):
            self._span_seq += 1
            span_id = f"ce-{self.name}-{self._span_seq}"
            tracer.span_begin("copyengine", "copyengine",
                              f"copy-{self.name}", span_id,
                              {"dst": hex(dst), "src": hex(src),
                               "size": size})
        self._last_outcome = "issued"
        yield from self._issue_ops(dst, src, size)
        if span_id is not None:
            tracer.span_end("copyengine", span_id,
                            {"outcome": self._last_outcome})

    def free_ops(self, addr: int, size: int) -> Iterator[Op]:
        self._frees.inc()
        return self._free_ops(addr, size)

    def resolve_ops(self, addr: int, size: int) -> Iterator[Op]:
        """Materialize any deferred copy state covering the range."""
        self._resolves.inc()
        return self._resolve_ops(addr, size)

    # ----------------------------------------------------------- accesses
    def read_ops(self, addr: int, size: int = 8, blocking: bool = False,
                 on_retire=None) -> Iterator[Op]:
        """Load from (possibly copied) data."""
        yield ops.load(addr, size, blocking=blocking, on_retire=on_retire)

    def write_ops(self, addr: int, size: int = 8,
                  data: Optional[bytes] = None, on_retire=None,
                  nontemporal: bool = False) -> Iterator[Op]:
        """Store to (possibly copied) data."""
        if nontemporal:
            yield ops.nt_store(addr, size, data=data, on_retire=on_retire)
        else:
            yield ops.store(addr, size, data=data, on_retire=on_retire)

    # -------------------------------------------------------------- hooks
    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        """Emit the µops performing one copy (override me)."""
        self._outcome("copied")
        return memcpy_ops(self.system, dst, src, size)

    def _free_ops(self, addr: int, size: int) -> Iterator[Op]:
        return iter(())

    def _resolve_ops(self, addr: int, size: int) -> Iterator[Op]:
        return iter(())

    def coherence_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        """CPU-boundary coherence cost paid before an offloaded copy."""
        return iter(())

    def tracked_bytes(self) -> int:
        """Bytes of copies this backend is currently deferring."""
        return 0

    # ------------------------------------------------------------ helpers
    def _outcome(self, outcome: str) -> None:
        """Record the lifecycle outcome the current copy's span closes
        with (``copied`` / ``deferred`` / ``elided`` / ``cloned`` /
        ``fallback``)."""
        self._last_outcome = outcome
