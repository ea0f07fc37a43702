"""Simplified out-of-order core model.

The core executes a *program* — a Python generator yielding
:class:`~repro.isa.ops.Op` objects — under the resource limits that drive
the paper's memcpy analysis (§II):

* a bounded instruction window (ROB): ops retire in order, so a stalled
  head op blocks the window and eventually the whole core ("Mem miss
  stall cycles", Fig. 3);
* a bounded store buffer shared by stores, CLWB flushes, non-temporal
  stores and MCLAZY/MCFREE packets: once full, further such ops serialize
  (the >1KB knee in Fig. 11);
* MSHR-bounded memory-level parallelism (inside the cache hierarchy);
* ``blocking`` loads suspend the program until the value returns, which
  serializes pointer chases (Fig. 13);
* MFENCE completes only when every older op — including outstanding
  writebacks and lazy-copy packets — has completed (§III-C).

The core is event-driven: :meth:`_pump` advances issue whenever a
resource frees, and in-order retirement frees window slots.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Generator, List, Optional

from repro.common import params
from repro.cache.cache import _LINE_SHIFT
from repro.cache.hierarchy import CacheHierarchy
from repro.common.units import CACHELINE_SIZE
from repro.common.errors import SimulationError
from repro.isa.ops import Op, OpKind
from repro.sim.engine import Simulator
from repro.sim.shard import shard_local
from repro.sim.stats import StatGroup

Program = Generator[Op, Optional[bytes], None]

_ISSUE_COST = {
    OpKind.LOAD: 1,
    OpKind.STORE: 1,
    OpKind.NT_STORE: params.NT_STORE_CYCLES,
    OpKind.CLWB: params.CLWB_ISSUE_CYCLES,
    OpKind.MCLAZY: params.MCLAZY_ISSUE_CYCLES,
    OpKind.MCFREE: params.MCLAZY_ISSUE_CYCLES,
    OpKind.INMEM_COPY: params.MCLAZY_ISSUE_CYCLES,
    OpKind.MFENCE: 1,
    OpKind.COMPUTE: 0,
    OpKind.BULK_COPY: 1,
    OpKind.CLWB_RANGE: 4,
}


def _apply_stores(out: bytearray, addr: int, lo_clip: int, hi_clip: int,
                  stores: List[list]) -> None:
    """Copy each store's bytes inside [lo_clip, hi_clip) into ``out``.

    ``out`` holds [addr, ...); stores apply in list order.
    """
    for s_addr, s_size, s_data in stores:
        lo = s_addr if s_addr > lo_clip else lo_clip
        hi = s_addr + s_size
        if hi > hi_clip:
            hi = hi_clip
        if lo < hi:
            out[lo - addr:hi - addr] = s_data[lo - s_addr:hi - s_addr]


@shard_local(domain="cpu")
class Core:
    """One simulated CPU core executing one program at a time."""

    def __init__(self, sim: Simulator, core_id: int,
                 hierarchy: CacheHierarchy, stats: StatGroup,
                 rob_entries: int = params.ROB_ENTRIES,
                 store_buffer_entries: int = params.STORE_BUFFER_ENTRIES):
        self.sim = sim
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.stats = stats
        self.rob_entries = rob_entries
        self.store_buffer_entries = store_buffer_entries

        self._window: Deque[Op] = deque()
        self._gen: Optional[Program] = None
        self._gen_started = False
        self._awaiting: Optional[Op] = None  # blocking load in flight
        self._pending_op: Optional[Op] = None  # pulled but not yet issued
        self._fence: Optional[Op] = None
        self._serializing: Optional[Op] = None  # e.g. BULK_COPY
        self._sb_used = 0
        # Pending (not yet drained) stores for store-to-load forwarding:
        # list of [addr, size, data] in program order, plus an index
        # from cacheline number to the entries touching that line,
        # oldest first (a zero-size store is filed under its addr's
        # line).  Queries read the lines they span, or scan the list
        # when they span more lines than there are pending stores.
        self._pending_stores: list = []
        self._store_lines: Dict[int, List[list]] = {}
        self._next_issue_at = 0
        self._exhausted = True
        self._on_finish: Optional[Callable[[int], None]] = None
        self._pump_scheduled = False
        # Hot-path bindings: _schedule_pump runs several times per op, so
        # the label and entry callback are built once, not per schedule.
        self._pump_label = f"core{core_id}-pump"
        self._pump_entry = self._run_pump

        # -------- statistics ---------------------------------------------
        self.ops_retired = stats.counter("ops_retired", "ops retired")
        self.loads = stats.counter("loads", "load ops")
        self.stores = stats.counter("stores", "store ops")
        self.mem_miss_cycles = stats.counter(
            "mem_miss_cycles", "cycles with >=1 outstanding memory read")
        self.stall_cycles = stats.counter(
            "stall_cycles", "cycles issue was fully blocked on memory")
        self.sb_full_stalls = stats.counter(
            "sb_full_stalls", "issue attempts blocked by a full store buffer")
        self._outstanding_mem = 0
        self._mem_busy_since: Optional[int] = None
        self._stall_since: Optional[int] = None

    # ------------------------------------------------------------ control
    @property
    def idle(self) -> bool:
        """True when no program is running and all work has drained."""
        return (self._exhausted and not self._window
                and self._pending_op is None and self._sb_used == 0)

    def run_program(self, program: Program,
                    on_finish: Optional[Callable[[int], None]] = None) -> None:
        """Start executing ``program``; ``on_finish(cycle)`` fires at drain."""
        if not self.idle:
            raise SimulationError(f"core {self.core_id} is busy")
        self._gen = program
        self._gen_started = False
        self._exhausted = False
        self._on_finish = on_finish
        self._next_issue_at = self.sim.now
        if not self._pump_scheduled:
            self._schedule_pump()

    # ------------------------------------------------------------ pumping
    def _schedule_pump(self, delay: int = 0) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        # Late phase: the pump is the core's issue *arbiter* — it must
        # observe every same-cycle completion / resume / buffer release
        # before deciding what issues this cycle, no matter how the
        # tie-break orders those events (see repro.sim.engine).
        self.sim.schedule(delay, self._pump_entry, label=self._pump_label,
                          phase=1)

    def _run_pump(self) -> None:
        self._pump_scheduled = False
        self._pump()

    def _pump(self) -> None:
        """Issue as many ops as resources allow at the current cycle."""
        # Loop-invariant bindings (the mutable gates — _awaiting, _fence,
        # _serializing, _pending_op — are re-read each iteration because
        # _issue flips them mid-loop).
        window = self._window
        rob = self.rob_entries
        sb_limit = self.store_buffer_entries
        sb_kinds = self._SB_KINDS
        sim = self.sim
        while True:
            if self._awaiting is not None:
                self._note_stall()
                return
            fence = self._fence
            if fence is not None and fence.completed_at is None:
                return  # fence blocks younger ops entirely
            serializing = self._serializing
            if serializing is not None and serializing.completed_at is None:
                self._note_stall()
                return  # kernel bulk copy blocks younger ops
            if len(window) >= rob:
                self._note_stall()
                return
            op = self._pending_op or self._pull()
            if op is None:
                self._maybe_finish()
                return
            self._pending_op = op
            if op.kind in sb_kinds and self._sb_used >= sb_limit:
                self.sb_full_stalls.value += 1
                self._note_stall()
                return
            now = sim.now
            if self._next_issue_at > now:
                self._schedule_pump(self._next_issue_at - now)
                return
            self._pending_op = None
            self._clear_stall()
            self._issue(op)

    def _pull(self) -> Optional[Op]:
        if self._exhausted or self._gen is None:
            return None
        try:
            if not self._gen_started:
                self._gen_started = True
                return next(self._gen)
            return self._gen.send(None)
        except StopIteration:
            self._exhausted = True
            return None

    def _resume_with_value(self, value: bytes) -> None:
        """Feed a blocking load's value back into the program."""
        self._awaiting = None
        if self._gen is None:
            return
        try:
            op = self._gen.send(value)
            self._pending_op = op
        except StopIteration:
            self._exhausted = True
        if not self._pump_scheduled:
            self._schedule_pump()

    def _forward_from_store_buffer(self, addr: int,
                                   size: int) -> Optional[bytes]:
        """Newest pending store fully covering [addr, addr+size), if any."""
        if size > 0:
            # A covering store holds byte addr, so it is filed under
            # addr's line.
            stores = self._store_lines.get(addr >> _LINE_SHIFT)
            if stores is None:
                return None
        else:
            # A zero-size load is covered by a store ending at addr,
            # which may sit wholly in the line before.
            stores = self._pending_stores
        for s_addr, s_size, s_data in reversed(stores):
            if s_addr <= addr and addr + size <= s_addr + s_size:
                offset = addr - s_addr
                return bytes(s_data[offset:offset + size])
        return None

    def _older_store_overlaps(self, entry) -> bool:
        """Is an older pending store byte-overlapping ``entry``'s range?"""
        addr, size, _ = entry
        end = addr + size
        first = addr >> _LINE_SHIFT
        last = (end - 1) >> _LINE_SHIFT if size > 0 else first
        if last - first >= len(self._pending_stores):
            for other in self._pending_stores:
                if other is entry:
                    return False
                o_addr, o_size, _ = other
                if o_addr < end and addr < o_addr + o_size:
                    return True
            return False
        # Any overlapping store shares a line with entry, and each
        # line's list is oldest first, so stop at entry itself.
        lines = self._store_lines
        for line in range(first, last + 1):
            for other in lines[line]:
                if other is entry:
                    break
                o_addr, o_size, _ = other
                if o_addr < end and addr < o_addr + o_size:
                    return True
        return False

    def _pending_store_overlap(self, addr: int, size: int) -> bool:
        """Any not-yet-drained store touching [addr, addr+size)?"""
        end = addr + size
        first = addr >> _LINE_SHIFT
        last = (end - 1) >> _LINE_SHIFT if size > 0 else first
        if last - first >= len(self._pending_stores):
            for s_addr, s_size, _ in self._pending_stores:
                if s_addr < end and addr < s_addr + s_size:
                    return True
            return False
        lines = self._store_lines
        for line in range(first, last + 1):
            stores = lines.get(line)
            if stores is not None:
                for s_addr, s_size, _ in stores:
                    if s_addr < end and addr < s_addr + s_size:
                        return True
        return False

    def overlay_pending_stores(self, addr: int, size: int,
                               out: bytearray) -> None:
        """Write not-yet-drained stores over ``out`` = [addr, addr+size).

        Stores apply in program order, so the newest wins each byte.
        Through the index they apply line by line, clipped to the line:
        every store holding a byte sits in that byte's line list, and
        clipping keeps an older store that straddles into the next line
        from overwriting a newer one there.
        """
        pending = self._pending_stores
        if not pending:
            return
        end = addr + size
        first = addr >> _LINE_SHIFT
        last = (end - 1) >> _LINE_SHIFT if size > 0 else first
        if last - first >= len(pending):
            _apply_stores(out, addr, addr, end, pending)
            return
        lines = self._store_lines
        for line in range(first, last + 1):
            stores = lines.get(line)
            if stores is not None:
                base = line << _LINE_SHIFT
                _apply_stores(out, addr, base if base > addr else addr,
                              min(base + CACHELINE_SIZE, end), stores)

    def _dispatch_after_stores(self, ranges, action) -> None:
        """Run ``action`` once no pending store overlaps ``ranges``.

        Models the x86 ordering of CLWB (and our new MCLAZY / kernel
        copies) with respect to *older stores to the affected lines*:
        the flush/packet must observe them.
        """
        def _try() -> None:
            if any(self._pending_store_overlap(a, s) for a, s in ranges):
                # Late phase: the retry polls store-buffer state, so it
                # must not race same-cycle drains.
                self.sim.schedule(5, _try, label="order-wait", phase=1)
            else:
                action()

        _try()

    # -------------------------------------------------------------- issue
    _SB_KINDS = frozenset((OpKind.STORE, OpKind.NT_STORE, OpKind.CLWB,
                           OpKind.CLWB_RANGE, OpKind.MCLAZY, OpKind.MCFREE,
                           OpKind.INMEM_COPY))

    @staticmethod
    def _needs_sb_slot(op: Op) -> bool:
        return op.kind in Core._SB_KINDS

    def _issue(self, op: Op) -> None:
        now = self.sim.now
        op.issued_at = now
        self._next_issue_at = now + _ISSUE_COST[op.kind]
        self._window.append(op)
        kind = op.kind

        if kind is OpKind.COMPUTE:
            self._next_issue_at = self.sim.now + op.cycles
            done = self.sim.now + max(op.cycles, 1)
            self.sim.schedule_at(done, lambda: self._complete(op),
                                 label="compute-done")
        elif kind is OpKind.LOAD:
            self.loads.value += 1
            forwarded = self._forward_from_store_buffer(op.addr, op.size)
            if forwarded is not None:
                op.value = forwarded
                done = self.sim.now + 5  # store-to-load forward latency

                def _fwd() -> None:
                    self._complete(op)
                    if op.blocking:
                        self._resume_with_value(forwarded)

                if op.blocking:
                    self._awaiting = op
                self.sim.schedule_at(done, _fwd, label="stl-forward")
                if not self._pump_scheduled:
                    self._schedule_pump()
                return
            self._mem_begin()
            if op.blocking:
                self._awaiting = op

            def _loaded(data: bytes, finish: int) -> None:
                op.value = data
                self._mem_end()
                self._complete(op)
                if op.blocking:
                    self._resume_with_value(data)

            if self._pending_store_overlap(op.addr, op.size):
                # Partial overlap with an in-flight store: no forward is
                # possible, so the load stalls until the store drains
                # (x86 replays such loads).
                self._dispatch_after_stores(
                    [(op.addr, op.size)],
                    lambda: self.hierarchy.load(self.core_id, op.addr,
                                                op.size, _loaded))
            else:
                self.hierarchy.load(self.core_id, op.addr, op.size,
                                    _loaded)
        elif kind is OpKind.STORE:
            self.stores.value += 1
            self._sb_used += 1
            data = op.data() if callable(op.data) else op.data
            if data is None:
                data = (op.addr & 0xFF).to_bytes(1, "little") * op.size
            entry = [op.addr, op.size, data]
            self._pending_stores.append(entry)
            store_lines = self._store_lines
            first = op.addr >> _LINE_SHIFT
            last = ((op.addr + op.size - 1) >> _LINE_SHIFT
                    if op.size > 0 else first)
            for line in range(first, last + 1):
                stores = store_lines.get(line)
                if stores is None:
                    store_lines[line] = [entry]
                else:
                    stores.append(entry)
            self.sim.schedule(1, lambda: self._complete(op),
                              label="store-issued")

            def _drained(finish: int) -> None:
                self._pending_stores.remove(entry)
                for line in range(first, last + 1):
                    stores = store_lines[line]
                    if len(stores) == 1:
                        del store_lines[line]
                    else:
                        stores.remove(entry)
                self._sb_free()

            def _dispatch() -> None:
                # Same-address stores must commit in program order: an
                # older overlapping store whose RFO is still in flight
                # would otherwise land *after* this one and resurrect
                # stale data.
                if self._older_store_overlaps(entry):
                    self.sim.schedule(5, _dispatch, label="st-st-order",
                                      phase=1)
                    return
                self.hierarchy.store(self.core_id, op.addr, op.size, data,
                                     _drained)

            _dispatch()
        elif kind is OpKind.NT_STORE:
            self.stores.value += 1
            self._sb_used += 1
            data = op.data() if callable(op.data) else op.data
            if data is None:
                data = (op.addr & 0xFF).to_bytes(1, "little") * op.size
            self.sim.schedule(1, lambda: self._complete(op),
                              label="ntstore-issued")
            self.hierarchy.nt_store(self.core_id, op.addr, op.size, data,
                                    lambda finish: self._sb_free())
        elif kind is OpKind.CLWB:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="clwb-issued")
            self._dispatch_after_stores(
                [(op.addr, op.size)],
                lambda: self.hierarchy.clwb(self.core_id, op.addr,
                                            lambda finish: self._sb_free()))
        elif kind is OpKind.CLWB_RANGE:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="clwb-range-issued")
            self._dispatch_after_stores(
                [(op.addr, op.size)],
                lambda: self.hierarchy.clwb_range(
                    self.core_id, op.addr, op.size,
                    lambda finish: self._sb_free()))
        elif kind is OpKind.MCLAZY:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="mclazy-issued")
            self._dispatch_after_stores(
                [(op.src_addr, op.size), (op.addr, op.size)],
                lambda: self.hierarchy.handle_mclazy(
                    self.core_id, op.addr, op.src_addr, op.size,
                    lambda finish: self._sb_free()))
        elif kind is OpKind.INMEM_COPY:
            # Offloaded in-DRAM copy: issues like MCLAZY (descriptor
            # build + send) but the store-buffer slot is held until
            # every channel finishes its share, so a later MFENCE
            # orders after the clone itself, not just the send.
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="inmem-copy-issued")
            self._dispatch_after_stores(
                [(op.src_addr, op.size), (op.addr, op.size)],
                lambda: self.hierarchy.handle_inmem_copy(
                    self.core_id, op.addr, op.src_addr, op.size,
                    op.copy_mode or "rowclone",
                    lambda finish: self._sb_free()))
        elif kind is OpKind.MCFREE:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="mcfree-issued")
            self.hierarchy.handle_mcfree(self.core_id, op.addr, op.size,
                                         lambda finish: self._sb_free())
        elif kind is OpKind.BULK_COPY:
            self._mem_begin()
            self._serializing = op

            def _copied(finish: int) -> None:
                self._serializing = None
                self._mem_end()
                self._complete(op)

            self._dispatch_after_stores(
                [(op.src_addr, op.size), (op.addr, op.size)],
                lambda: self.hierarchy.bulk_copy(
                    self.core_id, op.addr, op.src_addr, op.size, _copied))
        elif kind is OpKind.MFENCE:
            self._fence = op
            self._try_fence()
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"unknown op kind {kind}")
        if not self._pump_scheduled:
            self._schedule_pump()

    # -------------------------------------------------------- completion
    def _complete(self, op: Op) -> None:
        op.completed_at = self.sim.now
        self._retire()
        if self._fence is not None:
            self._try_fence()
        if not self._pump_scheduled:
            self._schedule_pump()

    def _retire(self) -> None:
        while self._window and self._window[0].completed_at is not None:
            op = self._window.popleft()
            op.retired_at = self.sim.now
            self.ops_retired.value += 1
            if op.on_retire is not None:
                op.on_retire(op, self.sim.now)
        self._maybe_finish()

    def _try_fence(self) -> None:
        """Complete the fence once all older work has drained."""
        fence = self._fence
        if fence is None or fence.completed_at is not None:
            return
        older_done = all(o.completed_at is not None
                         for o in self._window if o is not fence)
        if older_done and self._sb_used == 0:
            done = self.sim.now + params.MFENCE_CYCLES

            def _fence_done() -> None:
                if fence.completed_at is None:
                    fence.completed_at = self.sim.now
                    self._fence = None
                    self._retire()
                    if not self._pump_scheduled:
                        self._schedule_pump()

            self.sim.schedule_at(done, _fence_done, label="mfence-done")

    def _sb_free(self) -> None:
        self._sb_used -= 1
        if self._fence is not None:
            self._try_fence()
        if not self._pump_scheduled:
            self._schedule_pump()

    def _maybe_finish(self) -> None:
        if self.idle and self._on_finish is not None:
            callback = self._on_finish
            self._on_finish = None
            callback(self.sim.now)

    # -------------------------------------------------------- accounting
    def _mem_begin(self) -> None:
        if self._outstanding_mem == 0:
            self._mem_busy_since = self.sim.now
        self._outstanding_mem += 1

    def _mem_end(self) -> None:
        self._outstanding_mem -= 1
        if self._outstanding_mem == 0 and self._mem_busy_since is not None:
            self.mem_miss_cycles.inc(self.sim.now - self._mem_busy_since)
            self._mem_busy_since = None

    def _note_stall(self) -> None:
        if self._stall_since is None and self._outstanding_mem > 0:
            self._stall_since = self.sim.now

    def _clear_stall(self) -> None:
        if self._stall_since is not None:
            self.stall_cycles.inc(self.sim.now - self._stall_since)
            self._stall_since = None
