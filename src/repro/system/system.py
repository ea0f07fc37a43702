"""Top-level simulated machine.

``System`` wires cores → cache hierarchy → interconnect → memory
controllers → DRAM + backing store, per a :class:`SystemConfig`.  It is
the main entry point of the library::

    from repro import System, SystemConfig
    sys = System(SystemConfig())
    sys.run_programs({0: my_program()})
    print(sys.sim.now, "cycles")

Workloads obtain physical buffers from the bump allocator (or go through
the OS layer in :mod:`repro.os` for virtual memory), hand the cores
programs (op generators), and read results from the stats tree and the
byte-accurate backing store.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.common import params
from repro.common.errors import SimulationError
from repro.common.units import CACHELINE_SIZE, align_up
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.core import Core, Program
from repro.dram.address_map import AddressMap
from repro.mem.backing_store import BackingStore
from repro.memctrl.controller import MemoryController
from repro.mcsquare.controller import McSquareController
from repro.mcsquare.ctt import CopyTrackingTable
from repro.faults.watchdog import Watchdog
from repro.interconnect.bus import Interconnect
from repro.obs.runtime import attach_if_configured
from repro.sim.engine import Simulator
from repro.sim.shard import shared
from repro.sim.stats import StatGroup
from repro.system.config import SystemConfig


@shared
class System:
    """A complete simulated machine built from a :class:`SystemConfig`."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.config.validate()
        self.sim = Simulator()
        self.stats = StatGroup("system")
        self.backing = BackingStore(self.config.dram_size)
        self.address_map = AddressMap(
            channels=self.config.dram_channels,
            banks_per_channel=params.DRAM_BANKS_PER_CHANNEL,
            row_bytes=params.DRAM_ROW_BYTES,
        )

        self.ctt: Optional[CopyTrackingTable] = None
        self.controllers: List[MemoryController] = []
        # Copy backends are built lazily by copy_backend(): most runs
        # use one, and construction must come after the machine exists.
        self._copy_backends: Dict[str, object] = {}
        if self.config.mcsquare_enabled:
            self.ctt = CopyTrackingTable(self.config.ctt_entries,
                                         self.stats.group("ctt"),
                                         clock=self._now)
            for ch in range(self.config.dram_channels):
                self.controllers.append(McSquareController(
                    self.sim, ch, self.address_map, self.backing,
                    self.stats.group(f"mc{ch}"), self.ctt,
                    bpq_entries=self.config.bpq_entries,
                    copy_threshold=self.config.copy_threshold,
                    parallel_frees=self.config.parallel_frees,
                    bounce_writeback=self.config.bounce_writeback,
                    eager_async_copies=self.config.eager_async_copies,
                    ctt_retry_cycles=self.config.ctt_retry_cycles,
                    ctt_retry_limit=self.config.ctt_retry_limit,
                    bpq_overflow_timeout=self.config.bpq_overflow_timeout,
                    inmem_layout=self.config.inmem_layout,
                    inmem_subarray_rows=self.config.inmem_subarray_rows,
                ))
            for mc in self.controllers:
                mc.peers = [m for m in self.controllers if m is not mc]
        else:
            for ch in range(self.config.dram_channels):
                self.controllers.append(MemoryController(
                    self.sim, ch, self.address_map, self.backing,
                    self.stats.group(f"mc{ch}"),
                    inmem_layout=self.config.inmem_layout,
                    inmem_subarray_rows=self.config.inmem_subarray_rows,
                ))

        self.interconnect = Interconnect(self.sim, self.controllers,
                                         self.stats.group("xbar"))
        self.hierarchy = CacheHierarchy(
            self.sim, self.config.num_cpus, self.interconnect.send,
            self.stats.group("caches"),
            l1_size=self.config.l1_size, l1_assoc=self.config.l1_assoc,
            l2_size=self.config.l2_size, l2_assoc=self.config.l2_assoc,
            prefetch_enabled=self.config.prefetch_enabled,
        )
        self.cores = [Core(self.sim, i, self.hierarchy,
                           self.stats.group(f"core{i}"))
                      for i in range(self.config.num_cpus)]

        # Simple bump allocator over physical memory; skip the first page
        # so address 0 stays unmapped (catches stray null derefs).
        self._alloc_cursor = 4096

        # repro.obs: when tracing is configured for this process (via
        # runtime.configure / the REPRO_TRACE env handled by the perf
        # runner), every System built gets a tracer; otherwise None and
        # the simulation carries zero instrumentation overhead.
        self.tracer = attach_if_configured(self)

    def _now(self) -> int:
        """Current simulation cycle (CTT copy-lifetime clock)."""
        return self.sim.now

    # ------------------------------------------------------- copy backend
    def copy_backend(self, name: Optional[str] = None, **overrides):
        """The copy backend this machine is configured for.

        ``name`` defaults to ``config.copy_backend``; backends are
        cached per canonical name so repeated calls share tracking
        state (zio's elision map, stats).  Passing ``overrides`` builds
        a fresh, uncached instance.
        """
        from repro.copyengine import canonical_name, make_backend
        backend = canonical_name(name or self.config.copy_backend)
        if overrides:
            return make_backend(backend, self, **overrides)
        if backend not in self._copy_backends:
            self._copy_backends[backend] = make_backend(backend, self)
        return self._copy_backends[backend]

    # --------------------------------------------------------- allocation
    def alloc(self, size: int, align: int = CACHELINE_SIZE) -> int:
        """Carve ``size`` bytes of physical memory; returns the address."""
        addr = align_up(self._alloc_cursor, align)
        if addr + size > self.config.dram_size:
            raise SimulationError("physical memory exhausted")
        self._alloc_cursor = addr + size
        return addr

    # ----------------------------------------------------------- running
    def run_programs(self, programs: Dict[int, Program],
                     max_cycles: Optional[int] = None) -> int:
        """Run one program per given core id until all complete.

        Returns the cycle at which the *last* core finished.
        """
        finished: Dict[int, int] = {}
        for core_id, program in programs.items():
            self.cores[core_id].run_program(
                program, on_finish=lambda t, c=core_id: finished.__setitem__(c, t))
        self.sim.run(until=max_cycles)
        missing = set(programs) - set(finished)
        if missing:
            raise SimulationError(
                f"cores {sorted(missing)} did not finish "
                f"(deadlock or max_cycles too small)")
        return max(finished.values())

    def run_program(self, program: Program, core: int = 0,
                    max_cycles: Optional[int] = None) -> int:
        """Run a single program on ``core``; returns the finish cycle."""
        return self.run_programs({core: program}, max_cycles=max_cycles)

    def drain(self) -> int:
        """Run the event queue dry (background copies, WPQ drains)."""
        return self.sim.run()

    # --------------------------------------------------------- inspection
    def read_memory(self, addr: int, size: int) -> bytes:
        """Architecturally visible bytes at ``addr``.

        Composes, newest first: pending store-buffer data (stores that
        have issued but not yet drained into a cache), then cached dirty
        data, then parked BPQ writes, then the backing store with
        unresolved prospective copies overlaid — i.e. what a coherent
        reader at this instant would observe.
        """
        out = bytearray()
        pos = addr
        end = addr + size
        while pos < end:
            line_start = pos - (pos % CACHELINE_SIZE)
            take = min(CACHELINE_SIZE - (pos - line_start), end - pos)
            cached = self.hierarchy.read_functional(pos, take)
            if cached is not None:
                out.extend(cached)
            else:
                parked = self._parked_line(line_start)
                if parked is not None:
                    off = pos - line_start
                    out.extend(parked[off:off + take])
                else:
                    out.extend(self._mcsquare_read(pos, take))
            pos += take
        # Overlay not-yet-drained stores (program order within each core).
        for core in self.cores:
            core.overlay_pending_stores(addr, size, out)
        return bytes(out)

    def _parked_line(self, line_addr: int) -> Optional[bytes]:
        for mc in self.controllers:
            bpq = getattr(mc, "bpq", None)
            if bpq is not None:
                entry = bpq.get(line_addr)
                if entry is not None:
                    return bytes(entry.data)
        return None

    def _mcsquare_read(self, addr: int, size: int) -> bytes:
        """Backing-store read honouring unresolved prospective copies."""
        if self.ctt is None:
            return self.backing.read(addr, size)
        out = bytearray(self.backing.read(addr, size))
        # Overlay tracked destinations with their (current) source bytes.
        for entry in self.ctt.dest_overlaps(addr, size):
            lo = max(entry.dst, addr)
            hi = min(entry.dst_end, addr + size)
            if lo < hi:
                src = entry.src_for_dst(lo)
                out[lo - addr:hi - addr] = self.backing.read(src, hi - lo)
        return bytes(out)

    def total_dram_accesses(self) -> int:
        """Demand + background DRAM device accesses across channels."""
        return int(sum(mc.channel.stats.counters["accesses"].value
                       for mc in self.controllers))

    def poisoned_lines(self) -> set:
        """Line addresses an architectural read could observe as poisoned.

        The union of: lines poisoned in memory, cached copies filled from
        poisoned data, parked BPQ writes carrying poison, and tracked
        (not-yet-materialized) destinations whose source bytes are
        poisoned — i.e. everywhere a detected-uncorrectable error has
        propagated.  Empty on a healthy machine.
        """
        lines: set = set(self.backing.poisoned_lines)
        lines |= self.hierarchy.poisoned_lines
        for mc in self.controllers:
            bpq = getattr(mc, "bpq", None)
            if bpq is not None:
                for entry in bpq.entries():
                    if entry.poisoned:
                        lines.add(entry.line)
        if self.ctt is not None:
            for entry in self.ctt.entries:
                line = entry.dst
                while line < entry.dst_end:
                    if self.backing.range_poisoned(
                            entry.src_for_dst(line), CACHELINE_SIZE):
                        lines.add(line)
                    line += CACHELINE_SIZE
        return lines

    def snapshot(self) -> Dict[str, object]:
        """Flat dict of machine state for watchdog post-mortems.

        Cheap to build (counters and queue depths only, no byte dumps);
        the watchdog calls it once, when a livelock is detected.
        """
        snap: Dict[str, object] = {
            "cycle": self.sim.now,
            "events_fired": self.sim.events_fired,
            "events_pending": self.sim.pending,
            "queue_labels": self.sim.queue_labels(limit=8),
        }
        if self.ctt is not None:
            snap["ctt_entries"] = len(self.ctt)
            snap["ctt_occupancy"] = round(self.ctt.occupancy, 3)
            snap["ctt_tracked_bytes"] = self.ctt.tracked_bytes()
        for mc in self.controllers:
            prefix = f"mc{mc.channel_id}"
            snap[f"{prefix}_wpq"] = mc.wpq_occupancy
            bpq = getattr(mc, "bpq", None)
            if bpq is not None:
                snap[f"{prefix}_bpq"] = len(bpq)
                snap[f"{prefix}_bpq_overflow"] = len(mc._bpq_overflow)
                snap[f"{prefix}_ctt_full_stalls"] = \
                    int(mc._ctt_full_stalls.value)
        snap["poisoned_lines"] = len(self.poisoned_lines())
        return snap

    def attach_watchdog(
        self,
        check_every: int = params.WATCHDOG_CHECK_EVERY_EVENTS,
        stall_checks: int = params.WATCHDOG_STALL_CHECKS,
        cycle_deadline: Optional[int] = None,
    ) -> Watchdog:
        """Arm the simulator's livelock watchdog with System post-mortems.

        ``cycle_deadline`` additionally bounds total simulated time: a
        run whose clock passes it raises
        :class:`~repro.common.errors.DeadlineError` (see
        :func:`repro.resilience.deadline.cycle_budget` for the
        ``REPRO_CYCLE_DEADLINE``-derived value).
        """
        watchdog = Watchdog(snapshot_fn=self.snapshot,
                            check_every=check_every,
                            stall_checks=stall_checks,
                            cycle_deadline=cycle_deadline)
        self.sim.watchdog = watchdog
        return watchdog
