"""The benchmark's workloads, built from the seed and checked byte for byte.

Each workload builds its own machines, buffer contents, pointer chains
and programs through the public library surface (``System``,
``make_engine``, ``repro.isa.ops``) rather than the ``run_*`` figure
helpers, which hide the ``System`` and so cannot time set-up apart from
the run or check the bytes.  A workload is a list of
:class:`Simulation` objects; the runner times each one's
``run_programs`` .. ``drain`` span and then calls :meth:`Simulation.verify`.

Why these four (each follows one of the paper's exhibits):

* ``seq-copy-read`` -- Fig. 12: the headline eager-vs-lazy pair and the
  costliest point type of the quick-scale reproduction.  Eager drives
  the core issue path, the caches and ``System.read_memory``; mclazy
  drives CTT inserts, double bounces and the prefetcher.
* ``chase-lazy`` -- Fig. 13: a pointer chase at ~0.03 events per
  simulated cycle, so the engine's idle-cycle advance and the blocking
  miss path dominate, not issue width.  Its chain build is the one large
  set-up cost.
* ``lazy-writes`` -- Fig. 21 plus a two-core copy/store/load/free mix:
  the only workload where BPQ park/drain, CTT trim/split on writes to
  copied destinations, MCFREE and multi-core interconnect and WPQ
  traffic carry the load.
* ``indram-mixed`` -- the Fig. 23 backends (RowClone on the ideal
  layout, mirroring on the hash layout) on the same program shape, with
  the (MC)^2 controller off: in-DRAM row copies, the cache
  clean/invalidate boundary, and the no-change control for CTT/BPQ work.

Known defect kept out of the timed workloads.  ``CacheHierarchy._clean_scan``
clears the dirty bit of a line at every cache level and writes back
the first dirty copy, but leaves an older copy in a lower level valid
and now clean.  When the fresh L1 copy is later evicted (silently,
being clean), reads hit the stale lower copy.  It bites whenever a copy
(MCLAZY, in-DRAM) or a CLWB cleans a source line the program wrote
while that line's lower-level copy is older, and the line is evicted
from L1 and read again afterwards.  A benchmark run must check out
correct, so the two mixed programs above read copy sources only from
lines the program never writes (see :func:`_mixed_steps`).  The
``lazy-writes-dirty-src`` and ``indram-dirty-src`` workloads run the
same programs with stores to copy sources; they fail their checks
until the defect is fixed, and are not part of ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import random
import struct
from fnmatch import fnmatchcase
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro import System, SystemConfig
from repro.common import params
from repro.common.units import CACHELINE_SIZE, KB, MB
from repro.isa import ops
from repro.workloads.common import engine_needs_ctt, make_engine

CL = CACHELINE_SIZE

#: Figs. 12/13 machine at the quick scale: 32 KB L1, 512 KB L2.
ACCESS = SystemConfig(l1_size=32 * KB, l2_size=512 * KB)
#: Two cores over a 256 KB L2, for the mixed copy/store/load programs.
MIXED = SystemConfig(num_cpus=2, l1_size=32 * KB, l2_size=256 * KB)

#: Fixed workload geometry (the seed changes contents and placement).
SEQ_BYTES = 1 * MB
SEQ_MISALIGN = 16
SEQ_READ_FRACTION = 0.5
CHASE_BYTES = 1 * MB
CHASE_MISALIGN = 16
CHASE_FRACTION = 0.25
SRCWRITE_BYTES = 256 * KB
SRCWRITE_BPQ = 8
MIXED_REGION = 512 * KB
MIXED_STEPS = 480
INDRAM_STEPS = 160


class SetupClock:
    """Host seconds spent in named set-up phases (fill, chain)."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {"fill": 0.0, "chain": 0.0}

    def timed(self, phase: str, fn: Callable, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.phases[phase] += perf_counter() - start


class Simulation:
    """One simulated machine, its programs and the checks on its output."""

    def __init__(self, workload: str, name: str, backend: str,
                 config: SystemConfig) -> None:
        if not engine_needs_ctt(backend) and config.mcsquare_enabled:
            config = config.with_overrides(mcsquare_enabled=False)
        self.workload = workload
        self.name = name
        self.backend = backend
        self.system = System(config)
        self.engine = make_engine(backend, self.system)
        self.programs: Dict[int, object] = {}
        # (address, expected bytes, defined-byte mask or None)
        self.expected: List[Tuple[int, bytes, Optional[bytes]]] = []
        self.planned_loads = 0
        self.attempted = 0
        self.failures: List[Tuple[str, int]] = []
        self.finish_cycle = 0
        self._hash = hashlib.sha256()

    # ------------------------------------------------------------ checks
    def check_load(self, addr: int, value, expected: bytes,
                   mask: Optional[bytes] = None) -> None:
        """One blocking load compared with the byte shadow."""
        self.attempted += 1
        value = bytes(value or b"")
        self._hash.update(value)
        if not _matches(value, expected, mask):
            self.failures.append(("load", addr - addr % CL))

    def run(self) -> None:
        """``run_programs`` then ``drain``: the span the runner times."""
        self.finish_cycle = self.system.run_programs(self.programs)
        self.system.drain()

    def verify(self) -> None:
        """Check every expected destination line after the drain."""
        for base, want, mask in self.expected:
            got = self.system.read_memory(base, len(want))
            for off in range(0, len(want), CL):
                self.attempted += 1
                end = off + CL
                if got[off:end] != want[off:end] and not _matches(
                        got[off:end], want[off:end],
                        None if mask is None else mask[off:end]):
                    self.failures.append(("line", base + off))

    def digest(self) -> str:
        """Simulated cycles + flattened StatGroup tree + loaded values."""
        flat = self.system.stats.flatten()
        h = self._hash.copy()
        h.update(repr((self.finish_cycle, self.system.sim.now,
                       sorted(flat.items()))).encode())
        return h.hexdigest()

    def counts(self) -> Dict[str, float]:
        """Simulated counts the per-layer report needs (exact, repeatable)."""
        flat = self.system.stats.flatten()

        def total(*patterns: str) -> float:
            return sum(v for k, v in flat.items()
                       if any(fnmatchcase(k, p) for p in patterns))

        cores_used = sum(1 for k, v in flat.items()
                         if fnmatchcase(k, "core*.ops_retired") and v > 0)
        return {
            "cycles": self.system.sim.now,
            "finish_cycle": self.finish_cycle,
            "core_cycles": self.finish_cycle * cores_used,
            "channel_cycles": self.system.sim.now * len(
                self.system.controllers),
            "events": self.system.sim.events_fired,
            "ops_retired": total("core*.ops_retired"),
            "stall_cycles": total("core*.stall_cycles"),
            "l1_hits": total("caches.l1_*.hits"),
            "l1_misses": total("caches.l1_*.misses"),
            "l2_hits": total("caches.l2.hits"),
            "l2_misses": total("caches.l2.misses"),
            "prefetch_fills": total("caches.prefetch_fills"),
            "prefetch_useful": total("caches.prefetch_useful"),
            "clwbs": total("caches.clwbs"),
            "writebacks": total("caches.writebacks"),
            "packets": total("xbar.packets"),
            "wpq_rejects": total("mc*.wpq_rejects"),
            "ctt_inserts": total("ctt.inserts"),
            "bounces": total("mc*.bounces"),
            "double_bounces": total("mc*.double_bounces"),
            "bpq_parked": total("mc*.bpq.parked"),
            "bpq_full_stalls": total("mc*.bpq.full_stalls"),
            "ctt_full_stalls": total("mc*.ctt_full_stalls"),
            "dram_accesses": total("mc*.dram.accesses"),
            "row_hits": total("mc*.dram.row_hits"),
            "row_total": total("mc*.dram.row_hits", "mc*.dram.row_misses",
                               "mc*.dram.row_conflicts"),
            "bus_busy_cycles": total("mc*.dram.bus_busy_cycles"),
            "row_copy_lines": total("mc*.dram.row_copy_lines"),
            "copies": total("copyengine.*.copies"),
            "copy_bytes": total("copyengine.*.bytes_requested"),
            "fallback_bytes": total("copyengine.*.fallback_bytes"),
        }


def _matches(got: bytes, want: bytes, mask: Optional[bytes]) -> bool:
    """Equal on every byte the program defined (mask byte nonzero)."""
    if got == want:
        return True
    if mask is None or len(got) != len(want):
        return False
    return all(g == w for g, w, m in zip(got, want, mask) if m)


# ------------------------------------------------------------ workloads
def seq_copy_read(rng: random.Random, clock: SetupClock) -> List[Simulation]:
    """Fig. 12 pair: 1 MB misaligned copy, stream-read half the copy."""
    data = rng.randbytes(SEQ_BYTES)
    sims = []
    for backend in ("eager", "mclazy"):
        sim = Simulation("seq-copy-read", backend, backend, ACCESS)
        system, engine = sim.system, sim.engine
        src = system.alloc(SEQ_BYTES + 4096, align=4096) + SEQ_MISALIGN
        dst = system.alloc(SEQ_BYTES + 4096, align=4096)
        clock.timed("fill", system.backing.write, src, data)

        def program(engine=engine, dst=dst, src=src):
            yield from engine.copy_ops(dst, src, SEQ_BYTES)
            end = dst + int(SEQ_BYTES * SEQ_READ_FRACTION)
            for pos in range(dst, end, CL):
                yield from engine.read_ops(pos, 8)
                yield ops.compute(1)     # accumulate into a local

        sim.programs[0] = program()
        sim.expected.append((dst, data, None))
        sims.append(sim)
    return sims


def _chain(rng: random.Random, count: int) -> Tuple[List[int], bytes]:
    """A seeded cyclic permutation: element ``i`` holds the next index."""
    order = list(range(count))
    rng.shuffle(order)
    payload = bytearray(count * 8)
    pack = struct.Struct("<Q").pack_into
    for i in range(count):
        pack(payload, order[i] * 8, order[(i + 1) % count])
    return order, bytes(payload)


def chase_lazy(rng: random.Random, clock: SetupClock) -> List[Simulation]:
    """Fig. 13 mclazy pointer chase over a 1 MB misaligned copy."""
    sim = Simulation("chase-lazy", "mclazy", "mclazy", ACCESS)
    system, engine = sim.system, sim.engine
    count = CHASE_BYTES // 8
    src = system.alloc(CHASE_BYTES + 4096, align=4096) + CHASE_MISALIGN
    dst = system.alloc(CHASE_BYTES + 4096, align=4096)
    order, payload = clock.timed("chain", _chain, rng, count)
    clock.timed("fill", system.backing.write, src, payload)
    visits = int(count * CHASE_FRACTION)
    sim.planned_loads = visits

    def program():
        yield from engine.copy_ops(dst, src, CHASE_BYTES)
        for i in range(visits):
            # Blocking load: the program waits for each value, as a
            # chase whose next address it holds must.
            addr = dst + order[i] * 8
            value = None
            for op in engine.read_ops(addr, 8, blocking=True):
                value = yield op
            sim.check_load(addr, value, payload[order[i] * 8:
                                                order[i] * 8 + 8])

    sim.programs[0] = program()
    sim.expected.append((dst, payload, None))
    return [sim]


def _source_write(rng: random.Random, clock: SetupClock) -> Simulation:
    """Fig. 21 point: lazy copy, overwrite + CLWB every source line, fence."""
    sim = Simulation("lazy-writes", "srcwrite", "mclazy",
                     SystemConfig(bpq_entries=SRCWRITE_BPQ))
    system, engine = sim.system, sim.engine
    src = system.alloc(SRCWRITE_BYTES, align=4096)
    dst = system.alloc(SRCWRITE_BYTES, align=4096)
    before = rng.randbytes(SRCWRITE_BYTES)
    after = rng.randbytes(SRCWRITE_BYTES)
    clock.timed("fill", system.backing.write, src, before)

    def program():
        yield from engine.copy_ops(dst, src, SRCWRITE_BYTES)
        for off in range(0, SRCWRITE_BYTES, CL):
            yield from engine.write_ops(src + off, CL,
                                        data=after[off:off + CL])
        for off in range(0, SRCWRITE_BYTES, CL):
            yield ops.clwb(src + off)
        yield ops.mfence()

    sim.programs[0] = program()
    sim.expected.append((dst, before, None))
    sim.expected.append((src, after, None))
    return sim


def _disjoint(rng: random.Random, region: int, size: int, skew: int,
              grain: int) -> Tuple[int, int]:
    """Non-overlapping (dst, src) offsets; ``src`` shifted by ``skew``."""
    while True:
        dst = rng.randrange((region - size) // grain + 1) * grain
        src = rng.randrange((region - size - skew) // grain + 1) * grain
        src += skew
        if src + size <= dst or dst + size <= src:
            return dst, src


def _split(rng: random.Random, region: int, size: int, skew: int,
           grain: int) -> Tuple[int, int]:
    """(dst, src) offsets: ``src`` in the lower half, ``dst`` in the upper."""
    half = region // 2
    src = rng.randrange((half - size - skew) // grain + 1) * grain + skew
    dst = half + rng.randrange((half - size) // grain + 1) * grain
    return dst, src


def _mixed_steps(rng: random.Random, region: int, steps: int,
                 geometry: Callable[[int], Tuple[int, int, int]],
                 frees: bool, clean_sources: bool) -> List[tuple]:
    """A seeded copy/store/load(/free) program with a fixed step mix.

    The backend oracle's mix (three copies to one store to one load),
    plus frees when asked.  Counts of each kind are fixed and only the
    order and placement come from the seed, so every seed does about
    the same work.  ``geometry(n)`` gives copy ``n``'s size, source
    skew and placement grain.  Every other load reads a recent copy's
    destination.

    With ``clean_sources`` copies read the lower half of the region and
    write the upper half, and stores land only in the upper half
    (alternately in a recent copy's destination, a write the copy
    mechanism must order after the copy, and at a uniform address).  So
    no copy reads a line the program has written, and the stale-copy
    defect described in the module docstring cannot occur.  Without it
    copies go anywhere and stores rotate between the source of the next
    copy (a dirty source the copy must flush first), the source of a
    recent copy and a uniform address: the defect's trigger.
    """
    per = steps // (6 if frees else 5)
    kinds = (["copy"] * (3 * per) + ["store"] * per + ["load"] * per
             + (["free"] * per if frees else []))
    rng.shuffle(kinds)
    kinds.remove("copy")
    kinds.insert(0, "copy")
    place = _split if clean_sources else _disjoint
    copies = []
    for n in range(3 * per):
        size, skew, grain = geometry(n)
        copies.append(place(rng, region, size, skew, grain) + (size,))
    out: List[tuple] = []
    tally = {"copy": 0, "store": 0, "load": 0}
    live: List[Tuple[int, int]] = []          # frees' candidates
    for kind in kinds:
        if kind == "free" and not live:
            kind = "load"
        done = tally["copy"]
        if kind == "copy":
            dst, src, size = copies[done]
            out.append(("copy", dst, src, size))
            live.append((dst, size))
        elif kind == "free":
            dst, size = live.pop(rng.randrange(len(live)))
            out.append(("free", dst, size))
        else:
            turn = tally[kind] % (3 if kind == "store" and
                                  not clean_sources else 2)
            addr = rng.randrange(region - 8)
            if kind == "store" and clean_sources:
                half = region // 2
                addr = half + rng.randrange(half - 8)
                if turn == 0:
                    dst, _s, size = copies[
                        max(0, done - 1 - rng.randrange(8))]
                    addr = dst + rng.randrange(max(1, size - 7))
            elif kind == "store" and turn == 0 and done < len(copies):
                _d, src, size = copies[done]
                addr = src + rng.randrange(max(1, size - 7))
            elif turn == 1:
                dst, src, size = copies[max(0, done - 1 - rng.randrange(8))]
                addr = (src if kind == "store" else dst) + rng.randrange(
                    max(1, size - 7))
            out.append(("store", addr, rng.randbytes(8)) if kind == "store"
                       else ("load", addr))
        if kind in tally:
            tally[kind] += 1
    return out


def _mixed_program(sim: Simulation, core: int, base: int, init: bytes,
                   steps: List[tuple]) -> None:
    """Run ``steps`` on a shadow to get the expected bytes; build the
    program that replays them on ``core``."""
    shadow = bytearray(init)
    defined = bytearray(b"\x01") * len(init)
    plan: List[tuple] = []
    for step in steps:
        kind = step[0]
        if kind == "copy":
            _k, dst, src, size = step
            shadow[dst:dst + size] = shadow[src:src + size]
            defined[dst:dst + size] = defined[src:src + size]
            plan.append(step)
        elif kind == "store":
            _k, addr, data = step
            shadow[addr:addr + 8] = data
            defined[addr:addr + 8] = b"\x01" * 8
            plan.append(step)
        elif kind == "free":
            _k, addr, size = step
            defined[addr:addr + size] = bytes(size)   # contents now dead
            plan.append(step)
        else:
            _k, addr = step
            plan.append(("load", addr, bytes(shadow[addr:addr + 8]),
                         bytes(defined[addr:addr + 8])))
            sim.planned_loads += 1
    engine = sim.engine

    def program():
        for step in plan:
            kind = step[0]
            if kind == "copy":
                _k, dst, src, size = step
                yield from engine.copy_ops(base + dst, base + src, size)
                yield ops.mfence()
            elif kind == "store":
                _k, addr, data = step
                yield from engine.write_ops(base + addr, 8, data=data)
            elif kind == "free":
                _k, addr, size = step
                yield from engine.free_ops(base + addr, size)
            else:
                _k, addr, want, mask = step
                value = None
                for op in engine.read_ops(base + addr, 8, blocking=True):
                    value = yield op
                sim.check_load(base + addr, value, want, mask)
        yield ops.mfence()

    sim.programs[core] = program()
    sim.expected.append((base, bytes(shadow), bytes(defined)))


def _two_core_sim(rng: random.Random, clock: SetupClock, workload: str,
                  name: str, backend: str, config: SystemConfig,
                  steps: int, geometry, frees: bool,
                  clean_sources: bool) -> Simulation:
    sim = Simulation(workload, name, backend, config)
    row_pair = params.DRAM_ROW_BYTES * config.dram_channels
    for core in range(2):
        base = sim.system.alloc(MIXED_REGION, align=row_pair)
        init = rng.randbytes(MIXED_REGION)
        clock.timed("fill", sim.system.backing.write, base, init)
        program = _mixed_steps(rng, MIXED_REGION, steps, geometry, frees,
                               clean_sources)
        _mixed_program(sim, core, base, init, program)
    return sim


def _lazy_geometry(n: int) -> Tuple[int, int, int]:
    """Backend-oracle copies: 1..60 lines, one in five skewed by a line
    and one in five by 8 bytes (double bounces)."""
    return (n * 7 % 60 + 1) * CL, (0, 0, 0, CL, 8)[n % 5], CL


def lazy_writes(rng: random.Random, clock: SetupClock,
                workload: str = "lazy-writes",
                clean_sources: bool = True) -> List[Simulation]:
    """Fig. 21 source overwrite, then a two-core copy/store/load/free mix."""
    return [_source_write(rng, clock),
            _two_core_sim(rng, clock, workload, "mixed", "mclazy", MIXED,
                          MIXED_STEPS, _lazy_geometry, True, clean_sources)]


def _indram_geometry(channels: int):
    row_pair = params.DRAM_ROW_BYTES * channels

    def geometry(n: int) -> Tuple[int, int, int]:
        if n % 2 == 0:
            # Row-aligned and channel-congruent: runs in DRAM.
            return (2 * KB, 4 * KB, 8 * KB, 16 * KB)[n // 2 % 4], 0, row_pair
        # Skewed: a source one line off pairs lines across channels, one
        # 8 bytes off is line-incongruent; both fall back to the eager loop.
        return ((n * 7 % 32 + 1) * CL, 8 if n % 4 == 1 else CL,
                channels * CL)
    return geometry


def indram_mixed(rng: random.Random, clock: SetupClock,
                 workload: str = "indram-mixed",
                 clean_sources: bool = True) -> List[Simulation]:
    """The same two-core program shape under RowClone and mirroring."""
    sims = []
    for backend, layout in (("rowclone", "ideal"), ("mirror", "hash")):
        config = MIXED.with_overrides(mcsquare_enabled=False,
                                      inmem_layout=layout)
        sims.append(_two_core_sim(
            rng, clock, workload, f"{backend}-{layout}", backend, config,
            INDRAM_STEPS, _indram_geometry(config.dram_channels), False,
            clean_sources))
    return sims


WORKLOADS: Dict[str, Callable[[random.Random, SetupClock],
                              List[Simulation]]] = {
    "seq-copy-read": seq_copy_read,
    "chase-lazy": chase_lazy,
    "lazy-writes": lazy_writes,
    "indram-mixed": indram_mixed,
    # Reproducers of the stale-copy defect; not timed by BENCHMARK.json.
    "lazy-writes-dirty-src": partial(
        lazy_writes, workload="lazy-writes-dirty-src", clean_sources=False),
    "indram-dirty-src": partial(
        indram_mixed, workload="indram-dirty-src", clean_sources=False),
}


def build(workload: str, seed: int, clock: SetupClock) -> List[Simulation]:
    """Every simulation of ``workload``, its inputs made from ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), clock)
