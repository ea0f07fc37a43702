"""Shared workload utilities: deterministic data, timing markers, results."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.common.units import CACHELINE_SIZE
from repro.copyengine import (CopyBackend, canonical_name, make_backend,
                              needs_ctt)
from repro.isa import ops
from repro.isa.ops import Op


def rng(seed: int = 1234) -> random.Random:
    """A deterministic PRNG; all workloads take explicit seeds."""
    return random.Random(seed)


def fill_pattern(system, addr: int, size: int, seed: int = 7) -> None:
    """Deterministic pseudo-random content (cheap, no RNG per byte)."""
    pattern = bytes((i * 131 + seed * 17) & 0xFF for i in range(256))
    reps = size // 256 + 1
    system.backing.write(addr, (pattern * reps)[:size])


def timestamp(record: Callable[[int], None]) -> Op:
    """A zero-cost marker op whose retirement timestamps program order.

    Because retirement is in order, the marker retires only after every
    older op has completed — a clean region boundary.
    """
    return Op(ops.OpKind.COMPUTE, cycles=0,
              on_retire=lambda op, t: record(t))


class LatencyRecorder:
    """Collects (label, latency) pairs bracketed by marker ops."""

    def __init__(self):
        self.samples: List[int] = []
        self._start: Optional[int] = None

    def begin(self) -> Op:
        """Marker starting a measured region."""
        def _rec(t: int) -> None:
            self._start = t
        return timestamp(_rec)

    def end(self) -> Op:
        """Marker ending a measured region; records the latency."""
        def _rec(t: int) -> None:
            assert self._start is not None, "end() retired before begin()"
            self.samples.append(t - self._start)
            self._start = None
        return timestamp(_rec)


class RegionTracker:
    """Accumulates cycles spent in named program regions (e.g. memcpy)."""

    def __init__(self):
        self.totals: Dict[str, int] = {}
        self._open: Dict[str, int] = {}

    def begin(self, name: str) -> Op:
        def _rec(t: int) -> None:
            self._open[name] = t
        return timestamp(_rec)

    def end(self, name: str) -> Op:
        def _rec(t: int) -> None:
            start = self._open.pop(name)
            self.totals[name] = self.totals.get(name, 0) + (t - start)
        return timestamp(_rec)

    def cycles(self, name: str) -> int:
        """Total cycles attributed to ``name``."""
        return self.totals.get(name, 0)


class NullCopyBackend(CopyBackend):
    """Elides copies entirely and for free.

    Used only to *measure* copy overhead (Fig. 2): runtime(baseline) vs
    runtime(copies removed).  Data correctness is intentionally not
    preserved — destination reads are redirected to the source so access
    patterns stay realistic.  Not registered: it is not a real backend.
    """

    name = "nocopy"

    def __init__(self, system):
        super().__init__(system)
        self._redirect: Dict[int, int] = {}

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        self._outcome("elided")
        self._redirect[dst] = src
        return iter(())

    def read_ops(self, addr: int, size: int = 8, blocking: bool = False,
                 on_retire=None):
        base = self._resolve(addr)
        yield ops.load(base, size, blocking=blocking, on_retire=on_retire)

    def _resolve(self, addr: int) -> int:
        for dst, src in self._redirect.items():
            if dst <= addr < dst + (1 << 24):
                # Coarse redirect: good enough for timing-only use.
                return src + (addr - dst) if addr - dst < (1 << 22) else addr
        return addr


def make_engine(name: str, system, **kwargs) -> CopyBackend:
    """Factory over the :mod:`repro.copyengine` registry.

    Accepts every registered backend name plus the historical aliases
    (``memcpy``/``baseline`` → eager, ``mcsquare``/``mc2``/``lazy`` →
    mclazy) and the measurement-only ``nocopy`` pseudo-engine, which is
    not a real backend (it does not preserve data).
    """
    if name == "nocopy":
        return NullCopyBackend(system)
    return make_backend(name, system, **kwargs)


def engine_needs_ctt(name: str) -> bool:
    """True when ``name`` requires an (MC)²-enabled machine.

    Workload builders use this to flip ``mcsquare_enabled`` off for
    backends that don't use the CTT, so baseline/zio/in-DRAM variants
    run on a vanilla controller exactly as before the backend registry
    existed.
    """
    if name == "nocopy":
        return False
    return needs_ctt(name)


def kernel_label(name: str) -> str:
    """Figure label of a kernel copy path (Figs. 18-19).

    The eager and (MC)² kernels keep the paper's ``native`` /
    ``mcsquare`` labels; every other backend reports its canonical name,
    so aliases of one backend label their results alike.
    """
    backend = canonical_name(name)
    return {"eager": "native", "mclazy": "mcsquare"}.get(backend, backend)
