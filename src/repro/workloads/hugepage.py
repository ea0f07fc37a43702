"""Huge-page copy-on-write fault workload (Fig. 18).

An in-memory database snapshots itself by calling ``fork``: the 64MB
dataset (2MB huge pages) becomes copy-on-write.  The parent then updates
random 8-byte elements; each first touch of a huge page takes a COW
fault whose handler copies 2MB.

* Native kernel: the fault handler performs the full 2MB copy eagerly —
  latency spikes of ~2 orders of magnitude.
* (MC)² kernel: ``copy_user_huge_page`` issues ``MCLAZY`` instead
  (kernel path, 2MB contiguity, no per-line CLWB train because the
  hardware writes back any dirty source lines when the packet traverses
  the caches), so the spike is only the fault bookkeeping.

Per-update latencies are measured RDTSC-style with retirement markers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro import System, SystemConfig
from repro.common.units import HUGE_PAGE_SIZE, MB
from repro.copyengine import canonical_name
from repro.isa import ops
from repro.os.vm import OperatingSystem
from repro.workloads.common import (LatencyRecorder, engine_needs_ctt,
                                    kernel_label, make_engine, rng)

#: ``copy_user_huge_page`` settings per backend: the native kernel
#: streams whole cachelines; the (MC)² kernel issues MCLAZY with 2MB
#: contiguity and lets the hardware write dirty source lines back when
#: the packet traverses the caches.
KERNEL_COPY = {
    "eager": {"bulk_copy": True},
    "mclazy": {"min_lazy": 0, "page_size": HUGE_PAGE_SIZE,
               "clwb_sources": False},
}


class HugePageCowWorkload:
    """fork + random 8B updates over a huge-page-backed region."""

    def __init__(self, engine_name: str, region_size: int = 64 * MB,
                 num_updates: int = 100,
                 config: Optional[SystemConfig] = None, seed: int = 17):
        config = config or SystemConfig()
        if not engine_needs_ctt(engine_name) and config.mcsquare_enabled:
            config = config.with_overrides(mcsquare_enabled=False)
        self.config = config
        self.system = System(config)
        self.os = OperatingSystem(self.system)
        # The COW handler copies whole huge pages through the backend.
        self.engine = make_engine(
            engine_name, self.system,
            **KERNEL_COPY.get(canonical_name(engine_name), {}))
        self.engine_name = kernel_label(engine_name)
        self.region_size = region_size
        self.num_updates = num_updates
        self.seed = seed
        self.latencies = LatencyRecorder()

        self.space = self.os.create_space(page_size=HUGE_PAGE_SIZE)
        self.base = 0x40000000  # virtual base
        self.space.map_region(self.base, region_size)
        # Parent initializes the dataset (prefault), then forks.
        for vpage in range(self.base, self.base + region_size,
                           HUGE_PAGE_SIZE):
            frame = self.space.translate(vpage)
            self.system.backing.fill(frame, HUGE_PAGE_SIZE, 0x33)

    def program(self) -> Iterator[ops.Op]:
        """fork, then the measured random-update loop."""
        child, fork_cost = self.os.fork(self.space)
        yield from fork_cost
        random = rng(self.seed)
        for _ in range(self.num_updates):
            offset = random.randrange(self.region_size // 8) * 8
            yield self.latencies.begin()
            yield from self.os.cow_store_ops(
                self.space, self.base + offset, 8, self.engine,
                data=b"\x77" * 8)
            yield ops.mfence()
            yield self.latencies.end()

    def run(self) -> Dict[str, object]:
        """Execute; returns per-access latencies (cycles) in order."""
        finish = self.system.run_program(self.program())
        self.system.drain()
        samples = list(self.latencies.samples)
        return {
            "engine": self.engine_name,
            "cycles": finish,
            "latencies": samples,
            "max_latency": max(samples),
            "min_latency": min(samples),
            "spike_ratio": max(samples) / max(min(samples), 1),
            "cow_faults": self.os.cow_faults,
        }


def run_hugepage_cow(engine_name: str, region_size: int = 64 * MB,
                     num_updates: int = 100,
                     config: Optional[SystemConfig] = None
                     ) -> Dict[str, object]:
    """One Fig. 18 series."""
    return HugePageCowWorkload(engine_name, region_size=region_size,
                               num_updates=num_updates,
                               config=config).run()
