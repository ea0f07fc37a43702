"""Results golden: simulated results that no host-speed change may move.

``tests/goldens/results.json`` holds, for a handful of small exhibit
points, everything a simulation decides: the result-table row its
helper returns, each ``run_programs`` finish cycle, the final
``sim.now``, the full flattened StatGroup tree and a sha256 of the
architecturally visible memory over every allocated byte.  A change
that only makes the simulator faster (fewer events, cheaper lookups)
must leave this file untouched; the trace golden, by contrast, records
events and may move with such a change.

The points: Fig. 12 sequential access (memcpy and (MC)^2), the Fig. 13
pointer chase, one Fig. 21 BPQ point, the Fig. 23 smoke rows (mclazy
and rowclone at 4 KB and 64 KB) and a two-core copy/store/load program.

Regenerate deliberately (and explain the diff) with::

    PYTHONPATH=src python tests/integration/test_results_golden.py --write
"""

import contextlib
import hashlib
import json
import sys
from pathlib import Path

from repro import System, small_system
from repro.common.units import KB
from repro.isa import ops
from repro.workloads.common import make_engine
from repro.workloads.micro import access, crossover, srcwrite

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "results.json"


class _Recording(System):
    """A System that remembers itself and every finish cycle."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finishes = []
        _Recording.made.append(self)

    def run_programs(self, programs, max_cycles=None):
        finish = super().run_programs(programs, max_cycles=max_cycles)
        self.finishes.append(finish)
        return finish


@contextlib.contextmanager
def _recording():
    """Build every helper's machine as a :class:`_Recording`."""
    modules = (access, crossover, srcwrite)
    saved = [module.System for module in modules]
    _Recording.made = []
    for module in modules:
        module.System = _Recording
    try:
        yield _Recording.made
    finally:
        for module, original in zip(modules, saved):
            module.System = original


def _two_core_program():
    """Core 0 lazily copies and re-reads; core 1 stores into and loads
    from its own copy's destination and source."""
    system = _Recording(small_system())
    engine = make_engine("mclazy", system)
    bufs = []
    for core in range(2):
        base = system.alloc(32 * KB, align=16 * KB)
        system.backing.write(base, bytes((i * 37 + core) & 0xFF
                                         for i in range(32 * KB)))
        bufs.append(base)
    loaded = []

    def program(core):
        base = bufs[core]
        yield from engine.copy_ops(base + 16 * KB, base + 8, 8 * KB)
        yield ops.mfence()
        for i in range(0, 8 * KB, 256):
            yield from engine.write_ops(base + 16 * KB + i + core, 8,
                                        data=bytes([core + 1]) * 8)
            yield from engine.write_ops(base + i + 8, 8,
                                        data=bytes([core + 0x41]) * 8)
            value = None
            for op in engine.read_ops(base + 16 * KB + i + 64, 8,
                                      blocking=True):
                value = yield op
            loaded.append(value.hex())
        yield from engine.copy_ops(base + 24 * KB, base + 16 * KB, 2 * KB)
        yield ops.mfence()

    system.run_programs({0: program(0), 1: program(1)})
    system.drain()
    return {"loaded": loaded}


def _points():
    """(name, thunk) for every golden point; each thunk returns its row."""
    from repro.analysis.figures import ACCESS_CONFIG

    return [
        ("fig12-memcpy", lambda: access.run_sequential_access(
            "memcpy", 0.5, buffer_size=256 * KB, config=ACCESS_CONFIG)),
        ("fig12-mcsquare", lambda: access.run_sequential_access(
            "mcsquare", 0.5, buffer_size=256 * KB, config=ACCESS_CONFIG)),
        ("fig13-mcsquare", lambda: access.run_random_access(
            "mcsquare", 0.25, buffer_size=256 * KB, config=ACCESS_CONFIG)),
        ("fig21-256k-bpq4", lambda: srcwrite.run_source_write(256 * KB, 4)),
    ] + [
        (f"fig23-{backend}-{size // KB}k",
         lambda b=backend, s=size: crossover.run_backend_crossover(
             b, s, "subarray", config=ACCESS_CONFIG))
        for backend in ("mclazy", "rowclone") for size in (4 * KB, 64 * KB)
    ] + [("two-core-mix", _two_core_program)]


def _memory_digest(system) -> str:
    start = 4096  # the allocator's first address
    visible = system.read_memory(start, system._alloc_cursor - start)
    return hashlib.sha256(visible).hexdigest()


def compute() -> dict:
    """Run every point; return the golden's content."""
    out = {}
    for name, thunk in _points():
        with _recording() as made:
            row = thunk()
        assert len(made) == 1, f"{name}: expected one machine"
        system = made[0]
        flat = system.stats.flatten()
        out[name] = {
            "row": row,
            "finish_cycles": system.finishes,
            "sim_now": system.sim.now,
            "memory_sha256": _memory_digest(system),
            "stats": {key: flat[key] for key in sorted(flat)},
        }
    return out


def _render(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


def test_results_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(_render(compute()))
    assert sorted(got) == sorted(want)
    problems = []
    for name in sorted(want):
        for field in ("row", "finish_cycles", "sim_now", "memory_sha256"):
            if got[name][field] != want[name][field]:
                problems.append(f"{name}.{field}: {want[name][field]!r} "
                                f"-> {got[name][field]!r}")
        w, g = want[name]["stats"], got[name]["stats"]
        for key in sorted(set(w) | set(g)):
            if w.get(key) != g.get(key):
                problems.append(f"{name}.stats[{key}]: {w.get(key)!r} "
                                f"-> {g.get(key)!r}")
    assert not problems, "results moved:\n" + "\n".join(problems[:40])


def test_golden_rows_are_verified():
    # The crossover rows carry their own functional check.
    want = json.loads(GOLDEN.read_text())
    rows = [point["row"] for name, point in want.items()
            if name.startswith("fig23-")]
    assert rows and all(row["verified"] for row in rows)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_results_golden.py --write")
    GOLDEN.write_text(_render(compute()))
    print(f"wrote {GOLDEN}")
