"""Repo benchmark: host time of the (MC)^2 simulator on four checked workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload seq-copy-read --seed 1 \\
        --seconds 20 --trace 0

One process, one thread, simcache off.  Set-up (building the machines,
buffer contents, chains and programs from ``--seed``) is timed on its
own, several times.  Each repetition then builds the workload afresh,
runs every simulation from ``run_programs`` to the last ``drain``
(timed as run) and checks every blocking load against a byte shadow;
the first repetition also checks every destination line, and later ones
must match its digest.  Repetitions continue until ``--seconds`` have
passed; medians are reported.  Times are scaled by host-speed probes
(see ``PROBES``); raw seconds are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced repetition, wraps every layer entry point with
host-time spans (see ``spans.py``) and prints the per-layer metrics plus
a layer self-time table whose rows and ``trace.unattributed_s`` add up
to the traced run time.  Either way the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full report (environment, calibration, digests, failures) and, when
traced, the spans go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List

#: Settings that change what the simulator does per event.
REFUSED_ENV = ("REPRO_SIMSAN", "REPRO_TIE_ORDER", "REPRO_TRACE",
               "REPRO_WATCH")
#: Back-to-back set-up-only builds before the repetitions; setup_s is
#: their median.  One untimed build before them pays the lazy imports.
SETUP_SAMPLES = 15

#: Host-speed probes.  Reported times are host seconds scaled by the
#: speed of two fixed pure-Python loops, run at the start and end of
#: each timed region and alternately every PROBE_PERIOD_S inside it:
#: an arithmetic loop (interpreter dispatch) and a loop of dict lookups
#: over a table larger than the L2 cache, small-object allocation and
#: closure calls (the simulator's memory-bound mix).  The scale factor
#: is the geometric mean of each probe's speed relative to its
#: reference (PROBES): a host running both at reference speed reports
#: raw seconds unchanged.  A shared machine drifts by tens of percent
#: within minutes and within one long simulation.  On a 2-vCPU host
#: whose raw chase-lazy time spread 17% (IQR/median), scaling by the
#: arithmetic probe alone left 8-9% and by the geometric mean of both,
#: sampled every 0.05 s, 4.5%; sampled every 0.2 s it left 9.6%.  Raw
#: seconds are printed and kept beside.  The probes live here, not in
#: the program, so a change to the program cannot move them.
PROBE_PERIOD_S = 0.05
ARITH_ITERATIONS = 100_000
TABLE_LINES = 20_000
TABLE_OPS = 8_000
_TABLE = {line * 64: bytes(64) for line in range(TABLE_LINES)}


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def _arith_probe() -> None:
    acc = 0
    for i in range(ARITH_ITERATIONS):
        acc += i & 0xFF


def _table_probe() -> None:
    table, head, acc = _TABLE, None, 0
    for i in range(TABLE_OPS):
        key = (i * 7919 % TABLE_LINES) * 64
        head = _Node(key, len(table.get(key)), head)
        acc = (lambda x, k=key: x + (k >> 6))(acc)
    while head is not None:
        acc ^= head.value
        head = head.next


#: (probe, operations per call, reference operations per second)
PROBES = ((_arith_probe, ARITH_ITERATIONS, 25e6),
          (_table_probe, TABLE_OPS, 0.8e6))

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "sim_kops_per_s": "kops/s",
                    "peak_rss_mb": "MB"}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(seed: int) -> Dict[str, object]:
    from repro.perf.microbench import calibrate_ops_per_sec
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "calibration_ops_per_s": statistics.median(
            calibrate_ops_per_sec() for _ in range(3)),
    }


class HostSpeed:
    """Times a region and scales it by the probe speeds measured over it.

    Inside the region the probes run from a SIGALRM handler, between the
    simulator's bytecodes; they touch no simulator state, and their own
    time is taken out of the region's raw seconds.
    """

    def __init__(self) -> None:
        self._armed = False
        self._times: List[List[float]] = [[] for _ in PROBES]
        self._turn = 0
        self._inside_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _probe(self, index: int) -> float:
        start = perf_counter()
        PROBES[index][0]()
        took = perf_counter() - start
        self._times[index].append(took)
        return took

    def _probe_all(self) -> None:
        for index in range(len(PROBES)):
            self._probe(index)

    def _on_alarm(self, _signum, _frame) -> None:
        if self._armed:
            self._turn = (self._turn + 1) % len(PROBES)
            self._inside_s += self._probe(self._turn)

    def measure(self, fn, *args):
        """``(result, raw_s, scaled_s)`` of ``fn(*args)``."""
        self._times = [[] for _ in PROBES]
        self._inside_s = 0.0
        self._probe_all()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
        self._probe_all()
        raw = elapsed - self._inside_s
        speed = statistics.geometric_mean(
            ops / statistics.fmean(times) / reference
            for (_fn, ops, reference), times in zip(PROBES, self._times))
        return result, raw, raw * speed


class Repetition:
    """Build, run and check one copy of a workload.

    Untraced repetitions time each simulation with ``meter``; traced
    ones pass ``recorder`` instead and keep raw seconds, so the probe
    stays out of the spans.  Blocking loads are always checked; the
    final memory only with ``verify``, which can take longer than the
    run (``System.read_memory`` resolves every line through the CTT).
    """

    def __init__(self, workload: str, seed: int, meter=None,
                 recorder=None, verify: bool = True) -> None:
        from workloads import SetupClock, build
        # The last repetition's machines are cyclic garbage: collect them
        # first, so the peak resident size holds one set, not a
        # GC-timing-dependent two.
        gc.collect()
        sims = build(workload, seed, SetupClock())
        gc.collect()
        self.run_s = 0.0      # scaled by the probe when metered, else raw
        self.raw_run_s = 0.0
        self.failures: List[Dict[str, object]] = []
        self.attempted = 0
        self.digests: Dict[str, str] = {}
        self.counts: Dict[str, Dict[str, float]] = {}
        self.check_s = 0.0
        for sim in sims:
            planned = sim.planned_loads + verify * sum(
                len(want) // 64 for _a, want, _m in sim.expected)
            try:
                if meter is not None:
                    _, raw, scaled = meter.measure(sim.run)
                else:
                    recorder.active = True
                    start = perf_counter()
                    sim.run()
                    raw = scaled = perf_counter() - start
            except Exception:  # a model crash fails the sim, not the run
                self._crashed(workload, sim, planned,
                              traceback.format_exc(limit=3))
                continue
            finally:
                if recorder is not None:
                    recorder.active = False
            self.raw_run_s += raw
            self.run_s += scaled
            if verify:
                start = perf_counter()
                sim.verify()
                self.check_s += perf_counter() - start
            self.attempted += sim.attempted
            for kind, line in sim.failures:
                self.failures.append({
                    "workload": workload, "simulation": sim.name,
                    "backend": sim.backend, "kind": kind,
                    "line": hex(line), "count": 1})
            self.digests[sim.name] = sim.digest()
            self.counts[sim.name] = sim.counts()

    def _crashed(self, workload, sim, planned, trace) -> None:
        # Every operation the simulation would have checked fails.
        self.attempted += planned
        self.failures.append({"workload": workload, "simulation": sim.name,
                              "backend": sim.backend, "kind": "raised",
                              "line": None, "count": planned,
                              "error": trace})
        self.digests[sim.name] = "raised"
        self.counts[sim.name] = sim.counts()

    def total(self, key: str) -> float:
        return sum(c[key] for c in self.counts.values())


def _measure(workload: str, seed: int, seconds: float, traced: bool,
             meter: HostSpeed):
    """Repetitions until ``seconds`` have passed (at least one).

    The first untraced and the first traced repetition check the final
    memory; every repetition's digest (cycles, StatGroup tree, loaded
    values) must then equal the first one's, so the later repetitions
    are checked by digest and measure more runs in the time.
    """
    from spans import SpanRecorder, Tracing
    untraced: List[Repetition] = []
    traced_reps: List[Repetition] = []
    recorders: List[SpanRecorder] = []
    start = perf_counter()
    while True:
        untraced.append(Repetition(workload, seed, meter=meter,
                                   verify=not untraced))
        if traced:
            recorder = SpanRecorder()
            tracing = Tracing(recorder)
            tracing.install()
            try:
                traced_reps.append(Repetition(workload, seed,
                                              recorder=recorder,
                                              verify=not traced_reps))
            finally:
                tracing.uninstall()
            recorders.append(recorder)
        if perf_counter() - start >= seconds:
            return untraced, traced_reps, recorders


def _end_to_end(untraced: List[Repetition],
                setups: List[float]) -> Dict[str, float]:
    return {
        "run_s": statistics.median(r.run_s for r in untraced),
        "setup_s": statistics.median(setups),
        "sim_kops_per_s": statistics.median(
            _ratio(r.total("ops_retired"), r.run_s) / 1e3 for r in untraced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(workload: str, untraced: List[Repetition],
               traced: List[Repetition], recorders,
               phases: List[Dict[str, float]]) -> Dict[str, Dict]:
    from spans import LAYERS
    rep = untraced[0]
    c = {key: rep.total(key) for key in next(iter(rep.counts.values()))}
    run_s = statistics.median(r.run_s for r in untraced)
    traced_run_s = statistics.median(r.raw_run_s for r in traced)
    self_s = {layer: statistics.median(
        rec.layer_self_s().get(layer, 0.0) for rec in recorders)
        for layer in LAYERS}
    unattributed = statistics.median(
        r.raw_run_s - sum(rec.layer_self_s().values())
        for r, rec in zip(traced, recorders))
    rec = recorders[-1]
    calls = rec.layer_calls()
    eager_vs_lazy = 0.0
    if workload == "seq-copy-read":
        eager_vs_lazy = _ratio(rep.counts["eager"]["finish_cycle"],
                               rep.counts["mclazy"]["finish_cycle"])
    values = {
        "sim.events": (c["events"], "count"),
        "sim.events_per_cycle": (_ratio(c["events"], c["cycles"]),
                                 "events/cycle"),
        "sim.events_per_s": (_ratio(c["events"], run_s), "1/s"),
        "cpu.ops_retired": (c["ops_retired"], "count"),
        "cpu.stall_frac": (_ratio(c["stall_cycles"], c["core_cycles"]),
                           "ratio"),
        "cache.calls": (calls.get("cache", 0), "count"),
        "cache.l1_hit_ratio": (_ratio(c["l1_hits"],
                                      c["l1_hits"] + c["l1_misses"]),
                               "ratio"),
        "cache.l2_hit_ratio": (_ratio(c["l2_hits"],
                                      c["l2_hits"] + c["l2_misses"]),
                               "ratio"),
        "cache.prefetch_useful_ratio": (_ratio(c["prefetch_useful"],
                                               c["prefetch_fills"]),
                                        "hits/fill"),
        "cache.clwbs": (c["clwbs"], "count"),
        "cache.writebacks": (c["writebacks"], "count"),
        "system.read_memory_calls": (
            rec.calls_named("system.System.read_memory"), "count"),
        "interconnect.packets": (c["packets"], "count"),
        "memctrl.calls": (calls.get("memctrl", 0), "count"),
        "memctrl.wpq_rejects": (c["wpq_rejects"], "count"),
        "mcsquare.calls": (calls.get("mcsquare", 0), "count"),
        "mcsquare.ctt_inserts": (c["ctt_inserts"], "count"),
        "mcsquare.bounces": (c["bounces"], "count"),
        "mcsquare.double_bounce_ratio": (_ratio(c["double_bounces"],
                                                c["bounces"]), "ratio"),
        "mcsquare.bpq_parked": (c["bpq_parked"], "count"),
        "mcsquare.bpq_full_stalls": (c["bpq_full_stalls"], "count"),
        "mcsquare.ctt_full_stalls": (c["ctt_full_stalls"], "count"),
        "dram.decode_calls": (rec.calls_named("dram.AddressMap.decode"),
                              "count"),
        "dram.accesses": (c["dram_accesses"], "count"),
        "dram.row_hit_ratio": (_ratio(c["row_hits"], c["row_total"]),
                               "ratio"),
        "dram.bus_busy_frac": (_ratio(c["bus_busy_cycles"],
                                      c["channel_cycles"]), "ratio"),
        "dram.row_copy_lines": (c["row_copy_lines"], "count"),
        "mem.calls": (calls.get("mem", 0), "count"),
        "copyengine.copies": (c["copies"], "count"),
        "copyengine.fallback_ratio": (_ratio(c["fallback_bytes"],
                                             c["copy_bytes"]), "ratio"),
        "setup.chain_s": (statistics.median(p["chain"] for p in phases),
                          "s"),
        "setup.fill_s": (statistics.median(p["fill"] for p in phases), "s"),
        "trace.overhead_ratio": (_ratio(
            traced_run_s, statistics.median(r.raw_run_s for r in untraced)),
            "ratio"),
        "trace.unattributed_s": (unattributed, "s"),
        "model.cycles": (c["cycles"], "cycles"),
        "model.mclazy_vs_eager": (eager_vs_lazy, "ratio"),
    }
    for layer, seconds in self_s.items():
        values[f"{layer}.self_s"] = (seconds, "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(values.items())}


def _layer_table(workload: str, traced: List[Repetition], recorders) -> str:
    rec = recorders[-1]
    rep = traced[-1]
    by_layer = rec.layer_self_s()
    lines = [f"layer self time, {workload} (last traced repetition)",
             f"  {'layer':<14}{'self_s':>10}{'share':>8}"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14}{seconds:>10.4f}"
                     f"{seconds / rep.raw_run_s:>8.1%}")
    rest = rep.raw_run_s - sum(by_layer.values())
    lines.append(f"  {'unattributed':<14}{rest:>10.4f}"
                 f"{rest / rep.raw_run_s:>8.1%}")
    lines.append(f"  {'traced run_s':<14}{rep.raw_run_s:>10.4f} (raw)")
    return "\n".join(lines)


def _figure12_context() -> List[str]:
    """The Fig. 12 numbers model.mclazy_vs_eager is read against."""
    out = []
    table = ROOT / "results" / "figure12.txt"
    if table.is_file():
        for line in table.read_text().splitlines():
            parts = line.split()
            if parts[:2] == ["0.500", "mcsquare"]:
                out.append(f"  results/figure12.txt 0.5 row: mcsquare "
                           f"{parts[2]} x memcpy (= {1 / float(parts[2]):.3f}"
                           f" eager/mclazy)")
    else:
        out.append("  results/figure12.txt: not generated in this checkout")
    experiments = ROOT / "EXPERIMENTS.md"
    if experiments.is_file():
        text = experiments.read_text()
        section = text[text.find("### Fig. 12"):]
        for line in section.splitlines():
            if "(MC)² worst case" in line:
                out.append(f"  EXPERIMENTS.md Fig. 12 claim: {line.strip()}")
                break
    return out


def main(argv: List[str]) -> int:
    args = _parse(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"perfbench: refusing to time with {', '.join(refused)} set; "
              f"these change the simulator's per-event work. Unset them.",
              file=sys.stderr)
        return 2
    os.environ["REPRO_SIMCACHE"] = "off"
    os.environ["REPRO_JOBS"] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src'}; run from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = _environment(args.seed)
    workloads.build(args.workload, args.seed, workloads.SetupClock())
    meter = HostSpeed()
    setups, raw_setups, phases = [], [], []
    for _ in range(SETUP_SAMPLES):
        clock = workloads.SetupClock()
        gc.collect()
        _, raw, scaled = meter.measure(workloads.build, args.workload,
                                       args.seed, clock)
        raw_setups.append(raw)
        setups.append(scaled)
        phases.append(clock.phases)
    untraced, traced, recorders = _measure(args.workload, args.seed,
                                           args.seconds, bool(args.trace),
                                           meter)

    reps = untraced + traced
    determinism = []
    for rep in reps[1:]:
        for name, digest in rep.digests.items():
            rep.attempted += 1
            if digest != untraced[0].digests.get(name):
                determinism.append({
                    "workload": args.workload, "simulation": name,
                    "backend": None, "kind": "digest", "line": None,
                    "count": 1})
    failures = [f for rep in reps for f in rep.failures] + determinism
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(f["count"] for f in failures)

    e2e = _end_to_end(untraced, setups)
    cal = env["calibration_ops_per_s"]
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} checked operations)")
    raw_run_s = statistics.median(r.raw_run_s for r in untraced)
    print(f"raw host seconds: run {raw_run_s:.6g} s, setup "
          f"{statistics.median(raw_setups):.6g} s (times above are scaled "
          f"to a host running the probes at reference speed); "
          f"calibrate_ops_per_sec {cal:.4g}")
    print(f"env: python {env['python']}, {env['cpu_model']}, "
          f"nproc {env['nproc']}, seed {args.seed}, "
          f"{len(untraced)} untraced / {len(traced)} traced repetitions")
    for name, digest in untraced[0].digests.items():
        counts = untraced[0].counts.get(name, {})
        print(f"sim {args.workload}/{name}: cycles "
              f"{counts.get('cycles', 0)} digest {digest[:16]}")
    first_bad: Dict[str, Dict[str, object]] = {}
    for f in untraced[0].failures:
        first_bad.setdefault(f["simulation"], dict(f, count=0))
        first_bad[f["simulation"]]["count"] += f["count"]
    for name, f in first_bad.items():
        print(f"FAILED {f['workload']}/{name} backend={f['backend']} "
              f"operations={f['count']} first_bad_line={f['line']}")
    for f in determinism:
        print(f"FAILED {f['workload']}/{f['simulation']}: digest differs "
              f"between repetitions of one seed")

    report = {"workload": args.workload, "environment": env,
              "end_to_end": e2e,
              "raw": {"run_s": raw_run_s,
                      "setup_s": statistics.median(raw_setups)},
              "repetitions": [{"run_s": r.run_s, "raw_run_s": r.raw_run_s,
                               "check_s": r.check_s,
                               "traced": i >= len(untraced)}
                              for i, r in enumerate(reps)],
              "setup_samples_s": setups,
              "raw_setup_samples_s": raw_setups,
              "digests": untraced[0].digests,
              "counts": untraced[0].counts,
              "attempted": attempted, "failed": failed,
              # Repetitions of one seed fail identically (the digests
              # say so), so the first one's list stands for all.
              "failures": untraced[0].failures + determinism}
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in e2e.items()}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics = _per_layer(args.workload, untraced, traced, recorders,
                             phases)
        report["per_layer"] = metrics
        print(_layer_table(args.workload, traced, recorders))
        for name in sorted(metrics):
            m = metrics[name]
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        if args.workload == "seq-copy-read":
            print(f"model.mclazy_vs_eager = "
                  f"{metrics['model.mclazy_vs_eager']['value']:.3f} "
                  f"(eager / mclazy program cycles; the model is calibrated "
                  f"to the paper's gem5 runs, not to hardware)")
            for line in _figure12_context():
                print(line)
        recorders[-1].write(str(OUT_DIR / f"spans-{args.workload}.bin"))
    suffix = "traced" if args.trace else "untraced"
    with open(OUT_DIR / f"{args.workload}-{suffix}.json", "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
