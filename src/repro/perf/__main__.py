"""``python -m repro.perf`` — simulator-speed measurement and gating.

Commands:

* ``micro``    — run the engine/fig12/fig13 microbenchmarks, print the
  numbers (events/sec, and simulated cycles/sec for the fig points),
  and record them into ``results/BENCH_sim.json``;
* ``gate``     — re-run the microbenchmarks and fail (exit 1) if the
  machine-normalized events/sec regressed more than ``--tolerance``
  (default 20%) against ``benchmarks/bench-baseline.json``; simulated
  cycles/sec is printed beside it but not gated;
* ``baseline`` — rewrite ``benchmarks/bench-baseline.json`` from a
  fresh measurement (run on an idle machine);
* ``cache``    — ``info`` or ``clear`` the persistent sim-result cache;
* ``resilience`` — inspect supervised-sweep state: ``journals`` lists
  the per-sweep completion journals (with resume status), ``reports``
  prints persisted failure reports, ``info`` summarizes both.

The gate compares *ratios* (events/sec divided by a pure-Python
calibration loop's ops/sec), so one baseline file serves laptops and CI
runners alike.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.perf.cache import SimCache, repo_root

BASELINE_PATH = repo_root() / "benchmarks" / "bench-baseline.json"

#: The machine-normalized metrics the perf gate enforces.
GATED_METRICS = ("engine_per_calibration_op", "fig12_per_calibration_op",
                 "fig13_per_calibration_op")
#: Reported beside the gated metrics, never gated: simulated cycles per
#: host second, which a change that removes events does not lower.
REPORTED_METRICS = ("fig12_cycles_per_sec", "fig12_cycles_per_calibration_op",
                    "fig13_cycles_per_sec", "fig13_cycles_per_calibration_op")


def _measure(args) -> dict:
    from repro.perf.microbench import run_microbench

    return run_microbench(num_events=args.events, repeats=args.repeats)


def _cmd_micro(args) -> int:
    from repro.perf.profile import record_engine

    numbers = _measure(args)
    for key in sorted(numbers):
        print(f"{key:32s} {numbers[key]}")
    if not args.no_record:
        record_engine(numbers)
        print("\nrecorded into results/BENCH_sim.json")
    if args.profile:
        _write_profile_report(record_costs=not args.no_record)
    return 0


def _write_profile_report(record_costs: bool = True) -> None:
    """Profile one fig12-style point; print + archive the top-20 table.

    Runs separately from the measured numbers above — attaching the
    per-label cost profiler slows the engine, so it must never share a
    run with the events/sec that feed the gate.  Always writes
    ``results/PROFILE_micro.txt`` (the CI artifact); the raw per-label
    histogram additionally lands in ``BENCH_sim.json`` unless
    ``--no-record``.
    """
    from repro.perf.microbench import seq_access_stats_point
    from repro.perf.profile import (format_top_labels, profile_report_path,
                                    record_label_costs)

    point = seq_access_stats_point(with_stats=False, profiled=True)
    costs = point["label_costs"]
    report = format_top_labels(costs, limit=20)
    print(f"\ntop labels by cumulative callback time "
          f"(profiled fig12 point, {point['events']} events):")
    print(report)
    if record_costs:
        record_label_costs(costs)
    path = profile_report_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report + "\n", encoding="utf-8")
    print(f"\nprofile report written to {path}")


def _cmd_gate(args) -> int:
    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2
    numbers = _measure(args)
    from repro.perf.profile import record_engine

    record_engine(numbers)
    failed = False
    for metric in GATED_METRICS:
        reference = baseline.get(metric)
        measured = numbers.get(metric)
        if reference is None or measured is None:
            print(f"{metric}: missing from "
                  f"{'baseline' if reference is None else 'measurement'}; "
                  f"skipped")
            continue
        floor = reference * (1.0 - args.tolerance)
        verdict = "ok" if measured >= floor else "REGRESSED"
        failed = failed or measured < floor
        print(f"{metric}: measured {measured:.4f} vs baseline "
              f"{reference:.4f} (floor {floor:.4f}) — {verdict}")
    for metric in REPORTED_METRICS:
        print(f"{metric}: {numbers[metric]} (reported, not gated)")
    if failed:
        print(f"\nperf gate FAILED: events/sec regressed more than "
              f"{args.tolerance:.0%} vs {args.baseline}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


def _cmd_baseline(args) -> int:
    numbers = _measure(args)
    payload = {metric: numbers[metric] for metric in GATED_METRICS}
    payload["comment"] = (
        "Machine-normalized perf floors for `python -m repro.perf gate`: "
        "events/sec divided by the pure-Python calibration loop's "
        "ops/sec. Regenerate with `python -m repro.perf baseline` on an "
        "idle machine after intentional perf-affecting changes.")
    with open(args.baseline, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.baseline}")
    for metric in GATED_METRICS:
        print(f"  {metric} = {payload[metric]}")
    return 0


def _cmd_cache(args) -> int:
    store = SimCache()
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached results from {store.root}")
        return 0
    info = store.info()
    for key in ("root", "entries", "bytes", "enabled", "quarantined",
                "stale_tmp_swept", "journals"):
        print(f"{key:16s} {info[key]}")
    return 0


def _cmd_resilience(args) -> int:
    from repro.resilience.report import SweepJournal, load_report

    store = SimCache()
    sweeps = store.sweeps_dir
    journals = (sorted(sweeps.glob("*.journal.jsonl"))
                if sweeps.exists() else [])
    reports = (sorted(sweeps.glob("*.report.json"))
               if sweeps.exists() else [])
    if args.action in ("info", "journals"):
        if not journals:
            print(f"no sweep journals under {sweeps}")
        for path in journals:
            sweep_id = path.name.split(".")[0]
            state = SweepJournal(sweeps, sweep_id).load()
            status = "complete" if state["ended"] else "INTERRUPTED"
            print(f"{sweep_id}  runs={state['runs']} "
                  f"done={len(state['done_indices'])} "
                  f"quarantined={len(state['quarantined'])}  {status}")
    if args.action in ("info", "reports"):
        if not reports:
            print(f"no failure reports under {sweeps}")
        for path in reports:
            try:
                payload = load_report(path)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"{path.name}: unreadable ({exc})")
                continue
            print(f"{path.name}: policy={payload.get('policy')} "
                  f"completed={payload.get('completed')}/"
                  f"{payload.get('total')} "
                  f"quarantined={payload.get('quarantined')} "
                  f"pool_breaks={payload.get('pool_breaks')}")
            for failure in payload.get("failures", []):
                print(f"  point[{failure.get('index')}] "
                      f"{failure.get('name')}: {failure.get('kind')} "
                      f"after {failure.get('attempts')} attempt(s) — "
                      f"{failure.get('cause')}")
    return 0


def _add_measure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--events", type=int, default=200_000,
                        help="engine microbenchmark event count")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs (default 3)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf", description="simulator performance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    micro = sub.add_parser("micro", help="measure and record events/sec")
    _add_measure_args(micro)
    micro.add_argument("--no-record", action="store_true",
                       help="print only; do not touch BENCH_sim.json")
    micro.add_argument("--profile", action="store_true",
                       help="also profile a fig12 point and emit a "
                            "top-20 cumulative-time label report "
                            "(results/PROFILE_micro.txt)")

    gate = sub.add_parser("gate", help="fail if events/sec regressed")
    _add_measure_args(gate)
    gate.add_argument("--baseline", default=str(BASELINE_PATH),
                      help="baseline JSON (default benchmarks/"
                           "bench-baseline.json)")
    gate.add_argument("--tolerance", type=float, default=0.2,
                      help="allowed fractional regression (default 0.2)")

    base = sub.add_parser("baseline", help="rewrite the perf baseline")
    _add_measure_args(base)
    base.add_argument("--baseline", default=str(BASELINE_PATH))

    cache = sub.add_parser("cache", help="inspect/clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))

    res = sub.add_parser("resilience",
                         help="inspect sweep journals and failure reports")
    res.add_argument("action", choices=("info", "journals", "reports"),
                     nargs="?", default="info")

    args = parser.parse_args(argv)
    handlers = {"micro": _cmd_micro, "gate": _cmd_gate,
                "baseline": _cmd_baseline, "cache": _cmd_cache,
                "resilience": _cmd_resilience}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
