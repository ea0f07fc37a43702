"""The perf gate: gated events/sec ratios, reported simulated cycles/sec."""

import json

from repro.perf import __main__ as perf_cli
from repro.perf.microbench import _point_speed


def _numbers(scale):
    numbers = {metric: 0.01 * scale for metric in perf_cli.GATED_METRICS}
    numbers.update({metric: 1000.0 * scale
                    for metric in perf_cli.REPORTED_METRICS})
    return numbers


def _gate(tmp_path, monkeypatch, capsys, scale):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_numbers(1.0)))
    monkeypatch.setattr(perf_cli, "_measure", lambda args: _numbers(scale))
    monkeypatch.setattr("repro.perf.profile.record_engine",
                        lambda numbers: None)
    code = perf_cli.main(["gate", "--baseline", str(baseline)])
    return code, capsys.readouterr().out


def test_cycles_per_sec_is_reported_not_gated(tmp_path, monkeypatch,
                                              capsys):
    code, out = _gate(tmp_path, monkeypatch, capsys, 1.0)
    assert code == 0
    for metric in perf_cli.REPORTED_METRICS:
        assert f"{metric}: " in out and "(reported, not gated)" in out


def test_gate_still_fails_on_events_per_sec(tmp_path, monkeypatch, capsys):
    code, out = _gate(tmp_path, monkeypatch, capsys, 0.5)
    assert code == 1 and "REGRESSED" in out


def test_point_speed_counts_simulated_cycles():
    speed = _point_speed({"events": 400, "cycles": 1000, "seconds": 2.0})
    assert speed["events_per_sec"] == 200.0
    assert speed["cycles_per_sec"] == 500.0
    assert _point_speed({"events": 1, "cycles": 1,
                         "seconds": 0.0})["cycles_per_sec"] == 0.0
