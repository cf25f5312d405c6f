"""The experiment-runner script end to end (ci scale, fast figures only)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "run_all_experiments.py"


def _env_with_repro():
    """Subprocess environment that can import the library from src/."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_runner_writes_results(tmp_path):
    # Run from a temp cwd; the script writes relative to its own location,
    # so point it at a copy (and at the library via PYTHONPATH — the copy
    # no longer sits next to src/).
    target = tmp_path / "scripts"
    target.mkdir()
    copy = target / "run_all_experiments.py"
    copy.write_text(SCRIPT.read_text())
    out = subprocess.run(
        [sys.executable, str(copy), "ci", "table1", "fig11"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env=_env_with_repro(),
    )
    assert out.returncode == 0, out.stderr
    results = tmp_path / "results" / "ci"
    assert (results / "table1.txt").exists()
    fig11 = (results / "fig11.txt").read_text()
    assert "memheft" in fig11
    assert "scale=ci" in fig11


def test_runner_help_smoke():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--help"],
        capture_output=True, text=True, timeout=60, env=_env_with_repro(),
    )
    assert out.returncode == 0, out.stderr
    assert "usage" in out.stdout.lower()
    assert "--jobs" in out.stdout


# ----------------------------------------------------------------------
# the CI speedup gate (scripts/check_speedup.py)
# ----------------------------------------------------------------------
def _write_reports(tmp_path, sweep_speedup=2.0, batch_speedup=2.0,
                   identical=True):
    import json
    scaling = tmp_path / "BENCH_scaling.json"
    scaling.write_text(json.dumps({
        "cpu_count": 4,
        "sweep": {"jobs": 4, "serial_s": 10.0,
                  "parallel_s": 10.0 / sweep_speedup,
                  "speedup": sweep_speedup, "identical_cells": identical},
    }))
    service = tmp_path / "BENCH_service.json"
    service.write_text(json.dumps({
        "cpu_count": 4,
        "batch": {"workers": 4, "serial_s": 8.0,
                  "workers_s": 8.0 / batch_speedup,
                  "speedup": batch_speedup, "identical_results": identical},
    }))
    return scaling, service


def _gate(argv):
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        import check_speedup
        return check_speedup.main(argv)
    finally:
        sys.path.pop(0)


@pytest.mark.parametrize("flag, value", [
    ("--distributed", "BENCH_distributed.json"),
    ("--faults", "BENCH_faults.json"),
    ("--min-distributed", "1.2"),
    ("--max-checkpoint-overhead", "5"),
])
def test_speedup_gate_has_no_multi_host_gates(tmp_path, capsys, flag,
                                              value):
    scaling, _ = _write_reports(tmp_path)
    with pytest.raises(SystemExit) as exc:
        _gate(["--scaling", str(scaling), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_runner_options_are_scale_experiments_and_jobs():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--help"],
        capture_output=True, text=True, timeout=60, env=_env_with_repro(),
    )
    assert out.returncode == 0, out.stderr
    usage = out.stdout.split("\n\n", 1)[0].split(None, 1)[1]
    assert " ".join(usage.split()) == \
        "run_all_experiments.py [-h] [-j JOBS] [scale] [experiments ...]"


def test_speedup_gate_passes(tmp_path):
    scaling, service = _write_reports(tmp_path)
    assert _gate(["--scaling", str(scaling), "--service", str(service)]) == 0


def test_speedup_gate_fails_below_threshold(tmp_path, capsys):
    scaling, service = _write_reports(tmp_path, batch_speedup=1.1)
    assert _gate(["--scaling", str(scaling), "--service", str(service)]) == 1
    assert "SPEEDUP GATE FAILED" in capsys.readouterr().err


def test_speedup_gate_fails_on_divergent_cells(tmp_path):
    scaling, service = _write_reports(tmp_path, identical=False)
    assert _gate(["--scaling", str(scaling)]) == 1


def test_speedup_gate_threshold_flag(tmp_path):
    scaling, service = _write_reports(tmp_path, sweep_speedup=1.3,
                                      batch_speedup=1.3)
    assert _gate(["--scaling", str(scaling), "--service", str(service),
                  "--min-speedup", "1.25"]) == 0


def _online_report(tmp_path, long_work=61.0, long_p50=6.0, rows=None):
    """A passing BENCH_online.json, with the 2000-arrival replan:16 row's
    work per round and p50 overridable."""
    import json
    if rows is None:
        rows = [
            {"policy": "immediate", "n_arrivals": 200, "p50_ms": 4.0,
             "p99_ms": 9.0, "work_per_round": 58.0},
            {"policy": "immediate", "n_arrivals": 2000, "p50_ms": 5.0,
             "p99_ms": 14.0, "work_per_round": 61.0},
            {"policy": "replan:16", "n_arrivals": 200, "p50_ms": 5.0,
             "p99_ms": 10.0, "work_per_round": 60.0},
            {"policy": "replan:16", "n_arrivals": 2000, "p50_ms": long_p50,
             "p99_ms": 30.0, "work_per_round": long_work},
        ]
    path = tmp_path / "BENCH_online.json"
    path.write_text(json.dumps({
        "policies": [{"policy": "immediate", "n_arrivals": 200,
                      "p99_ms": 9.0, "regret_pct": 9.8}],
        "determinism": {"identical_journal": True},
        "identity": {"offline_identical": True},
        "session_length": rows,
    }))
    return str(path)


def test_online_gate_passes_flat_sessions(tmp_path):
    assert _gate(["--online", _online_report(tmp_path)]) == 0


@pytest.mark.parametrize("override, message", [
    ({"long_work": 76.0}, "work per round ratio 1.267"),
    ({"long_p50": 7.6}, "p50 latency ratio 1.520"),
    ({"rows": []}, "no 'session_length' section"),
])
def test_online_gate_fails_on_growing_sessions(tmp_path, capsys, override,
                                               message):
    assert _gate(["--online", _online_report(tmp_path, **override)]) == 1
    assert message in capsys.readouterr().err
