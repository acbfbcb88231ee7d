"""Smoke tests for scripts/: each runs as a subprocess, exits 0, and writes its output."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_demo_rescue(tmp_path):
    proc = run_script("demo_rescue.py", "--steps", "100", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("calibrated degrading lr: ")
    assert lines[-2].startswith("baseline: initial") and lines[-1].startswith("guard: initial")


def test_run_suite(tmp_path):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "seeds": [7],
        "tasks": {"toy": {"kind": "quadratic", "dims": {"dim": 4}}},
        "scenarios": [{"name": "demo", "kind": "lr_stress", "task": "toy",
                       "steps": 20, "lr": 0.01, "batch_size": 8, "eval_every": 10}],
    }))
    out = tmp_path / "out"
    proc = run_script("run_suite.py", "--config", str(config), "--out", str(out), "--quiet",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (out / "suite.csv").read_text().count("\n") == 3
    assert "## demo" in (out / "report.md").read_text()
