"""Smoke tests for scripts/: each runs as a subprocess, exits 0, and writes its output."""

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

