"""Smoke tests for scripts/: each runs as a subprocess under
-W error::RuntimeWarning (a subprocess does not inherit pytest's warning
filter), exits 0, and writes its output."""

import subprocess
import sys
from pathlib import Path

from guardlab.harness import TaskSpec, calibrate_divergence_lr

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_demo_rescue(tmp_path):
    proc = run_script("demo_rescue.py", "--steps", "100", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # The demo's pair runs at the suite's aggressive rate for its run length.
    lr = calibrate_divergence_lr(TaskSpec("bigram_lm", {}), probe_steps=100, seed=7)
    assert lines[0] == f"calibrated degrading lr: {lr:g}"
    assert lines[-2].startswith("baseline: initial") and lines[-1].startswith("guard: initial")
