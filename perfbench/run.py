#!/usr/bin/env python3
"""guardlab benchmark: one workload, measured for a time budget.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads: suite, train-bigram-burst, train-quadratic-benign (see
perfbench/workloads.py for why each exists). The workload's fixed work (a
unit) is repeated until the budget is spent; timings are unit medians.

--trace 0 prints the end-to-end metrics:
  setup_s          median of fresh-interpreter set-ups: import guardlab,
                   generate and parse the config (and expand train-* pairs)
  wall_s           median unit time, set-up excluded
  steps_per_s      nominal paired/fixed run steps per unit / wall_s
                   (calibration probe steps are not counted)
  peak_rss_mb      peak resident memory of this process
  guard_loss_ratio mean over guard-arm runs of final / initial eval loss
  ok_frac          runs that raised nothing and passed every output check
                   / runs attempted (the complement of failed_frac)
Unit times are divided by the host slowdown sampled while each unit runs
(perfbench/hostspeed.py); the raw times are printed too. setup_s is raw:
the sampler cannot run in the set-up's fresh interpreter without importing
numpy before the clock starts.
--trace 1 runs half the budget untraced and half with the outside-in layer
trace installed, and prints the per-layer metrics (perfbench/tracing.py).

Every unit's outputs are checked and digested (sha256 of suite.csv without
wall_s, every JSONL, and final params); all units of one run, traced or
not, must give the same digest. The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
environment, the digest, failures and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 7

# Set-up as a user pays it: a fresh interpreter imports guardlab and
# prepares the workload. Timed inside the child, so interpreter start-up
# is excluded.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[0:0] = ["src", "."]
from perfbench import workloads
workloads.prepare(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _setup_seconds(workload: str, seed: int) -> list:
    """Raw set-up times of SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _measure(prep, work: Path, seconds: float, min_units: int, tracer=None) -> list:
    """Repeat units until the next one would overrun the budget."""
    from perfbench import workloads

    units = []
    deadline = time.perf_counter() + seconds
    while True:
        units.append(workloads.run_unit(prep, work, tracer))
        typical = statistics.median(u.wall_s for u in units)
        if len(units) >= min_units and time.perf_counter() + typical > deadline:
            return units


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None, size: str = "full") -> int:
    """Run one workload; ``size`` other than "full" is for the benchmark's tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = ROOT / "src"
    if not (src / "guardlab" / "__init__.py").is_file():
        print(f"perfbench: no guardlab source under {src}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import tracing, workloads
    import guardlab
    import numpy

    if Path(guardlab.__file__).resolve().parent != (src / "guardlab").resolve():
        print(f"perfbench: guardlab imported from {guardlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    prep = workloads.prepare(args.workload, args.seed, size)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.trace:
            plain = _measure(prep, work, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            traced = _measure(prep, work, args.seconds / 2, 1, tracer)
            units = plain + traced
        else:
            units = _measure(prep, work, args.seconds, 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    env["loadavg_end"] = _loadavg()

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    digests = sorted({u.digest for u in units})
    failures = [f for u in units for f in u.failures]
    if len(digests) != 1:
        failures.append(f"units gave {len(digests)} different output digests")
    correct = not failures and failed == 0

    if args.trace:
        wall = statistics.median(u.norm_wall_s for u in plain)
        traced_wall = statistics.median(u.norm_wall_s for u in traced)
        metrics = tracing.layer_metrics(tracer, traced_wall, wall)
    else:
        wall = statistics.median(u.norm_wall_s for u in units)
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(wall, "s"),
            "steps_per_s": _metric(prep.nominal_steps / wall, "steps/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "guard_loss_ratio": _metric(units[0].guard_loss_ratio, "ratio"),
            "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
        }

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} runs_per_unit={units[0].attempted}")
    print("env " + json.dumps(env))
    if setup:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"raw unit wall_s: {', '.join(f'{u.wall_s:.4f}' for u in units)}")
    print(f"host slowdown per unit: {', '.join(f'{u.slowdown:.3f}' for u in units)}")
    for digest in digests:
        print(f"digest sha256={digest}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} failed of {attempted} runs)")
    for name, m in metrics.items():
        value = "absent" if m.get("absent") else f"{m['value']:.6g}"
        print(f"metric {name} {value} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
