"""The benchmark's workloads: generated configs, one unit of fixed work, checks.

Each workload is a closed loop: one process runs its runs one after
another. A *unit* is the workload's fixed work; the benchmark repeats units
for the run's time budget and reports medians. Inputs come only from the
workload seed: it picks the run seeds, and the program receives nothing but
the generated config and the objects parsed from it.

Why these workloads:

- ``suite``: ``guardlab suite`` on a scaled-down default config. Calibration
  (the doubling ladder of full-length probes, each rebuilding a bigram task)
  does most of the work; paired runs, JSONL writes and the report do the rest.
- ``train-bigram-burst``: paired clip-only baseline and guard runs on
  ``bigram_lm`` at a fixed stress-region lr with periodic gradient bursts,
  writing their JSONL. The per-step loop and the governor's active control
  path dominate; task build is a small share and there is no calibration.
- ``train-quadratic-benign``: paired baseline and guard runs on
  ``quadratic`` at lr 1e-3, where the governor never acts; logs stay in
  memory. A step is fixed per-step overhead (batch stream, governor, AdamW),
  so task-kernel, log-writing and calibration changes should not move it.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from guardlab import cli, config, governor, harness

from perfbench import hostspeed

WORKLOADS = ("suite", "train-bigram-burst", "train-quadratic-benign")

# Unit sizes. "full" is what the benchmark measures; "tiny" runs the same
# code path in a fraction of a second for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Dict]] = {
    "full": {
        "suite": {"seeds": 1, "steps": 400, "long_steps": 800, "bigram_dims": {}},
        "train-bigram-burst": {"seeds": 3, "steps": 3000, "period": 100, "bigram_dims": {}},
        "train-quadratic-benign": {"seeds": 32, "steps": 300},
    },
    "tiny": {
        "suite": {"seeds": 1, "steps": 20, "long_steps": 40,
                  "bigram_dims": {"alphabet": 8, "corpus_len": 256, "eval_len": 64}},
        "train-bigram-burst": {"seeds": 1, "steps": 100, "period": 20,
                               "bigram_dims": {"alphabet": 8, "corpus_len": 256,
                                               "eval_len": 64}},
        "train-quadratic-benign": {"seeds": 2, "steps": 50},
    },
}

# A stress-region rate for bigram_lm: with bursts every 100 steps the guard
# is control-active on most steps (0.6-0.8 of them, depending on the seed).
BIGRAM_BURST_LR = 0.1
BURST_MAGNITUDE = 50.0
BENIGN_LR = 1e-3


def run_seeds(seed: int, n: int) -> List[int]:
    """n distinct run seeds drawn from the workload seed."""
    return random.Random(seed).sample(range(1, 1_000_000), n)


def _tasks(bigram_dims: dict) -> dict:
    return {
        "bigram": {"kind": "bigram_lm", "dims": dict(bigram_dims)},
        "quadratic": {"kind": "quadratic", "dims": {}},
        "mlp": {"kind": "mlp_regression", "dims": {}},
    }


def make_config(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's config document, in the shape of configs/default_suite.json."""
    p = SIZES[size][workload]
    doc = {
        "out_dir": "results",
        "seeds": run_seeds(seed, p["seeds"]),
        "tasks": _tasks(p.get("bigram_dims", {})),
        "optimizer": {"lr": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                      "weight_decay": 0.0},
        "schedule": {"kind": "cosine", "min_lr": 0.0},
        "guard": {},
    }
    steps = p["steps"]
    eval_every = max(1, steps // 10)
    if workload == "suite":
        # default_suite.json scaled to the run budget: one seed, shorter runs,
        # eval cadence and burst period at a tenth of the run.
        long_steps = p["long_steps"]
        burst = {"magnitude": BURST_MAGNITUDE, "period": eval_every, "mode": "gradient_burst"}
        doc["scenarios"] = [
            {"name": "lr-stress", "kind": "lr_stress", "task": "bigram",
             "steps": steps, "lr": "aggressive", "eval_every": eval_every},
            {"name": "lr-moderate", "kind": "lr_stress", "task": "bigram",
             "steps": steps, "lr": "moderate", "eval_every": eval_every},
            {"name": "outlier-bursts", "kind": "injection", "task": "bigram",
             "steps": steps, "lr": "aggressive", "eval_every": eval_every,
             "clip_g": [1.0, 0.5], "injection": burst},
            {"name": "long-budget", "kind": "long_budget", "task": "bigram",
             "steps": long_steps, "lr": "aggressive", "eval_every": long_steps // 10},
            {"name": "benign-quadratic", "kind": "seed_sweep", "task": "quadratic",
             "steps": steps, "lr": BENIGN_LR, "eval_every": eval_every},
        ]
    elif workload == "train-bigram-burst":
        burst = {"magnitude": BURST_MAGNITUDE, "period": p["period"], "mode": "gradient_burst"}
        doc["scenarios"] = [
            {"name": "bigram-burst", "kind": "injection", "task": "bigram",
             "steps": steps, "lr": BIGRAM_BURST_LR, "eval_every": p["period"],
             "clip_g": [1.0], "injection": burst},
        ]
    elif workload == "train-quadratic-benign":
        doc["scenarios"] = [
            {"name": "quadratic-benign", "kind": "seed_sweep", "task": "quadratic",
             "steps": steps, "lr": BENIGN_LR, "eval_every": eval_every},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return doc


@dataclass
class Prepared:
    """A workload after set-up: its config and, for train-*, its run pairs."""

    workload: str
    doc: dict
    cfg: "config.SuiteConfig"
    pairs: List[Tuple[str, "harness.RunConfig", "harness.RunConfig"]]
    nominal_steps: int
    expected_rows: int


def prepare(workload: str, seed: int, size: str = "full") -> Prepared:
    """Set-up: generate and parse the config; expand train-* pairs (fixed lr)."""
    doc = make_config(workload, seed, size)
    cfg = config.parse_config(doc)
    rows = 0
    nominal = 0
    for scen in cfg.scenarios:
        per_seed = len(scen.clip_g) if scen.kind in ("clip_baseline", "injection") else 1
        rows += 2 * per_seed * len(cfg.seeds)
        nominal += 2 * per_seed * len(cfg.seeds) * scen.steps
    # The suite resolves lr presets (calibration) inside the measured unit.
    pairs = [] if workload == "suite" else config.expand_scenarios(cfg)
    return Prepared(workload, doc, cfg, pairs, nominal, rows)


@dataclass
class UnitResult:
    wall_s: float
    attempted: int
    failed: int
    digest: str
    guard_loss_ratio: float
    failures: List[str] = field(default_factory=list)
    # Host slowdown sampled while the unit ran (see hostspeed.py).
    slowdown: float = 1.0

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s / self.slowdown


# -- execution ------------------------------------------------------------------

def execute(prep: Prepared, work: Path):
    """Run one unit of the workload's fixed work; returns (wall seconds, raw output)."""
    if prep.workload == "suite":
        out = work / "suite"
        shutil.rmtree(out, ignore_errors=True)
        work.mkdir(parents=True, exist_ok=True)
        cfg_path = work / "suite_config.json"
        cfg_path.write_text(json.dumps(prep.doc), encoding="utf-8")
        t0 = time.perf_counter()
        rc = cli.main(["--config", str(cfg_path), "--out", str(out), "--quiet", "suite"])
        return time.perf_counter() - t0, (rc, out)
    out_dir = work / "runs" if prep.workload == "train-bigram-burst" else None
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    results = []
    t0 = time.perf_counter()
    for _scenario, base_cfg, guard_cfg in prep.pairs:
        pair = []
        for run_cfg in (base_cfg, guard_cfg):
            try:
                pair.append((run_cfg, harness.run_training(run_cfg, out_dir), None))
            except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
                pair.append((run_cfg, None, f"{type(exc).__name__}: {exc}"))
        results.append(pair)
    return time.perf_counter() - t0, (out_dir, results)


def run_unit(prep: Prepared, work: Path, tracer=None) -> UnitResult:
    """Execute one unit (traced when a tracer is given) while sampling host
    speed, then check its outputs."""
    with hostspeed.HostSpeed() as speed:
        if tracer is None:
            wall, raw = execute(prep, work)
        else:
            with tracer:
                wall, raw = execute(prep, work)
            tracer.end_unit()
    if prep.workload == "suite":
        result = _check_suite(prep, wall, *raw)
    else:
        result = _check_training(prep, wall, *raw)
    result.slowdown = speed.slowdown()
    return result


# -- output checks -----------------------------------------------------------------

def check_records(records, summary, c_min: float) -> List[str]:
    """Governor invariants over one run's step log."""
    problems = []
    if governor.summarize_records(records) != summary:
        problems.append("summary differs from summarize_records over the log")
    if any(not c_min <= r.scale <= 1.0 for r in records):
        problems.append(f"scale outside [c_min={c_min}, 1]")
    if any(r.skipped and math.isfinite(r.loss) for r in records):
        problems.append("skipped step with finite loss")
    return problems


def _read_jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return [governor.record_from_json_dict(json.loads(line)) for line in fh]


def _jsonl_bytes(result) -> bytes:
    buf = io.StringIO()
    result.log.write_jsonl(buf)
    return buf.getvalue().encode("utf-8")


def _run_problems(run_cfg, res, out_dir: Optional[Path], h) -> List[str]:
    """Check one finished run and feed its deterministic outputs to the digest."""
    stem = f"{res.label}_seed{res.seed}"
    c_min = run_cfg.guard_or_disabled().c_min
    problems = check_records(res.log.records, res.summary, c_min)
    if out_dir is None:
        log_bytes = _jsonl_bytes(res)
    else:
        jsonl = out_dir / f"{stem}.jsonl"
        summary_path = out_dir / f"{stem}_summary.json"
        if not (jsonl.exists() and summary_path.exists()):
            return problems + ["run artefacts missing"]
        problems += [f"{p} (re-read from JSONL)"
                     for p in check_records(_read_jsonl(jsonl), res.summary, c_min)]
        if json.loads(summary_path.read_text()) != dataclasses.asdict(res.summary):
            problems.append("summary JSON differs from the run's summary")
        log_bytes = jsonl.read_bytes()
    h.update(stem.encode() + b"\n" + log_bytes + res.params.tobytes())
    return problems


def _benign_problems(base, guard) -> List[str]:
    """C10: with nothing to govern, the guard arm is exactly the baseline."""
    problems = []
    if base.params.tobytes() != guard.params.tobytes():
        problems.append("guard and baseline final params differ")
    if guard.summary.control_active_steps or any(r.active for r in guard.log.records):
        problems.append("governor acted on a benign run")
    return problems


def _check_training(prep: Prepared, wall: float, out_dir: Optional[Path], results) -> UnitResult:
    h = hashlib.sha256()
    failures: List[str] = []
    failed = 0
    ratios = []
    for pair in results:
        problems = [
            [error] if res is None else _run_problems(run_cfg, res, out_dir, h)
            for run_cfg, res, error in pair
        ]
        (_, base, _), (_, guard, _) = pair
        if prep.workload == "train-quadratic-benign" and base is not None and guard is not None:
            problems[1] += _benign_problems(base, guard)
        if guard is not None:
            ratios.append(guard.final_loss / guard.initial_loss)
        for (run_cfg, _, _), run_problems in zip(pair, problems):
            if run_problems:
                failed += 1
                failures += [f"{run_cfg.label} seed {run_cfg.seed}: {p}" for p in run_problems]
    return UnitResult(wall, 2 * len(results), failed, h.hexdigest(),
                      float(np.mean(ratios)) if ratios else math.nan, failures)


def _expected_stems(prep: Prepared) -> List[str]:
    stems = []
    for scen in prep.cfg.scenarios:
        if scen.kind in ("clip_baseline", "injection"):
            labels = [f"{scen.name}-guard"] + [f"{scen.name}-clip{g}" for g in scen.clip_g]
        else:
            labels = [f"{scen.name}-baseline", f"{scen.name}-guard"]
        stems += [f"{label}_seed{s}" for label in labels for s in prep.cfg.seeds]
    return stems


def _check_suite(prep: Prepared, wall: float, rc: int, out: Path) -> UnitResult:
    attempted = prep.expected_rows
    csv_path = out / "suite.csv"
    if rc != 0 or not csv_path.exists():
        return UnitResult(wall, attempted, attempted, "", math.nan,
                          [f"guardlab suite exited {rc} without a complete suite.csv"])
    h = hashlib.sha256()
    failures: List[str] = []
    failed = 0
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    header, rows = table[0], table[1:]
    wall_col = header.index("wall_s")
    for line in table:
        h.update(",".join(v for i, v in enumerate(line) if i != wall_col).encode() + b"\n")
    arm_col = header.index("arm")
    errors = sum(1 for r in rows if r[arm_col] == "error")
    if errors:
        failed += 2 * errors
        failures.append(f"suite.csv has {errors} error rows")
    if len(rows) != attempted:
        failed += abs(attempted - len(rows))
        failures.append(f"suite.csv has {len(rows)} rows, expected {attempted}")
    c_min = prep.cfg.guard.c_min
    for stem in _expected_stems(prep):
        jsonl = out / "runs" / f"{stem}.jsonl"
        summary_path = out / "runs" / f"{stem}_summary.json"
        if not (jsonl.exists() and summary_path.exists()):
            failed += 1
            failures.append(f"{stem}: run artefacts missing")
            continue
        written = governor.TelemetrySummary(**json.loads(summary_path.read_text()))
        problems = check_records(_read_jsonl(jsonl), written, c_min)
        if problems:
            failed += 1
            failures += [f"{stem}: {p}" for p in problems]
    for jsonl in sorted((out / "runs").glob("*.jsonl")):
        h.update(jsonl.name.encode() + b"\n" + jsonl.read_bytes())
    # One guard run serves every clip_g pair of its scenario: count it once.
    guard_ratios = {
        (r[header.index("scenario")].split("/")[0], r[header.index("seed")]):
            float(r[header.index("final_loss")]) / float(r[header.index("initial_loss")])
        for r in rows if r[arm_col] == "guard"
    }
    ratio = float(np.mean(list(guard_ratios.values()))) if guard_ratios else math.nan
    return UnitResult(wall, attempted, min(failed, attempted), h.hexdigest(), ratio, failures)

