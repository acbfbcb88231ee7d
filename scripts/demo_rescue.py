#!/usr/bin/env python3
"""Side-by-side demo: baseline AdamW vs the guarded run at an aggressive lr.

Takes the suite's "aggressive" rate for the bigram task at this run length,
then runs both arms and prints the eval traces so the rescue is visible step
by step.

Usage:
    python scripts/demo_rescue.py [--seed 7] [--steps 1000]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from guardlab.config import resolve_lr  # noqa: E402
from guardlab.governor import GuardConfig  # noqa: E402
from guardlab.harness import RunConfig, TaskSpec, run_training  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--steps", type=int, default=1000)
    args = parser.parse_args()

    base = RunConfig(
        task=TaskSpec(kind="bigram_lm", dims={}),
        steps=args.steps,
        eval_every=max(1, args.steps // 10),
        seed=args.seed,
    )
    lr = resolve_lr("aggressive", [base])
    print(f"calibrated degrading lr: {lr:g}")
    base = replace(base, opt=replace(base.opt, lr=lr))

    results = {
        "baseline": run_training(replace(base, label="baseline")),
        "guard": run_training(replace(base, guard=GuardConfig(), label="guard")),
    }

    print(f"{'step':>6} {'baseline loss':>14} {'guard loss':>11}")
    for (step, base_loss, _), (_, guard_loss, _) in zip(
        results["baseline"].eval_trace, results["guard"].eval_trace
    ):
        print(f"{step:>6} {base_loss:>14.4f} {guard_loss:>11.4f}")
    for arm, res in results.items():
        s = res.summary
        print(
            f"{arm}: initial {res.initial_loss:.4f} -> final {res.final_loss:.4f}, "
            f"control-active {s.control_active_steps}, skipped {s.skipped_steps}, "
            f"min scale {s.min_scale:.3f}, energy {s.control_energy:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
