#!/usr/bin/env python3
"""Side-by-side demo: baseline AdamW vs the guarded run at an aggressive lr.

Expands one lr_stress scenario on the bigram task at this run length, so the
pair runs at the rate the suite's calibration gives it, then runs both arms
and prints the eval traces so the rescue is visible step by step.

Usage:
    python scripts/demo_rescue.py [--seed 7] [--steps 1000]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from guardlab.config import expand_scenarios, parse_config  # noqa: E402
from guardlab.harness import run_training  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--steps", type=int, default=1000)
    args = parser.parse_args()

    (_, base, guard), = expand_scenarios(parse_config({
        "seeds": [args.seed],
        "tasks": {"bigram": {"kind": "bigram_lm"}},
        "scenarios": [{"name": "lr-stress", "kind": "lr_stress", "task": "bigram",
                       "steps": args.steps, "eval_every": max(1, args.steps // 10),
                       "lr": "aggressive"}],
    }))
    print(f"calibrated degrading lr: {base.opt.lr:g}")
    results = {"baseline": run_training(base), "guard": run_training(guard)}

    print(f"{'step':>6} {'baseline loss':>14} {'guard loss':>11}")
    for (step, base_loss), (_, guard_loss) in zip(
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
