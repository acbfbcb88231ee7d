"""Golden output of a tiny suite: pins every output byte that a performance
change must leave alone.

The digest covers suite.csv without its wall_s column and every file under
runs/ (each run's JSONL and summary), in name order. It was recorded before
the one-softmax-per-row eval, the scratch-buffer AdamW and the bisect corpus
walk landed, so it holds them to the outputs of the code they replaced. The
suite's 3 distinct probes and 13 distinct runs give the same bytes in one
process and on a pool of forked workers, and all 13 run through
run_training. No eval enters the digest. The baselines of lr-stress,
lr-moderate and long evaluate every tenth of their run, as their probes do.
For a time those three were replayed from their calibration rungs instead
of run, and the digest held.

The shipped configuration's digest pins the full default suite the same way,
on every usable CPU. It was recorded with numpy 2.4.6, before suite runs came
back from their workers as summary rows. It held through rung replay and its
deletion, and when long-budget's "aggressive" preset became the number it
resolved to, 13.1072, lr-stress's rate, which the test checks.

`guardlab run` runs one arm of one scenario as the suite builds it, so on
the tiny suite its JSONL and summary are the suite's files for that arm.

Both digests were re-recorded when the recovery regime was deleted. The only
change was the JSONL regime labels, each "recovery" now "stable", and with
them the regime_switches of each summary and suite.csv row; every other
byte was unchanged.
"""

import csv
import hashlib
import json
import re
from pathlib import Path

from guardlab import cli, harness
from guardlab.cli import main
from guardlab.report import read_suite_csv

GOLDEN_SUITE_SHA256 = "4d43675ec28906c0987462bcf476fe2f25852fe706078141760689326e48ec32"
ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "configs" / "default_suite.json"
README = ROOT / "README.md"
SHIPPED_SUITE_SHA256 = "c95574bb0a8e06a3dfc171307dfaf7ea05f15b84e0947d51e3db3deafa3def6e"

TINY_SUITE = {
    "seeds": [7],
    "tasks": {
        "bigram": {"kind": "bigram_lm", "dims": {"alphabet": 8}},
        "quadratic": {"kind": "quadratic", "dims": {}},
    },
    "scenarios": [
        {"name": "lr-stress", "kind": "lr_stress", "task": "bigram",
         "steps": 40, "lr": "aggressive", "eval_every": 4},
        {"name": "lr-moderate", "kind": "lr_stress", "task": "bigram",
         "steps": 40, "lr": "moderate", "eval_every": 4},
        {"name": "clip", "kind": "clip_baseline", "task": "bigram",
         "steps": 40, "lr": "aggressive", "eval_every": 10, "clip_g": [1.0, 0.5]},
        {"name": "bursts", "kind": "injection", "task": "bigram",
         "steps": 40, "lr": "aggressive", "eval_every": 10, "clip_g": [1.0],
         "injection": {"magnitude": 50.0, "period": 10, "mode": "gradient_burst"}},
        {"name": "long", "kind": "long_budget", "task": "bigram",
         "steps": 80, "lr": "aggressive", "eval_every": 8},
        {"name": "benign", "kind": "seed_sweep", "task": "quadratic",
         "steps": 40, "lr": 0.001, "eval_every": 10},
    ],
}


def hash_csv_rows(h, path) -> None:
    """Feed h each row of the CSV at path, without its wall_s."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            del row["wall_s"]
            h.update(json.dumps(row).encode("utf-8"))


def suite_digest(out) -> str:
    h = hashlib.sha256()
    hash_csv_rows(h, out / "suite.csv")
    for path in sorted((out / "runs").iterdir()):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def test_tiny_suite_outputs_match_the_golden_digest(tmp_path, workers, monkeypatch):
    ran = []
    real = harness.run_training

    def counting(cfg, out_dir=None):
        ran.append(cfg.label)
        return real(cfg, out_dir)

    monkeypatch.setattr(harness, "run_training", counting)
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(TINY_SUITE))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "suite"]) == 0
    assert len(list((out / "runs").iterdir())) == 2 * 13
    assert suite_digest(out) == GOLDEN_SUITE_SHA256
    if workers == 1:
        # A forked worker's calls never reach this process's list.
        assert sorted(ran) == sorted(path.name[:-len("_seed7.jsonl")]
                                     for path in (out / "runs").glob("*.jsonl"))
        assert len(ran) == 13


def test_shipped_suite_outputs_match_the_golden_digest(tmp_path, monkeypatch):
    # The suite's expand_scenarios also gives the map `guardlab calibrate`
    # prints (test_cli ties the two), which must stay the one README documents.
    rates = {}
    real = cli.expand_scenarios

    def recording(cfg, ladders=None):
        pairs = real(cfg, ladders)
        rates.update((scenario, base.opt.lr) for scenario, base, _ in pairs)
        return pairs

    monkeypatch.setattr(cli, "expand_scenarios", recording)
    out = tmp_path / "out"
    assert main(["--config", str(SHIPPED), "--out", str(out), "--quiet", "suite"]) == 0
    assert suite_digest(out) == SHIPPED_SUITE_SHA256
    # report.md shows the losses suite.csv holds, and no perplexity.
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "PPL" not in report
    for row in read_suite_csv(out / "suite.csv"):
        if row["arm"] != "error":
            assert f"| {row['final_loss']:.4f} |" in report, (row["scenario"], row["arm"])
    # long-budget's hand-written rate is the aggressive rate lr-stress
    # calibrates, so it runs no ladder of its own.
    assert rates["long-budget"] == rates["lr-stress"]
    entries = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    assert entries and not any("long-budget" in entry["scenarios"] for entry in entries)
    # README: the bigram's clips at 1.0 and 0.5 never fire, so the two arms
    # run the same plain AdamW steps and write the same bytes.
    for seed in json.loads(SHIPPED.read_text(encoding="utf-8"))["seeds"]:
        for suffix in (".jsonl", "_summary.json"):
            clip1, clip05 = (out / "runs" / f"outlier-bursts-clip{g}_seed{seed}{suffix}"
                             for g in (1.0, 0.5))
            assert clip1.read_bytes() == clip05.read_bytes(), (seed, suffix)
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"configs/default_suite\.json calibrate\n((?:#.*\n)+)", readme).group(1)
    assert rates == json.loads("".join(line[1:] for line in block.splitlines()))


# One arm of each kind: a baseline at the rate of a rung of its own ladder, a
# guard arm at a moderate preset, a clip arm under bursts and a guard arm at a numeric lr.
RUN_ARMS = [("lr-stress", "baseline"), ("lr-moderate", "guard"), ("bursts", "clip1.0"),
            ("benign", "guard")]


def test_run_writes_the_bytes_of_the_suite_arm_it_names(tmp_path, workers):
    # `guardlab run --scenario S --arm A` is the suite's run S-A: its JSONL and
    # summary are the files the suite writes under runs/ for that arm.
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(TINY_SUITE))
    suite = tmp_path / "suite"
    assert main(["--config", str(cfg), "--out", str(suite), "--quiet", "suite"]) == 0
    for scenario, arm in RUN_ARMS:
        out = tmp_path / f"{scenario}-{arm}"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet", "run",
                     "--scenario", scenario, "--arm", arm, "--seed", "7"]) == 0
        for suffix in (".jsonl", "_summary.json"):
            name = f"{scenario}-{arm}_seed7{suffix}"
            assert (out / name).read_bytes() == (suite / "runs" / name).read_bytes(), name
