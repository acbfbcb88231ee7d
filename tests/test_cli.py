"""CLI tests: run determinism, suite/report round trip, error surfaces."""

import csv
import json
import math
from pathlib import Path

import pytest

from guardlab import config as config_module
from guardlab import harness
from guardlab.cli import _COMMANDS, main
from guardlab.config import expand_scenarios, parse_config
from guardlab.harness import (LADDER_LRS, InjectionSpec, TaskSpec, calibrate_divergence_lr,
                              probe_config)
from guardlab.report import perplexity, read_suite_csv, write_csv_rows


def write_config(tmp_path: Path, extra: dict = None) -> Path:
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "seeds": [7],
        "tasks": {"toy": {"kind": "quadratic", "dims": {"dim": 4, "noise": 0.01}}},
        "scenarios": [
            {"name": "stress", "kind": "lr_stress", "task": "toy", "steps": 30,
             "lr": 0.05, "batch_size": 8, "eval_every": 10},
        ],
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(cfg))
    return path


# The scenario write_config defines, run through `guardlab run`.
RUN_STRESS = ["run", "--scenario", "stress"]


def test_run_writes_csv_and_echo(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "runout"
    assert main(["--config", str(cfg), "--out", str(out), *RUN_STRESS]) == 0
    assert (out / "config_echo.json").exists()
    csv_path = out / "stress-guard_seed7.csv"
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert (rows[0]["scenario"], rows[0]["arm"]) == ("stress", "guard")
    lines = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(lines[-1])
    assert payload["label"] == "stress-guard"
    # The rate, then the eval trace: one line per eval step.
    assert "stress-guard at lr 0.05, seed 7" in lines
    assert [line.split()[0] for line in lines[-4:-1]] == ["10", "20", "30"]


def test_run_prints_the_perplexity_of_its_final_loss_as_its_csv_row_does(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "runout"
    assert main(["--config", str(cfg), "--out", str(out), *RUN_STRESS]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    (row,) = read_suite_csv(out / "stress-guard_seed7.csv")
    assert payload["final_loss"] == row["final_loss"]
    assert payload["final_perplexity"] == perplexity(payload["final_loss"]) == row["final_ppl"]


def test_run_deterministic_modulo_wall_time(tmp_path):
    cfg = write_config(tmp_path)
    rows = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["--config", str(cfg), "--out", str(out), "--quiet", *RUN_STRESS]) == 0
        with open(out / "stress-guard_seed7.csv") as fh:
            rows.append(list(csv.DictReader(fh))[0])
    a, b = rows
    for col in a:
        if col != "wall_s":
            assert a[col] == b[col], col


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "seeded"
    # Any seed, not only the config's: the flag goes before or after `run`.
    assert main(["--config", str(cfg), "--out", str(out), "--seed", "99", "--quiet",
                 *RUN_STRESS]) == 0
    assert main(["--config", str(cfg), "--out", str(out), "--quiet",
                 *RUN_STRESS, "--arm", "baseline", "--seed", "98"]) == 0
    assert sorted(path.name for path in out.glob("*.csv")) == [
        "stress-baseline_seed98.csv", "stress-guard_seed99.csv"]


@pytest.mark.parametrize("flags, message", [
    ([], "run needs --scenario, one of ['stress']; got None"),
    (["--scenario", "calm"], "one of ['stress']; got 'calm'"),
    (["--scenario", "stress", "--arm", "clip1.0"],
     "scenario 'stress' has no arm 'clip1.0'; its arms are ['baseline', 'guard']"),
])
def test_run_names_the_valid_scenarios_and_arms(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path)), "--out", str(out), "run", *flags]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip())
    assert err["error"] == "CliError" and message in err["message"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["suite", "calibrate", "report"])
def test_seed_outside_run_is_an_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "--out", str(out), "--seed", "99", "--quiet", command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip())
    assert err["error"] == "CliError" and "--seed" in err["message"]
    assert captured.out == ""
    assert not out.exists()


# The global flags each subcommand takes; the pairs outside this table.
TAKES = {"run": ("--config", "--out", "--scenario", "--arm", "--seed"),
         "suite": ("--config", "--out"), "calibrate": ("--config",), "report": ("--out",)}
NOT_TAKEN = [(flag, command) for command, takes in TAKES.items()
             for flag in TAKES["run"] if flag not in takes]


def test_takes_is_the_command_table_of_the_cli():
    assert {name: tuple(f"--{flag}" for flag in takes)
            for name, (_, _, takes) in _COMMANDS.items()} == TAKES


@pytest.mark.parametrize("flag, command", NOT_TAKEN, ids=lambda v: v)
def test_a_flag_a_subcommand_does_not_take_is_an_error(tmp_path, capsys, flag, command):
    values = {"--config": str(write_config(tmp_path)), "--out": str(tmp_path / "out"),
              "--scenario": "stress", "--arm": "guard", "--seed": "99"}
    argv = [arg for f in (*TAKES[command], flag) for arg in (f, values[f])]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, command]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err.strip())
    assert err["error"] == "CliError" and flag in err["message"]
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_suite_then_report_identical_markdown(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "suiteout"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "suite"]) == 0
    assert (out / "suite.csv").exists()
    first = (out / "report.md").read_text()
    assert main(["--out", str(out), "--quiet", "report"]) == 0
    assert (out / "report.md").read_text() == first
    assert "stress" in first


def test_report_errors_on_missing_csv(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "report"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "error" in err and "message" in err


def _arm_row(arm: str) -> dict:
    return {"scenario": "s", "arm": arm, "seed": 7, "initial_loss": 2.0, "final_loss": 1.0,
            "final_ppl": math.e, "wall_s": 0.0, "active_steps": 0, "regime_switches": 0,
            "control_energy": 0.0}


@pytest.mark.parametrize("arms", [
    ["baseline"],
    ["baseline", "guard", "clip"],
    ["baseline", "guard", "guard"],
])
def test_report_rejects_an_incomplete_or_extra_pair(tmp_path, capsys, arms):
    write_csv_rows([_arm_row(arm) for arm in arms], tmp_path / "suite.csv")
    assert main(["--out", str(tmp_path), "report"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert "'s'" in err["message"] and "seed 7" in err["message"]
    assert str(sorted(arms)) in err["message"]
    assert not (tmp_path / "report.md").exists()


def test_unknown_run_key_errors(tmp_path, capsys):
    # A run is a scenario's arm: a config with the old run section fails to parse.
    cfg = write_config(tmp_path, extra={"run": {"task": "toy", "steps": 30}})
    assert main(["--config", str(cfg), "--quiet", *RUN_STRESS]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert "unknown key 'run' in section 'root'" in err["message"]


@pytest.mark.parametrize("key, value", [("clip_g", [[1]]), ("steps", "x")])
def test_run_with_a_malformed_value_prints_a_config_error(tmp_path, capsys, key, value):
    scen = {"name": "stress", "kind": "lr_stress", "task": "toy", "lr": 0.05, key: value}
    cfg = write_config(tmp_path, extra={"scenarios": [scen]})
    assert main(["--config", str(cfg), "--quiet", *RUN_STRESS]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert f"invalid {key!r} in section 'scenarios[0]'" in err["message"]


def test_suite_with_a_preset_below_min_lr_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config_module, "degrading_lr", lambda *a, **k: 0.4)
    # "safe" resolves to 0.4 / 512, below min_lr.
    cfg = write_config(tmp_path, extra={
        "schedule": {"min_lr": 0.005},
        "scenarios": [{"name": "gentle", "kind": "lr_stress", "task": "toy", "steps": 30,
                       "lr": "safe", "batch_size": 8, "eval_every": 10}],
    })
    out = tmp_path / "suite_out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "suite"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "'gentle'" in err["message"]
    assert not (out / "suite.csv").exists()


# Each command that parses a config and runs, as its argv tail.
RUNNING = {"suite": ["suite"], "run": RUN_STRESS}


@pytest.mark.parametrize("command", ["suite", "run"])
def test_a_negative_min_lr_exits_before_anything_runs(tmp_path, capsys, command):
    cfg = write_config(tmp_path, extra={"schedule": {"min_lr": -0.1}})
    out = tmp_path / "never"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", *RUNNING[command]]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "section 'schedule'" in err["message"]
    # Rejected as it is parsed: not even the config echo is written.
    assert not out.exists()


def test_calibrate_outputs_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "calibrate"]) == 0
    assert json.loads(capsys.readouterr().out) == {"stress": 0.05}


def test_calibrate_prints_the_rate_the_suite_runs_at(tmp_path, capsys):
    steps = 40
    bigram = {"kind": "bigram_lm", "dims": {"alphabet": 8, "corpus_len": 256, "eval_len": 64}}
    cfg = write_config(tmp_path, extra={
        "seeds": [7, 42],
        "tasks": {"toy": bigram},
        "scenarios": [{"name": "hot", "kind": "lr_stress", "task": "toy",
                       "steps": steps, "lr": "aggressive", "eval_every": 10}],
    })
    assert main(["--config", str(cfg), "calibrate"]) == 0
    printed = json.loads(capsys.readouterr().out)
    suite = parse_config(cfg)
    assert {base.opt.lr for _, base, _ in expand_scenarios(suite)} == {printed["hot"]}
    assert printed == {"hot": max(
        calibrate_divergence_lr(TaskSpec(**bigram), probe_steps=steps, seed=s)
        for s in suite.seeds
    )}


def test_calibrate_divergence_lr_reads_the_shipped_stress_rate():
    # The lr-stress rate that `guardlab calibrate` prints for the shipped
    # config (README): one verdict rule, so the library call agrees with it.
    assert calibrate_divergence_lr(TaskSpec("bigram_lm", {}), probe_steps=1000, seed=7) == 13.1072


def test_suite_writes_the_ladders_it_calibrated_to_calibration_json(tmp_path):
    bigram = {"kind": "bigram_lm", "dims": {"alphabet": 8, "corpus_len": 256, "eval_len": 64}}
    burst = {"magnitude": 50.0, "period": 10, "mode": "gradient_burst"}
    scen = {"kind": "lr_stress", "task": "toy", "steps": 40, "eval_every": 4}
    cfg = write_config(tmp_path, extra={
        "seeds": [7, 42],
        "tasks": {"toy": bigram},
        "scenarios": [
            {**scen, "name": "hot", "lr": "aggressive"},
            {**scen, "name": "mild", "lr": "moderate"},
            {**scen, "name": "bursts", "kind": "injection", "lr": "aggressive", "clip_g": [1.0],
             "injection": burst},
            {**scen, "name": "fixed", "lr": 0.01},
        ],
    })
    out = tmp_path / "suite_out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "suite"]) == 0
    entries = json.loads((out / "calibration.json").read_text())
    assert [(e["scenarios"], e["seed"], e["steps"], e["injection"]) for e in entries] == [
        (["hot", "mild"], 7, 40, None), (["hot", "mild"], 42, 40, None),
        (["bursts"], 7, 40, burst), (["bursts"], 42, 40, burst),
    ]
    pairs = expand_scenarios(parse_config(cfg))
    # Each entry's injection rebuilds the spec of the probe it calibrated.
    probe_injections = {(s.split("/")[0], base.seed): probe_config(base).injection
                        for s, base, _ in pairs}
    for entry in entries:
        spec = entry["injection"]
        assert (spec if spec is None else InjectionSpec(**spec)) == probe_injections[
            entry["scenarios"][0], entry["seed"]]
        rungs = entry["rungs"]
        assert [r["lr"] for r in rungs] == list(LADDER_LRS)
        # The verdict is the lowest rung whose run ends degraded.
        assert entry["lr"] == next(r["lr"] for r in rungs if r["degraded"])
        for r in rungs:
            final = r["final_loss"]
            assert r["degraded"] == (not math.isfinite(final) or final > 2 * r["initial_loss"])
    with open(out / "suite.csv") as fh:
        rows = [row for row in csv.DictReader(fh) if row["arm"] == "baseline"]
    rates = {s: base.opt.lr for s, base, _ in pairs}
    for row in rows:
        if row["scenario"] in ("hot", "mild"):
            # The baseline is its rung's run: the same losses, bit for bit.
            (entry,) = [e for e in entries if e["seed"] == int(row["seed"])
                        and row["scenario"] in e["scenarios"]]
            (rung,) = [r for r in entry["rungs"] if r["lr"] == rates[row["scenario"]]]
            assert float(row["initial_loss"]) == rung["initial_loss"]
            assert float(row["final_loss"]) == rung["final_loss"]


def test_suite_with_a_malformed_value_prints_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, extra={
        "scenarios": [{"name": "stress", "kind": "clip_baseline", "task": "toy", "steps": 30,
                       "lr": 0.05, "batch_size": 8, "eval_every": 10, "clip_g": 3}],
    })
    out = tmp_path / "suite_out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "suite"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "'clip_g'" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("task", [
    {"kind": "quadratc"},
    {"kind": "quadratic", "dims": {"dimm": 4}},
])
def test_suite_with_an_unknown_task_kind_or_dim_exits_nonzero(tmp_path, capsys, task):
    cfg = write_config(tmp_path, extra={"tasks": {"toy": task}})
    out = tmp_path / "suite_out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "suite"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "tasks.toy" in err["message"]
    assert not (out / "suite.csv").exists()


@pytest.mark.parametrize("command", ["run", "suite"])
def test_an_empty_seed_list_prints_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, extra={"seeds": []})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", *RUNNING[command]]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and "'seeds'" in err["message"]
    assert not out.exists()


def test_suite_with_a_failing_pair_reports_it_and_exits_nonzero(
    tmp_path, capsys, monkeypatch, workers
):
    real_run_training = harness.run_training

    def run_training(cfg, out_dir=None):
        if cfg.label == "stress-guard":
            raise FloatingPointError("boom")
        return real_run_training(cfg, out_dir)

    monkeypatch.setattr(harness, "run_training", run_training)
    cfg = write_config(tmp_path, extra={"seeds": [7, 42]})
    out = tmp_path / "suite_out"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "suite"]) == 1
    errors = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert errors == [
        {"error": "PairFailed", "message": "FloatingPointError: boom",
         "scenario": "stress", "seed": seed}
        for seed in (7, 42)
    ]
    with open(out / "suite.csv") as fh:
        assert [row["arm"] for row in csv.DictReader(fh)] == ["error", "error"]
    assert "stress" in (out / "report.md").read_text()
