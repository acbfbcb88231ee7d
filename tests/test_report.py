"""Report tests: CSV schema, verdict labels, markdown/CSV consistency."""

import math
import re

import pytest

from guardlab.governor import GuardConfig
from guardlab.harness import (
    ComparisonRow,
    OptimizerConfig,
    RunConfig,
    TaskSpec,
    run_training,
)
from guardlab.report import (
    CSV_COLUMNS,
    CSV_SCHEMA,
    read_suite_csv,
    render_report_from_csv,
    rows_to_csv_dicts,
    verdict,
    write_suite_csv,
)


@pytest.fixture(scope="module")
def suite_rows():
    task = TaskSpec(kind="bigram_lm", dims={"alphabet": 8, "corpus_len": 256, "eval_len": 64})
    rows = []
    for seed in (7, 42):
        base = run_training(RunConfig(task=task, opt=OptimizerConfig(lr=1e-3),
                                      steps=30, batch_size=8,
                                      eval_every=10, seed=seed, label="baseline"))
        guard = run_training(RunConfig(task=task, opt=OptimizerConfig(lr=1e-3),
                                       guard=GuardConfig(), steps=30, batch_size=8,
                                       eval_every=10, seed=seed, label="guard"))
        rows.append(ComparisonRow(scenario="demo", seed=seed,
                                  baseline=base, guarded=guard))
    return rows


def test_verdict_labels():
    assert verdict(5.0, 2.0) == "severe degradation"
    assert verdict(1.0, 2.0) == "trainable"
    assert verdict(math.inf, 2.0) == "severe degradation"


def test_csv_dicts_have_exact_columns(suite_rows):
    for d in rows_to_csv_dicts(suite_rows):
        assert tuple(d.keys()) == CSV_COLUMNS


def test_csv_round_trip(tmp_path, suite_rows):
    path = tmp_path / "suite.csv"
    write_suite_csv(suite_rows, path)
    back = read_suite_csv(path)
    assert len(back) == len(rows_to_csv_dicts(suite_rows))
    assert tuple(back[0].keys()) == CSV_COLUMNS


def test_error_row_is_written_exactly_and_read_back_typed(tmp_path):
    path = tmp_path / "suite.csv"
    write_suite_csv([ComparisonRow(scenario="broken", seed=7, baseline=None, guarded=None,
                                   error="ValueError: boom")], path)
    assert path.read_bytes() == (
        b"scenario,arm,seed,initial_loss,final_loss,final_ppl,wall_s,"
        b"active_steps,regime_switches,control_energy\r\n"
        b"broken,error,7,nan,nan,nan,nan,0,0,nan\r\n"
    )
    (row,) = read_suite_csv(path)
    assert row["scenario"] == "broken" and row["arm"] == "error" and row["seed"] == 7
    for col, kind in CSV_SCHEMA.items():
        assert type(row[col]) is kind, col
        if kind is float:
            assert math.isnan(row[col]), col
    assert row["active_steps"] == row["regime_switches"] == 0


def test_read_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("scenario,arm\nx,y\n")
    with pytest.raises(ValueError):
        read_suite_csv(path)


def test_report_numbers_match_csv_to_4dp(tmp_path, suite_rows):
    path = tmp_path / "suite.csv"
    write_suite_csv(suite_rows, path)
    csv_rows = read_suite_csv(path)
    report = render_report_from_csv(csv_rows)
    # Every per-seed loss cell in the markdown equals the CSV value
    # formatted to 4 decimal places.
    for row in csv_rows:
        for col in ("initial_loss", "final_loss"):
            cell = f"{row[col]:.4f}"
            assert f"| {cell} |" in report, (row["arm"], col, cell)


def _loss_row(arm: str, seed: int, final_loss: float) -> dict:
    return {"scenario": "s", "arm": arm, "seed": seed, "initial_loss": 2.0,
            "final_loss": final_loss, "final_ppl": math.nan, "wall_s": 0.0,
            "active_steps": 0, "regime_switches": 0, "control_energy": 0.0}


def test_report_prints_each_loss_as_its_4dp_text():
    # 1069.871 is the scale of the shipped quadratic's loss and exp(1e6)
    # overflows: the report prints a loss, never a perplexity of one.
    losses = {1: (1069.871, 1e6), 2: (math.inf, math.nan)}
    report = render_report_from_csv([_loss_row(arm, seed, loss)
                                     for seed, pair in losses.items()
                                     for arm, loss in zip(("baseline", "guard"), pair)])
    for seed, (b_loss, g_loss) in losses.items():
        (line,) = [ln for ln in report.splitlines() if ln.startswith(f"| {seed} |")]
        assert line.split(" | ")[1:4] == ["2.0000", f"{b_loss:.4f}", f"{g_loss:.4f}"]
    assert "PPL" not in report and "%" not in report
