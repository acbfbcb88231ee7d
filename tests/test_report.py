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
    # Every per-seed perplexity cell in the markdown equals the CSV value
    # formatted to 4 decimal places.
    for row in csv_rows:
        cell = f"{float(row['final_ppl']):.4f}"
        assert cell in report, cell


def _ppl_row(arm: str, ppl: float) -> dict:
    return {"scenario": "s", "arm": arm, "seed": 7, "initial_loss": 2.0, "final_loss": 1.0,
            "final_ppl": ppl, "wall_s": 0.0, "active_steps": 0, "regime_switches": 0,
            "control_energy": 0.0}


@pytest.mark.parametrize("b_ppl, g_ppl, cell", [
    (4.0, 2.0, "50.0%"),
    (4.0, math.inf, "n/a"),
    (4.0, math.nan, "n/a"),
    (math.inf, 2.0, "n/a"),
    (math.nan, 2.0, "n/a"),
    (0.0, 2.0, "n/a"),
])
def test_ppl_reduction_is_a_number_only_between_finite_perplexities(b_ppl, g_ppl, cell):
    report = render_report_from_csv([_ppl_row("baseline", b_ppl), _ppl_row("guard", g_ppl)])
    (line,) = [ln for ln in report.splitlines() if ln.startswith("| 7 |")]
    assert line.split(" | ")[3] == cell
    assert "inf%" not in report and "nan%" not in report
