"""Suite CSV and markdown report rendering.

The CSV is the source of truth: the markdown is rendered from CSV rows
alone (4-decimal formatting), so a report can be regenerated from existing
results without re-running anything.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

from .harness import ComparisonRow, RunRow, severe_degradation

# The suite CSV's columns, in file order, each with the type it reads back as.
CSV_SCHEMA = {
    "scenario": str,
    "arm": str,
    "seed": int,
    "initial_loss": float,
    "final_loss": float,
    "final_ppl": float,
    "wall_s": float,
    "active_steps": int,
    "regime_switches": int,
    "control_energy": float,
}
CSV_COLUMNS = tuple(CSV_SCHEMA)
# A failed pair's row: NaN in every float column, 0 in every count.
_ERROR_ROW = {col: math.nan if kind is float else kind() for col, kind in CSV_SCHEMA.items()}


def perplexity(loss: float) -> float:
    """exp(loss), inf where it overflows: the one place a loss becomes a perplexity."""
    try:
        return math.exp(loss)
    except OverflowError:
        return math.inf


def verdict(final_loss: float, initial_loss: float) -> str:
    if severe_degradation(final_loss, initial_loss):
        return "severe degradation"
    if final_loss < initial_loss:
        return "trainable"
    return "stagnant"


def result_csv_row(scenario: str, arm: str, res: RunRow) -> Dict[str, object]:
    return {
        "scenario": scenario,
        "arm": arm,
        "seed": res.seed,
        "initial_loss": res.initial_loss,
        "final_loss": res.final_loss,
        "final_ppl": perplexity(res.final_loss),
        "wall_s": res.wall_seconds,
        "active_steps": res.summary.control_active_steps,
        "regime_switches": res.summary.regime_switches,
        "control_energy": res.summary.control_energy,
    }


def rows_to_csv_dicts(rows: Sequence[ComparisonRow]) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = []
    for row in rows:
        if row.error is not None:
            out.append({**_ERROR_ROW, "scenario": row.scenario, "arm": "error", "seed": row.seed})
            continue
        out.append(result_csv_row(row.scenario, "baseline", row.baseline))
        out.append(result_csv_row(row.scenario, "guard", row.guarded))
    return out


def write_csv_rows(csv_dicts: Sequence[Dict[str, object]], path: Path) -> None:
    """Write CSV_COLUMNS rows (as from result_csv_row) under one header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
        writer.writeheader()
        writer.writerows(csv_dicts)


def write_suite_csv(rows: Sequence[ComparisonRow], path: Path) -> None:
    write_csv_rows(rows_to_csv_dicts(rows), path)


def read_suite_csv(path: Path) -> List[Dict[str, object]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"unexpected suite CSV columns in {path}")
        return [{col: kind(raw[col]) for col, kind in CSV_SCHEMA.items()} for raw in reader]


def _f(x: float) -> str:
    return f"{x:.4f}"


def render_report_from_csv(csv_rows: Sequence[Dict[str, object]]) -> str:
    """Markdown report: one table per scenario, a row per seed with each
    arm's losses and verdict, from rows typed by CSV_SCHEMA (as
    read_suite_csv returns them).

    Each (scenario, seed) must be exactly one error row or one baseline row
    and one guard row; any other group is a ValueError naming it."""
    if not csv_rows:
        raise ValueError("report requires at least one row")
    by_scenario: Dict[str, Dict[int, List[dict]]] = defaultdict(lambda: defaultdict(list))
    for row in csv_rows:
        by_scenario[row["scenario"]][row["seed"]].append(row)

    lines = ["# Stress suite report", ""]
    for scenario in sorted(by_scenario):
        lines.append(f"## {scenario}")
        lines.append("")
        lines.append(
            "| seed | initial loss | baseline loss | guard loss | baseline verdict | guard verdict |"
        )
        lines.append("|---|---|---|---|---|---|")
        for seed in sorted(by_scenario[scenario]):
            group = sorted(by_scenario[scenario][seed], key=lambda row: row["arm"])
            arms = [row["arm"] for row in group]
            if arms == ["error"]:
                lines.append(f"| {seed} | run error | | | | |")
                continue
            if arms != ["baseline", "guard"]:
                raise ValueError(f"scenario {scenario!r} seed {seed}: expected one error row or "
                                 f"one baseline and one guard row, found arms {arms}")
            base, guard = group
            lines.append(
                f"| {seed} | {_f(base['initial_loss'])} | {_f(base['final_loss'])} | "
                f"{_f(guard['final_loss'])} | "
                f"{verdict(base['final_loss'], base['initial_loss'])} | "
                f"{verdict(guard['final_loss'], guard['initial_loss'])} |"
            )
        lines.append("")
    return "\n".join(lines)
