"""The benchmark's own tests: every workload at a tiny size, through run.main."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import hostspeed, run, tracing, workloads
from guardlab import governor, harness

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(capsys, workload: str, trace: int) -> tuple:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, size="tiny") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_and_checks(capsys, workload):
    lines, result = _main(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("digest sha256=") for line in lines)
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    assert any(line.startswith("env ") and "loadavg_end" in line for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_same_digest(capsys, workload):
    lines, result = _main(capsys, workload, trace=1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert not any(v.get("absent") for v in result["metrics"].values())
    # One digest line: the untraced and traced units produced identical outputs.
    assert sum(line.startswith("digest sha256=") for line in lines) == 1


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(spec) for spec in tracing.METRIC_SPECS
    ]


def test_traced_and_untraced_units_give_equal_digests(tmp_path):
    prep = workloads.prepare("train-bigram-burst", 11, "tiny")
    plain = workloads.run_unit(prep, tmp_path)
    tracer = tracing.Tracer()
    traced = workloads.run_unit(prep, tmp_path, tracer)
    assert plain.failures == [] and traced.failures == []
    assert plain.digest == traced.digest
    assert tracer.units == 1 and tracer.stats["governor.observe"].calls > 0
    assert harness.run_training.__name__ == "run_training"
    assert not hasattr(harness.run_training, "__wrapped__")


def test_missing_name_is_reported_absent(tmp_path):
    spans = [s if s[0] != "tasks.sample_batch" else (s[0], s[1], None, "no_such_function")
             for s in tracing.SPANS]
    tracer = tracing.Tracer(spans + [("x.gone", "guardlab.no_such_module", None, "f")])
    prep = workloads.prepare("train-quadratic-benign", 5, "tiny")
    assert workloads.run_unit(prep, tmp_path, tracer).failures == []
    assert tracer.absent == {"tasks.sample_batch", "x.gone"}
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert metrics["tasks.sample_batch.us"] == {"value": None, "unit": "us", "absent": True}
    assert metrics["rngstream.generator.us"]["value"] > 0


def test_record_checks_catch_broken_invariants():
    records = [
        governor.StepRecord(step=0, loss=1.0, loss_ema=1.0, regime=governor.Regime.STABLE,
                            scale=1.0, active=False, skipped=False, grad_rms=None, lr=0.1),
        governor.StepRecord(step=1, loss=2.0, loss_ema=1.0, regime=governor.Regime.SPIKE,
                            scale=0.5, active=True, skipped=False, grad_rms=None, lr=0.1),
    ]
    summary = governor.summarize_records(records)
    assert workloads.check_records(records, summary, c_min=0.05) == []
    assert workloads.check_records(records, summary, c_min=0.6) == [
        "scale outside [c_min=0.6, 1]"]
    skipped = records[:1] + [replace(records[1], skipped=True)]
    assert "skipped step with finite loss" in workloads.check_records(
        skipped, governor.summarize_records(skipped), c_min=0.05)
    assert workloads.check_records(records, replace(summary, regime_switches=0), 0.05) == [
        "summary differs from summarize_records over the log"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_speed_samples_while_its_block_runs():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 5 and 0.1 < speed.slowdown() < 10.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert hostspeed.HostSpeed().slowdown() == 1.0
