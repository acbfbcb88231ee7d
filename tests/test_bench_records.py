"""The committed benchmark records: one BENCH_<workload>.json at the repo root
for every workload BENCHMARK.json declares, each a correct run with no
failures that reports exactly the declared end-to-end metrics. Reads the
files only; it runs no benchmark."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_has_a_correct_bench_record(workload):
    path = ROOT / f"BENCH_{workload}.json"
    assert path.is_file(), f"{path.name} is missing"
    record = json.loads(path.read_text())
    assert record["workload"] == workload
    result = record["result"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
