"""Tiny-size runs of every workload through the benchmark's own command."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.tracing import PER_LAYER_UNITS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_complete(workload, trace):
    res = run_bench(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


def test_repeated_seed_keeps_digests_and_counts():
    first = run_bench(ROOT, "ex1_campaign", 1, seed=5)
    second = run_bench(ROOT, "ex1_campaign", 1, seed=5)
    for res in (first, second):
        assert json.loads(res.stdout.strip().splitlines()[-1])["correct"] is True, res.stdout
    record = json.loads((ROOT / "perfbench/_results/ex1_campaign-tiny-seed5-trace1.json").read_text())
    assert record["counts"]["0"]["eval_calls"] == 11


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "ex3_suggest", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert res.stdout == ""
