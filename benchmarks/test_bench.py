"""Tests of the benchmark itself: smoke runs, exact counts, negative controls.

Run from the repository root (not part of tier-1; about a minute):

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def _names(key):
    return {m["name"] for m in SPEC[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    proc, result = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exact_counts(workload):
    runs = [bench("--workload", workload, "--seed", "5", "--trace", "1") for _ in range(2)]
    for proc, result in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert result["correct"] is True
        assert set(result["metrics"]) == _names("per_layer")
    exact = [
        {k: v["value"] for k, v in result["metrics"].items() if k.startswith("exact.")}
        for _, result in runs
    ]
    assert exact[0] == exact[1]
    assert all(value > 0 for value in exact[0].values())
    assert (BENCH_DIR / ".out" / f"trace-{workload}.jsonl").is_file()


@pytest.mark.parametrize(
    "workload, fault",
    [("verify_shared", "success_probability"), ("run_fresh", "verdict"),
     ("cli_cold", "success_probability")],
)
def test_injected_fault_shows_as_failed_ops(workload, fault):
    proc, result = bench("--workload", workload, "--seed", "3", "--trace", "0",
                         "--inject-fault", fault)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["verified_op_ratio"]["value"] == 0.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc, result = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0",
                         cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
