"""Smoke test of the benchmark: every workload at its smoke size, both modes.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
(about a minute; it checks that the harness works, not how fast anything is).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONFIG = json.load(handle)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_smoke_run_prints_every_metric_and_no_errors(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    *report, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    printed = {line.split()[0] for line in report if line.startswith("  ")}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in printed
    if not trace:
        assert any(line.split()[:2] == ["error_rate", "0.0000"] for line in report)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "tall", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
