"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hwv-symbolic", "level-m", "certify"]


def bench(*args, cwd=ROOT, run=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run), *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def metric_names(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload):
    res = result("--workload", workload, "--smoke", "--seed", "3")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == metric_names("end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [result("--workload", workload, "--smoke", "--trace", "1") for _ in range(2)]
    for res in runs:
        assert res["correct"]
        assert set(res["metrics"]) == metric_names("per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["scalars.ratq_mul"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench")
    proc = bench("--workload", "certify", "--smoke", cwd=tmp_path, run=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
