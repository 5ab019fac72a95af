"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@cache
def result(workload: str, trace: int) -> dict:
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_named_and_no_failures(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_layer_isolation():
    def layer(workload, name):
        return result(workload, 1)["metrics"][name]["value"]

    assert layer("prob_mass", "kernels.words") == 0
    assert layer("enum_large", "probabilistic.measure_calls") == 0
    assert layer("many_small", "kernels.words") > 0
    assert layer("many_small", "procedures.runs") > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
