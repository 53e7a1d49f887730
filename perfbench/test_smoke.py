"""Smoke tests of the benchmark in its fast mode (level 3, a few steps).

Every workload and the traced suite run end to end and must print the
result line ``BENCHMARK.json`` promises.  Run from the checkout root::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    out = result_line(run_bench(workload, 0))
    assert units(out["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert out["metrics"]["success_rate"]["value"] == 1.0


def test_traced_suite_prints_every_per_layer_metric():
    proc = run_bench(SPEC["workloads"][0]["name"], 1)
    metrics = result_line(proc)["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["swm.kernel_coverage_pct"]["value"] >= 90.0
    assert metrics["pool.exchanges_per_step"]["value"] == 4
    assert metrics["engine.fallback_per_step"]["value"] == 4
    assert metrics["jobs.dedup_hits"]["value"] == 1
    assert metrics["ensemble.survivor_ratio"]["value"] == 1.0
    assert "Traced serial step" in proc.stdout and "Pool ranks" in proc.stdout


def test_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and the benchmark, there is nothing to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
