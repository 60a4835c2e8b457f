"""The benchmark's own checks.

Run from the repository root (about four minutes on two cores)::

    python3 -m pytest -q bench/test_bench.py

Work counts do not depend on the seed: ``enumerate-5`` and ``verify-4``
have no seeded input, and every ``queries`` pass runs the whole pool, so
two traced runs with different seeds must report exactly equal counts
and ratios on every workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result["metrics"]


def _work(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_across_seeds(workload):
    first, second = _result(workload, 1, 1), _result(workload, 2, 1)
    assert sorted(first) == sorted(m["name"] for m in SPEC["per_layer"])
    assert _work(first) == _work(second)
    if workload == "enumerate-5":
        assert first["catalog.leaves"]["value"] == 453_320
        assert first["catalog.relabels"]["value"] == 4_344
    if workload == "verify-4":
        assert first["kites.power_gpea.calls"]["value"] == 124


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _result("queries", 1, 0)
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("queries", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
