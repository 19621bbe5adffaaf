"""Smoke test of the benchmark command at tiny scale.

Runs every workload for one generation, untraced and traced, and checks
that each metric ``BENCHMARK.json`` names is emitted with its unit.  Run it
explicitly (it is not part of the tier-1 suite)::

    python -m pytest e2ebench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "e2ebench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_library(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: nonzero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("ota_tight", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
