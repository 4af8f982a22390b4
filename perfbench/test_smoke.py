"""Smoke test of the benchmark on a tiny instance.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(tmp_path):
    """I x J = 4 x 2, two seeds, every method of the default experiment."""
    config = tmp_path / "tiny.json"
    config.write_text(
        json.dumps(
            {
                "scenario": {"num_tds": 4, "num_uavs": 2, "quota_uav": 2},
                "experiment": {"seeds": [1, 2]},
            }
        )
    )
    return bench.Workload(config, oracle=True)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(tiny, tmp_path, trace, group):
    result, info = bench.measure(tiny, seed=1, seconds=0.01, trace=bool(trace), root=ROOT)
    assert result["correct"], info["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 6
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert len(info["csv_sha256"]) == 64
    assert set(info["env"]) >= {"git_commit", "python", "numpy", "blas", "nproc", "blas_threads"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-default", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
