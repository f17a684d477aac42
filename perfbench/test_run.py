"""Tests of the benchmark itself (not part of the library suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_smoke_reports_every_named_metric_with_its_unit():
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    combined = json.loads(run.stdout.strip().splitlines()[-1])
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(combined) == sorted(f"{n}/trace{t}" for n in names for t in (0, 1))
    for key, result in combined.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, key
        expected = _units(SPEC["per_layer"] if key.endswith("trace1") else SPEC["end_to_end"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, key
        if key.endswith("trace0"):
            assert all(v["value"] > 0 for v in result["metrics"].values()), key


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert run.returncode != 0
    assert run.stdout.strip() == ""
