"""Smoke test of the benchmark: every workload in quick mode, checks included.

    python -m pytest perfbench/test_quick.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dbgen
import streams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_quick_run_is_correct_and_complete(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_same_seed_same_statements():
    model = dbgen.Model(100, 5, 1989)
    for workload in streams.WORKLOADS:
        plans = [streams.make_plan(workload, model, 7, 4, 2, 20, 4) for __ in range(2)]
        assert plans[0] == plans[1]
        other = streams.make_plan(workload, model, 8, 4, 2, 20, 4)
        assert other.statements == plans[0].statements
        assert other.streams != plans[0].streams


def test_every_check_rejects_a_corrupted_row():
    assert streams.self_test(dbgen.Model(100, 5, 1989)) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "path_read", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
