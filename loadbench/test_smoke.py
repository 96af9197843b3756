"""The benchmark's own tests: every workload end to end on a tiny graph.

Run from the repository root (the repository's default test run does not
collect this directory)::

    python3 -m pytest loadbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_checked_metrics(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("lone", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
