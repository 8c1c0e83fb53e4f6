"""Smoke test: the harness runs in tiny mode and prints the declared schema.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_FIELDS = {"git_sha", "python", "numpy", "blas", "blas_threads", "nproc", "pinned_cpu",
              "cpu", "l2", "l3", "seed", "samples", "tail_percentile", "tail_beyond"}


def run(workload: str, trace: int) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("env = "):]) for ln in lines if ln.startswith("env = "))
    return json.loads(lines[-1]), env, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_schema(workload, trace):
    result, env, stdout = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] is (result["failed"] == 0)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    assert ENV_FIELDS <= set(env)
    assert env["workload"] == workload and env["seed"] == 5
    # Every end-to-end metric is printed by name and unit, fail_frac included.
    for m in SPEC["end_to_end"] + [{"name": "fail_frac", "unit": "ratio"}]:
        assert f"{m['name']} = " in stdout and f" {m['unit']}" in stdout


def test_missing_sources_fail(tmp_path):
    """Without the library next to it the harness exits non-zero, printing no result."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "cli_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
