"""Tests for the demo scripts: each runs to exit 0 and leaves no temp files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CURVES_DEMO = ROOT / "demos" / "03_isotropic_werner_curves.py"
OTHER_DEMOS = sorted(set((ROOT / "demos").glob("*.py")) - {CURVES_DEMO})


def run_demo(demo: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    """Run ``demo`` with its temp dir in ``tmp_path``; it must exit 0 and leave it empty."""
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert list(tmp_path.iterdir()) == []
    return run


def test_curves_demo_leaves_no_temp_files(tmp_path):
    assert f"wrote {tmp_path}" in run_demo(CURVES_DEMO, tmp_path).stdout


@pytest.mark.parametrize("demo", OTHER_DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    run_demo(demo, tmp_path)
