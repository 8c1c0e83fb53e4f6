"""Tests for the demo scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_curves_demo_leaves_no_temp_files(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / "03_isotropic_werner_curves.py")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert f"wrote {tmp_path}" in run.stdout
    assert list(tmp_path.iterdir()) == []
