"""Every demo script runs to completion on the library in this checkout, every warning an error."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(tmp_path, script):
    # a copy, so the demo writes its CSVs under tmp_path/demos/out
    demos = tmp_path / "demos"
    shutil.copytree(REPO / "demos", demos, ignore=shutil.ignore_patterns("out"))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demos / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
