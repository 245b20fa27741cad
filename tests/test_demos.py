"""Every demo runs to the end in its own interpreter: exit 0, no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import foliacoh

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(foliacoh.__file__).resolve().parent.parent)


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else os.pathsep.join([SRC, path]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout
