"""Smoke test: every demo script runs to completion with small arguments.

The demos import the library directly, so a renamed or reshaped public
function breaks them before any user sees it. Each runs in a fresh
interpreter, the way a reader would start it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("01_planar_enumeration.py", ["--max-m", "3"]),
    ("02_certificates.py", []),
    ("03_sharp_constants.py", []),
    ("04_grothendieck_bounds.py", ["--restarts", "4"]),
])
def test_demo_runs(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script),
                           *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
