"""The narrative demos run to completion.

Demos 01, 02, 03 and 05 take about 2 s together.  Demo 04 takes about 10 s
(its t^3 fit needs a long horizon grid) and is left out; run it by hand after
changing the modules it calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_spectral_constants.py", "02_theoretical_bounds.py",
                                  "03_singular_spaces.py", "05_null_control.py"])
def test_demo_exits_0(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
