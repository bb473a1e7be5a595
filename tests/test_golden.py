"""The golden manifest (tests/golden/manifest.json) reproduces: every command
line gives the recorded exit code, stdout, stderr and artifact digests.

The replay runs in one child interpreter so that it can pin one BLAS thread
before numpy loads.  A mismatch names each result field that moved, with its
relative change.  A change that moves numbers on purpose lists the moved
fields in CHANGES.md with their tolerance and rewrites the manifest with
``python tests/golden/refresh.py``.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "golden" / "refresh.py"


def test_golden_manifest_reproduces():
    done = subprocess.run([sys.executable, str(SCRIPT), "--check"], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, "golden entries moved:\n" + done.stdout + done.stderr
