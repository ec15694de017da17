"""The benchmark's own self-test passes, so that a change that breaks a
workload or a traced layer fails here, not only in a benchmark run.

The self-test runs every workload at a tiny size and writes only under
the ignored ``.perfbench_out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
