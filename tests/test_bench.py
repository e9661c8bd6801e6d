"""The benchmark's own self-test runs against the current sources."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # The self-test damages saved spaces through the library and expects
    # the benchmark's checks to notice, so a storage change that breaks
    # those damage checks fails here.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
