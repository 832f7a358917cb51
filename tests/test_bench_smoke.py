"""The benchmark's self-test runs against this checkout's program.

A change that breaks what ``bench/`` imports from ``src/`` fails here rather
than only when the benchmark itself is run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    # no bytecode is written, so the run leaves bench/ untouched
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 wrong" in proc.stdout
