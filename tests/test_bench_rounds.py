"""One checked round of each benchmark workload runs against this checkout.

Each workload of ``bench/workloads.py`` is built with its artifacts under the
test's temporary directory, then runs ``round()``, ``collect()`` and
``check_fixed()`` once, so a change that breaks a workload's correctness
checks fails here and not only when the benchmark itself is run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ONE_ROUND = """
import json, sys
bench, src, out = sys.argv[1:]
sys.path[:0] = [bench, src]
from workloads import WORKLOADS, Tally
for name in ("defaults", "wide", "wave"):
    workload = WORKLOADS[name](1, f"{out}/{name}", f"{bench}/configs")
    tally = Tally()
    workload.collect(workload.round(), tally)
    workload.check_fixed(tally)
    failures = tally.operation_failures + tally.check_failures
    print(json.dumps([name, tally.attempted, tally.failed, failures]))
"""


def test_one_round_of_each_workload_passes_its_checks(tmp_path):
    # no bytecode is written and the artifacts go to tmp_path, so bench/ is untouched
    blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **blas)
    argv = [sys.executable, "-c", ONE_ROUND, str(ROOT / "bench"), str(ROOT / "src"), str(tmp_path)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rounds = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [name for name, *_ in rounds] == ["defaults", "wide", "wave"]
    for name, attempted, failed, failures in rounds:
        assert attempted > 0, name
        assert (failed, failures) == (0, []), name
