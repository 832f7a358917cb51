"""Benchmark of trisplit: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload defaults --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke        # self-test of the correctness checks

The program is imported from ``src/`` of the checkout and nowhere else.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the steadiest setting on a small machine (see README.md).
# It must be set before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh interpreters timed for setup_s, spread over the run so that the
#: median does not rest on one stretch of the machine's load
SETUP_SAMPLES = 9
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import trisplit.cli"


def import_program():
    """Import trisplit from this checkout's src/, or exit without a result."""
    if not (SRC / "trisplit" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'trisplit'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import trisplit.cli

    if not Path(trisplit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: trisplit was imported from {trisplit.__file__}, not {SRC}")


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                if hasattr(lib, symbol):
                    found[Path(path).name] = int(getattr(lib, symbol)())
                    break
    return found


def run_rounds(workload, seconds, tally, tracer=None, between=None):
    """Whole rounds until ``seconds`` have passed.

    Returns the per-round wall and CPU times.  Only ``workload.round()`` is
    timed, and only it is traced; checking its outputs, and ``between()`` if
    given, follow it.
    """
    walls, cpus = [], []
    begin = perf_counter()
    while not walls or perf_counter() - begin < seconds:
        if tracer:
            tracer.install()
        cpu = process_time()
        wall = perf_counter()
        results = tracer.round(workload.round) if tracer else workload.round()
        walls.append(perf_counter() - wall)
        cpus.append(process_time() - cpu)
        if tracer:
            tracer.uninstall()
        workload.collect(results, tally)
        del results  # not held through the next round
        if between:
            between()
    return walls, cpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("defaults", "wide", "wave"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test of the checks only")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    import_program()
    if args.smoke:
        import selftest

        return selftest.main()

    import numpy
    import scipy

    import tracing
    from workloads import WORKLOADS, Tally

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(out_dir), str(BENCH / "configs"))
    tally = Tally()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }

    if args.trace:
        walls, _ = run_rounds(workload, args.seconds / 2, tally)
        tracer = tracing.Tracer()
        traced_walls, _ = run_rounds(workload, args.seconds / 2, tally, tracer)
        rounds = len(walls) + len(traced_walls)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = tracer.metrics(overhead)
        tracer.dump(OUT / f"{args.workload}-spans.npz")
        record.update(untraced_walls=walls, traced_walls=traced_walls, spans=len(tracer.starts))
    else:
        time_setup()  # warms the file cache; not counted
        setups = [time_setup()]
        walls, cpus = run_rounds(
            workload, args.seconds, tally, between=lambda: setups.append(time_setup())
        )
        rounds = len(walls)
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup())
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        record.update(walls=walls, cpus=cpus, setups=setups)
    for _ in range(rounds):
        workload.check_fixed(tally)

    result = {
        "correct": not tally.check_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update(
        result,
        operation_failures=tally.operation_failures,
        check_failures=tally.check_failures,
    )
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in tally.operation_failures:
        print(f"OPERATION FAILED {failure}", file=sys.stderr)
    for failure in tally.check_failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
