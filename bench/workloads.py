"""The three workloads.

Each workload makes its inputs from the seed when it is built, runs the
program in ``round()`` (the timed section) and checks that round's outputs in
``collect()`` right after it, keeping only the tally, so that the memory held
during the rounds does not grow with their number.  The checks that call the
program on fixed inputs of their own, to compare with an independent
computation, are in ``check_fixed()``; it runs once per round after the
rounds, once the peak memory has been read.  Every round, checks included,
repeats exactly the same operations, so the share of failed operations does
not depend on how many rounds a run fits in.

The program is always reached through module attributes
(``trisplit.cli.main``, ``trisplit.matrix_core.solve_...``) so that the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import oracles
from tracing import rebind, restore

import trisplit.cli
import trisplit.duhamel
import trisplit.harness
import trisplit.matrix_core
import trisplit.schrodinger
import trisplit.splitting

NOMINAL_ORDERS = {"lie-trotter": 1.0, "strang": 2.0}

#: slack of the shipped verify-bound config
BOUND_SLACK = 1e-9


class Tally:
    """Operations attempted and failed, and the checks that did not pass.

    An operation fails when the program raises; a check fails when an
    operation that did not fail gave a wrong output.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.operation_failures = []
        self.check_failures = []

    def operation(self, label: str, error=None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.operation_failures.append(f"{label}: raised {error!r}")

    def check(self, label: str, outcome) -> None:
        passed, detail = outcome
        self.attempted += 1
        if not passed:
            self.check_failures.append(f"{label}: {detail}")


@contextlib.contextmanager
def recording(original, sink):
    """Append every result of ``original`` to ``sink``, wherever it is bound."""

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    undo = rebind(original, record)
    try:
        yield
    finally:
        restore(undo)


class CliCall:
    """One ``trisplit.cli.main`` call with JSON artifacts in its own directory."""

    def __init__(self, label, argv, expected_rc, out_dir):
        self.label = label
        self.argv = list(argv)
        self.expected_rc = expected_rc
        self.out_dir = os.path.join(out_dir, label)
        self.artifact = os.path.join(self.out_dir, argv[0].replace("-", "_") + ".json")
        self.take_artifact()  # a stale one from an earlier run must not count

    def take_artifact(self):
        """The artifact the last call wrote, read and removed, or None."""
        if not os.path.exists(self.artifact):
            return None
        with open(self.artifact, encoding="ascii") as fh:
            rows = json.load(fh)
        os.remove(self.artifact)
        return rows

    def run(self):
        studies = []
        stream = io.StringIO()
        argv = [*self.argv, "--out", self.out_dir, "--format", "json"]
        rc = error = None
        try:
            with recording(trisplit.harness.run_convergence, studies), contextlib.redirect_stdout(
                stream
            ), contextlib.redirect_stderr(stream):
                rc = trisplit.cli.main(argv)
        except (Exception, SystemExit) as exc:
            error = exc
        return {"rc": rc, "error": error, "studies": studies, "output": stream.getvalue()}


class CliWorkload:
    """A round is a fixed list of CLI calls; subclasses check their outputs."""

    calls = ()

    def round(self):
        return [call.run() for call in self.calls]

    def collect(self, results, tally):
        for call, result in zip(self.calls, results):
            result["artifact"] = call.take_artifact()
            tally.operation(call.label, result["error"])
            if result["error"] is not None:
                continue
            ok = result["rc"] == call.expected_rc
            detail = f"exit {result['rc']!r}, expected {call.expected_rc}: {result['output'][-400:]}"
            tally.check(call.label, (ok, detail))
            written = result["artifact"] is not None
            tally.check(call.label, (written, f"no artifact {call.artifact}"))
            if ok and written:
                getattr(self, "_check_" + call.label.replace("-", "_"))(call, result, tally)

    def _check_convergence(self, call, result, tally):
        schemes = set()
        for study in result["studies"]:
            scheme = study.metadata["scheme"]
            schemes.add(scheme)
            tally.check(
                f"{call.label} {scheme} seed={study.metadata['seed']}",
                oracles.study_ok(study, NOMINAL_ORDERS[scheme]),
            )
        tally.check(f"{call.label} schemes", (schemes == set(NOMINAL_ORDERS), sorted(schemes)))

    def _check_schrodinger_bench(self, call, result, tally):
        rows = result["artifact"]
        tally.check(call.label, oracles.order_ok([(r["h"], r["L2_error"]) for r in rows], 2.0))
        tally.check(call.label, oracles.norm_defects_ok([r["norm_defect"] for r in rows]))


class Defaults(CliWorkload):
    """Every subcommand at its shipped default config, seeded by the workload."""

    name = "defaults"

    #: dims and times of the widened Duhamel triples checked every round
    ORACLE_CASES = ((4, 0.25), (8, 0.5), (12, 0.25), (16, 0.5))

    def __init__(self, seed, out_dir, configs):
        s = str(seed)
        self.calls = (
            CliCall("certify-algebra", ["certify-algebra"], 0, out_dir),
            CliCall("certify-fault", ["certify-algebra", "--inject-fault"], 1, out_dir),
            CliCall("convergence", ["convergence", "--seed", s], 0, out_dir),
            CliCall("verify-duhamel", ["verify-duhamel", "--seed", s], 0, out_dir),
            CliCall("verify-bound", ["verify-bound", "--seed", s], 0, out_dir),
            CliCall("schrodinger-bench", ["schrodinger-bench", "--seed", s], 0, out_dir),
        )
        rng = np.random.default_rng([seed, 1])
        self.oracle_triples = [
            (oracles.widened_triple(rng, n), t) for n, t in self.ORACLE_CASES
        ]

    def _check_certify_algebra(self, call, result, tally):
        rows = result["artifact"]
        tally.check(call.label, (all(r["passed"] for r in rows), rows))

    def _check_certify_fault(self, call, result, tally):
        rows = result["artifact"]
        tally.check(call.label, (not all(r["passed"] for r in rows), rows))

    def _check_verify_duhamel(self, call, result, tally):
        for row in result["artifact"]:
            tally.check(call.label, oracles.duhamel_row_ok(row))

    def _check_verify_bound(self, call, result, tally):
        for row in result["artifact"]:
            tally.check(call.label, oracles.bound_row_ok(row, BOUND_SLACK))

    def check_fixed(self, tally):
        for (p1, p2, p3), t in self.oracle_triples:
            label = f"widened triple dim {len(p1)} t={t}"
            try:
                represented = trisplit.duhamel.duhamel_error(p1, p2, p3, t)
            except Exception as exc:
                tally.operation(label, exc)
                continue
            tally.operation(label)
            tally.check(label, oracles.duhamel_matches(p1, p2, p3, t, represented))


class Wide:
    """Constrained triples at dims where the constraint solve dominates."""

    name = "wide"
    DIMS = (24, 28, 32)
    PER_DIM = 2
    TIMES = (0.1, 0.5, 1.0)

    def __init__(self, seed, out_dir, configs):
        rng = np.random.default_rng([seed, 2])
        self.pairs = [
            (oracles.random_skew_hermitian(rng, n), oracles.random_skew_hermitian(rng, n))
            for n in self.DIMS
            for _ in range(self.PER_DIM)
        ]

    def round(self):
        mc, sp, du = trisplit.matrix_core, trisplit.splitting, trisplit.duhamel
        results = []
        for p1, p2 in self.pairs:
            try:
                p3 = mc.solve_second_order_constraint(p1, p2)
                rows = []
                for t in self.TIMES:
                    error = sp.triple_splitting_error(p1, p2, p3, t)
                    rows.append((t, error, mc.op_norm(error), du.error_bound(p1, p2, p3, t)))
                results.append((p3, rows))
            except Exception as exc:
                results.append(exc)
        return results

    def collect(self, results, tally):
        for (p1, p2), result in zip(self.pairs, results):
            label = f"dim {len(p1)}"
            if isinstance(result, Exception):
                tally.operation(label, result)
                continue
            tally.operation(label)
            p3, rows = result
            tally.check(label, oracles.constraint_holds(p1, p2, p3))
            tally.check(label, oracles.is_min_norm_solution(p1, p2, p3))
            for t, error, measured, bound in rows:
                tally.check(f"{label} t={t}", oracles.error_matches(p1, p2, p3, t, error))
                tally.check(f"{label} t={t}", oracles.bound_holds(p1, p2, p3, t, measured, bound))

    def check_fixed(self, tally):
        """Every check of this workload is made on the round's own outputs."""


class Wave(CliWorkload):
    """The wave-equation convergence study and a wide-grid split-step benchmark."""

    name = "wave"
    #: grid sizes of the free-Gaussian check; the workload's two grids
    FREE_GRIDS = (256, 2048)

    def __init__(self, seed, out_dir, configs):
        s = str(seed)
        self.calls = (
            CliCall(
                "convergence",
                ["convergence", "--config", os.path.join(configs, "wave-convergence.ini"), "--seed", s],
                0,
                out_dir,
            ),
            CliCall(
                "schrodinger-bench",
                ["schrodinger-bench", "--config", os.path.join(configs, "wave-bench.ini"), "--seed", s],
                0,
                out_dir,
            ),
        )
        rng = np.random.default_rng([seed, 3])
        self.sigma = float(rng.uniform(0.8, 1.2))
        self.horizon = float(rng.uniform(0.5, 1.0))

    def check_fixed(self, tally):
        sch = trisplit.schrodinger
        for points in self.FREE_GRIDS:
            label = f"free Gaussian on {points} points"
            try:
                grid = sch.Grid1D(10.0, points)
                zero = np.zeros(points)
                free = sch.Potential(zero, zero, zero, grid)
                initial = sch.gaussian_packet(grid, sigma=self.sigma)
                final = sch.evolve(initial, free, self.horizon, 8, trisplit.splitting.make_strang())
            except Exception as exc:
                tally.operation(label, exc)
                continue
            tally.operation(label)
            tally.check(label, oracles.free_evolution_ok(final.samples, grid.x, self.sigma, self.horizon))


WORKLOADS = {w.name: w for w in (Defaults, Wide, Wave)}
