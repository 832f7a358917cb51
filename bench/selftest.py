"""Self-test of the correctness checks: ``python3 bench/run.py --smoke``.

Each check must accept a true output of the program and reject a corrupted
one.  The inputs are small, so the whole test takes a few seconds.
"""

from __future__ import annotations

import numpy as np

import oracles

import trisplit.duhamel
import trisplit.harness
import trisplit.matrix_core
import trisplit.schrodinger
import trisplit.splitting


def main() -> int:
    outcomes = []

    def expect(label, want, outcome):
        passed, detail = outcome
        good = passed == want
        outcomes.append(good)
        verdict = "accepts" if passed else "rejects"
        print(f"{'ok  ' if good else 'FAIL'} {verdict} {label}: {detail}")

    mc, sp, du = trisplit.matrix_core, trisplit.splitting, trisplit.duhamel
    rng = np.random.default_rng(0)

    # the integral representation, on a triple off the minimum-norm point
    p1, p2, p3 = oracles.widened_triple(rng, 4)
    t = 0.25
    represented = du.duhamel_error(p1, p2, p3, t)
    expect("duhamel_error", True, oracles.duhamel_matches(p1, p2, p3, t, represented))
    expect("negated duhamel_error", False, oracles.duhamel_matches(p1, p2, p3, t, -represented))

    # the constraint solver
    q1 = oracles.random_skew_hermitian(rng, 6)
    q2 = oracles.random_skew_hermitian(rng, 6)
    q3 = mc.solve_second_order_constraint(q1, q2)
    moved = q3 + 1e-6 * oracles.random_skew_hermitian(rng, 6)
    _, u = np.linalg.eigh(-1j * (q1 + q2))
    other = q3 + u @ np.diag(1j * rng.standard_normal(6)) @ u.conj().T
    expect("solved P3 on the constraint", True, oracles.constraint_holds(q1, q2, q3))
    expect("solved P3 as the minimum-norm solution", True, oracles.is_min_norm_solution(q1, q2, q3))
    expect("P3 moved off the constraint", False, oracles.constraint_holds(q1, q2, moved))
    expect("P3 moved off the minimum-norm point", False, oracles.is_min_norm_solution(q1, q2, moved))
    expect("another solution on the constraint", True, oracles.constraint_holds(q1, q2, other))
    expect("another solution as minimum-norm", False, oracles.is_min_norm_solution(q1, q2, other))

    # the measured error and the bound
    t = 0.5
    error = sp.triple_splitting_error(q1, q2, q3, t)
    measured = mc.op_norm(error)
    bound = du.error_bound(q1, q2, q3, t)
    expect("triple_splitting_error", True, oracles.error_matches(q1, q2, q3, t, error))
    expect("negated splitting error", False, oracles.error_matches(q1, q2, q3, t, -error))
    expect("error_bound", True, oracles.bound_holds(q1, q2, q3, t, measured, bound))
    expect("halved error_bound", False, oracles.bound_holds(q1, q2, q3, t, measured, bound / 2))

    # campaign rows
    row = {"instance": 0, "t": t, "measured_error_norm": measured, "duhamel_norm": measured,
           "bound_value": bound, "sign_factor": 1, "discrepancy": 1e-14}
    expect("verify-duhamel row", True, oracles.duhamel_row_ok(row))
    expect("verify-duhamel row with sign -1", False, oracles.duhamel_row_ok({**row, "sign_factor": -1}))
    expect("verify-duhamel row with discrepancy 1e-3", False,
           oracles.duhamel_row_ok({**row, "discrepancy": 1e-3}))
    bound_row = {"instance": 0, "t": t, "measured": measured, "bound": bound}
    expect("verify-bound row", True, oracles.bound_row_ok(bound_row, 1e-9))
    expect("verify-bound row over its bound", False,
           oracles.bound_row_ok({**bound_row, "measured": 2 * bound}, 1e-9))

    # wave orders, from a small wave study
    study = trisplit.harness.ConvergenceStudy(
        problem="schrodinger", scheme_name="strang",
        step_sizes=(2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6), horizon=0.5, seed=0, points=64,
    )
    bench_rows, result = trisplit.harness.run_schrodinger_benchmark(study)
    rows = [(r.h, r.l2_error) for r in bench_rows]
    steeper = [(h, e * h**0.5) for h, e in rows]
    expect("strang wave errors at order 2", True, oracles.order_ok(rows, 2.0))
    expect("wave errors with slope moved by 1/2", False, oracles.order_ok(steeper, 2.0))
    expect("strang wave study", True, oracles.study_ok(result, 2.0))
    expect("strang wave study against order 1", False, oracles.study_ok(result, 1.0))
    expect("wave norm defects", True, oracles.norm_defects_ok([r.norm_defect for r in bench_rows]))
    expect("a norm defect of 1e-6", False, oracles.norm_defects_ok([1e-6]))

    # the free Gaussian of i u_t = (1/2) u_xx
    sch = trisplit.schrodinger
    grid = sch.Grid1D(10.0, 256)
    zero = np.zeros(grid.points)
    final = sch.evolve(sch.gaussian_packet(grid, sigma=1.0), sch.Potential(zero, zero, zero, grid),
                       0.75, 8, sp.make_strang())
    expect("evolve with a zero potential", True,
           oracles.free_evolution_ok(final.samples, grid.x, 1.0, 0.75))
    expect("the flow of i u_t = -(1/2) u_xx", False,
           oracles.free_evolution_ok(final.samples.conj(), grid.x, 1.0, 0.75))

    failures = outcomes.count(False)
    print(f"{'PASS' if not failures else 'FAIL'} self-test: {len(outcomes)} cases, {failures} wrong")
    return 1 if failures else 0
