"""Shipping gate: one test per advertised guarantee, at the advertised
tolerances, each printing a single PASS/FAIL line (run with -s to see them
live).  Every test also enforces its runtime budget.  Criterion 8 has a
self-test: faults planted in the commutator it checks must fail it.
"""

import time

import numpy as np
import pytest

from trisplit.duhamel import QuadratureSpec, duhamel_error, z_integral
from trisplit.harness import (
    ConvergenceStudy,
    certify_algebra,
    derive_seeds,
    run_convergence,
    sample_constrained_triple,
    verify_bound,
    verify_duhamel,
)
from trisplit.matrix_core import expm, op_norm, random_skew_hermitian
from trisplit import harness, schrodinger
from trisplit.schrodinger import (
    Grid1D,
    WaveFunction,
    Potential,
    evolve,
    free_gaussian_evolution,
    gaussian_packet,
    spectral_derivative,
)
from trisplit.splitting import (
    leading_error_E3,
    make_strang,
    triple_splitting_error,
)

MASTER_SEED = 20260819


def report(number, ok, detail, elapsed, budget):
    tag = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"{tag} criterion {number}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, detail
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_algebra_certification():
    start = time.perf_counter()
    result = certify_algebra()
    elapsed = time.perf_counter() - start
    report(
        1,
        all(check.passed for check in result),
        f"exact-rational certification, {len(result)} checks all green",
        elapsed,
        budget=1.0,
    )


def test_criterion_2_matrix_convergence_orders():
    start = time.perf_counter()
    steps = tuple(2.0**-k for k in range(4, 10))
    windows = {"lie-trotter": (0.9, 1.1), "strang": (1.9, 2.1)}
    fitted = {}
    ok = True
    for scheme_name, (lo, hi) in windows.items():
        orders = []
        for child in derive_seeds(MASTER_SEED, 5):
            study = ConvergenceStudy(
                "matrix", scheme_name, steps, horizon=1.0, seed=child, dim=8,
                expected_order={"lie-trotter": 1.0, "strang": 2.0}[scheme_name],
            )
            result = run_convergence(study)
            orders.append(result.fitted_order)
            ok = ok and result.passed and lo <= result.fitted_order <= hi
            ok = ok and result.fit_r2 >= 0.999
        fitted[scheme_name] = (min(orders), max(orders))
    elapsed = time.perf_counter() - start
    report(
        2,
        ok,
        "5-seed 8x8 orders lie-trotter in {:.3f}..{:.3f}, strang in {:.3f}..{:.3f}".format(
            *fitted["lie-trotter"], *fitted["strang"]
        ),
        elapsed,
        budget=10.0,
    )


def test_criterion_3_leading_error_extrapolation():
    start = time.perf_counter()
    times = (2.0**-6, 2.0**-7, 2.0**-8)
    worst_rel = 0.0
    worst_form_gap = 0.0
    ok = True
    for child in derive_seeds(MASTER_SEED + 3, 10):
        p1, p2, p3 = sample_constrained_triple(6, child)
        a0, a1, a2 = (triple_splitting_error(p1, p2, p3, t) / t**3 for t in times)
        b0 = 2 * a1 - a0
        b1 = 2 * a2 - a1
        extrapolated = (4 * b1 - b0) / 3
        series = leading_error_E3(p1, p2, p3, form="series")
        integral = leading_error_E3(p1, p2, p3, form="integral")
        rel = op_norm(extrapolated - series) / op_norm(series)
        form_gap = op_norm(series - integral) / op_norm(series)
        worst_rel = max(worst_rel, rel)
        worst_form_gap = max(worst_form_gap, form_gap)
        ok = ok and rel <= 1e-4 and form_gap <= 1e-10
    elapsed = time.perf_counter() - start
    report(
        3,
        ok,
        f"10 triples: extrapolation gap <= {worst_rel:.2e} (tol 1e-4), "
        f"closed-form gap <= {worst_form_gap:.2e} (tol 1e-10)",
        elapsed,
        budget=10.0,
    )


def test_criterion_4_duhamel_representation():
    # the campaign's gate is fixed in code; loosening it means editing this line
    assert harness.DISCREPANCY_TOL == 1e-6
    start = time.perf_counter()
    campaign = verify_duhamel(count=20, dim=4, t_list=(0.25, 0.5), seed=MASTER_SEED + 4)
    worst = max(r.discrepancy for r in campaign.rows)
    # refinement sanity: a deliberately coarse rule must improve as panels double
    p1, p2, p3 = sample_constrained_triple(4, derive_seeds(MASTER_SEED + 4, 1)[0])
    measured = triple_splitting_error(p1, p2, p3, 0.5)
    gaps = [
        op_norm(
            duhamel_error(
                p1, p2, p3, 0.5,
                quad=QuadratureSpec(gauss_order=2, panels=panels),
                refine=False,
            )
            - measured
        )
        for panels in (1, 2, 4)
    ]
    decreasing = gaps[1] < gaps[0] and gaps[2] < gaps[1]
    elapsed = time.perf_counter() - start
    report(
        4,
        campaign.passed and decreasing,
        f"40 comparisons: max discrepancy {worst:.2e} (tol 1e-6); "
        f"coarse-rule gap {gaps[0]:.1e} -> {gaps[1]:.1e} -> {gaps[2]:.1e} under panel doubling",
        elapsed,
        budget=10.0,
    )


def test_criterion_5_error_bound():
    # the campaign's slack is fixed in code; loosening it means editing this line
    assert harness.BOUND_SLACK == 1e-9
    start = time.perf_counter()
    campaign = verify_bound(count=100, dim=6, t_list=(0.1, 0.5, 1.0), seed=MASTER_SEED + 5)
    elapsed = time.perf_counter() - start
    report(
        5,
        campaign.passed and campaign.violations == 0,
        f"300 comparisons: {campaign.violations} violations, "
        f"max saturation {campaign.max_saturation:.3f}",
        elapsed,
        budget=120.0,
    )


def test_criterion_6_bracket_integral_forms():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for child in derive_seeds(MASTER_SEED + 6, 20):
        p = random_skew_hermitian(4, seed=child)
        q = random_skew_hermitian(4, seed=child + 1)
        for t in (0.1, 1.0):
            u = expm(p, t)
            direct = u @ q - q @ u
            gap = op_norm(z_integral(p, q, t) - direct)
            worst = max(worst, gap)
            ok = ok and gap <= 1e-8
    elapsed = time.perf_counter() - start
    report(
        6,
        ok,
        f"20 pairs x 2 times: max gap {worst:.2e} (tol 1e-8)",
        elapsed,
        budget=30.0,
    )


def test_criterion_7_schrodinger_demonstration():
    start = time.perf_counter()
    steps = tuple(2.0**-k for k in range(4, 10))
    orders = {}
    mass_defect = 0.0
    ok = True
    for scheme_name, (lo, hi) in {
        "strang": (1.9, 2.1),
        "lie-trotter": (0.9, 1.1),
    }.items():
        study = ConvergenceStudy(
            "schrodinger", scheme_name, steps, horizon=1.0, seed=0,
            potential="harmonic", half_width=10.0, points=256,
            expected_order={"strang": 2.0, "lie-trotter": 1.0}[scheme_name],
        )
        result = run_convergence(study)
        orders[scheme_name] = result.fitted_order
        mass_defect = max(mass_defect, max(result.metadata["norm_defects"]))
        ok = ok and result.passed and lo <= result.fitted_order <= hi
    ok = ok and mass_defect <= 1e-10
    # free evolution against the closed-form Gaussian
    grid = Grid1D(half_width=10.0, points=256)
    zero = np.zeros(grid.points)
    flat = Potential(zero, zero, zero, grid)
    numeric = evolve(gaussian_packet(grid), flat, 1.0, 16, make_strang())
    exact = free_gaussian_evolution(grid, sigma=1.0, t=1.0)
    free_gap = WaveFunction(numeric.samples - exact.samples, grid).l2_norm()
    ok = ok and free_gap <= 1e-8
    elapsed = time.perf_counter() - start
    report(
        7,
        ok,
        f"orders strang={orders['strang']:.3f}, lie-trotter={orders['lie-trotter']:.3f}; "
        f"mass defect {mass_defect:.1e} (tol 1e-10); free-Gaussian gap {free_gap:.1e} (tol 1e-8)",
        elapsed,
        budget=30.0,
    )


def commutator_closed_form_gap():
    """Worst relative sup gap of both commutators against their closed forms.

    [A,B]u = (1/2) V''u + V'u' and [B,[A,B]]u = -i (V')^2 u, with the
    coefficients fixed by the derivation.  The operators are looked up through
    the module so that a planted fault in them is seen here.
    """
    grid = Grid1D(half_width=10.0, points=256)
    k = np.pi / grid.half_width
    cases = [
        (gaussian_packet(grid, sigma=1.0), Potential.harmonic(grid)),
        (
            gaussian_packet(grid, sigma=1.3, center=0.4, momentum=0.7),
            Potential.gaussian_well(grid),
        ),
        (WaveFunction(np.exp(2j * k * grid.x), grid), Potential.cosine(grid)),
        (WaveFunction(2.0 + np.cos(k * grid.x), grid), Potential.cosine(grid)),
    ]
    worst = 0.0
    for u, v in cases:
        first = 0.5 * v.deriv2 * u.samples + v.deriv1 * spectral_derivative(u.samples, grid)
        second = -1j * v.deriv1**2 * u.samples
        for got, expected in (
            (schrodinger.commutator_apply(u, v), first),
            (schrodinger.double_commutator_apply(u, v), second),
        ):
            gap = np.abs(got.samples - expected).max() / np.abs(expected).max()
            worst = max(worst, gap)
    return worst


def test_criterion_8_commutator_structure():
    start = time.perf_counter()
    worst = commutator_closed_form_gap()
    elapsed = time.perf_counter() - start
    report(
        8,
        worst <= 1e-9,
        f"[A,B]u and [B,[A,B]]u on 4 state/potential pairs: worst relative sup "
        f"gap to the closed forms {worst:.1e} (tol 1e-9)",
        elapsed,
        budget=10.0,
    )


def test_criterion_8_rejects_planted_commutator_faults(monkeypatch):
    original = schrodinger.commutator_apply

    def doubled(u, v):
        return WaveFunction(2.0 * original(u, v).samples, u.grid)

    def flipped_first_order_term(u, v):
        # (1/2) V''u - V'u' in place of (1/2) V''u + V'u'
        drift = v.deriv1 * spectral_derivative(u.samples, u.grid)
        return WaveFunction(original(u, v).samples - 2.0 * drift, u.grid)

    for fault in (doubled, flipped_first_order_term):
        monkeypatch.setattr(schrodinger, "commutator_apply", fault)
        assert commutator_closed_form_gap() > 1e-9, fault.__name__
