import numpy as np
import pytest

from trisplit.harness import (
    ConvergenceStudy,
    certify_algebra,
    derive_seeds,
    estimate_order,
    run_convergence,
    run_schrodinger_benchmark,
    sample_constrained_triple,
    verify_bound,
    verify_duhamel,
)
from trisplit.matrix_core import commutator, is_skew_hermitian, op_norm
from trisplit.splitting import make_strang


def dyadic(start_exp, count):
    return tuple(2.0**-k for k in range(start_exp, start_exp + count))


# --- order estimation -----------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3])
def test_estimate_order_exact_power_laws(p):
    rows = [(h, 0.7 * h**p) for h in dyadic(2, 6)]
    order, r2 = estimate_order(rows)
    assert order == pytest.approx(p, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_estimate_order_with_multiplicative_noise():
    rng = np.random.default_rng(99)
    rows = [(h, h**3 * np.exp(rng.normal(0, 0.01))) for h in dyadic(2, 8)]
    order, r2 = estimate_order(rows)
    assert order == pytest.approx(3.0, abs=0.05)
    assert r2 > 0.999


def test_estimate_order_input_validation():
    with pytest.raises(ValueError):
        estimate_order([(0.5, 1e-3), (0.25, 1e-4)])  # too few points
    with pytest.raises(ValueError):
        estimate_order([(0.5, 1e-3), (0.25, 0.0), (0.125, 1e-5)])
    with pytest.raises(ValueError):
        estimate_order([(-0.5, 1e-3), (0.25, 1e-4), (0.125, 1e-5)])


def test_derive_seeds_deterministic_and_distinct():
    seeds = derive_seeds(1234, 5)
    assert seeds == derive_seeds(1234, 5)
    assert len(set(seeds)) == 5
    assert derive_seeds(1235, 5) != seeds


# --- study configuration ----------------------------------------------------------


def test_study_validation():
    with pytest.raises(ValueError):
        ConvergenceStudy("heat", "strang", dyadic(4, 6), 1.0, seed=1)
    with pytest.raises(ValueError):
        ConvergenceStudy("matrix", "strang", (0.5, 0.3, 0.2, 0.1), 1.0, seed=1)
    with pytest.raises(ValueError):
        ConvergenceStudy("matrix", "strang", dyadic(4, 3), 1.0, seed=1)
    with pytest.raises(ValueError):
        ConvergenceStudy("matrix", "strang", dyadic(4, 6), -1.0, seed=1)


@pytest.mark.parametrize(
    "scheme,window", [("strang", (1.9, 2.1)), ("lie-trotter", (0.9, 1.1))]
)
def test_matrix_convergence_orders(scheme, window):
    study = ConvergenceStudy(
        "matrix", scheme, dyadic(4, 6), horizon=1.0, seed=314, dim=8,
        expected_order={"strang": 2.0, "lie-trotter": 1.0}[scheme],
    )
    result = run_convergence(study)
    assert result.passed, result.notes
    assert window[0] <= result.fitted_order <= window[1]
    assert result.fit_r2 >= 0.999


def test_matrix_convergence_degenerate_for_commuting_pair():
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 6), 1.0, seed=1)
    a = np.diag([1j, -2j, 0.5j, 1j])
    b = np.diag([2j, 1j, 1j, -1j])
    result = run_convergence(study, operators=(a, b))
    assert result.verdict == "degenerate"
    assert result.fitted_order is None


def test_schrodinger_convergence_passes():
    study = ConvergenceStudy(
        "schrodinger", "strang", dyadic(4, 6), horizon=1.0, seed=0,
        potential="harmonic", half_width=10.0, points=256,
        expected_order=2.0,
    )
    result = run_convergence(study)
    assert result.passed, result.notes
    assert 1.9 <= result.fitted_order <= 2.1
    defects = result.metadata["norm_defects"]
    assert len(defects) == 6
    assert max(defects) <= 1e-10


def test_schrodinger_benchmark_rows():
    study = ConvergenceStudy(
        "schrodinger", "strang", dyadic(4, 4), horizon=0.5, seed=0, points=128,
    )
    rows, result = run_schrodinger_benchmark(study)
    assert len(rows) == 4
    assert [r.h for r in rows] == list(study.step_sizes)
    assert all(r.l2_error > 0 for r in rows)
    assert all(r.norm_defect <= 1e-12 for r in rows)
    assert result.fitted_order == pytest.approx(2.0, abs=0.1)


def test_benchmark_rejects_matrix_study():
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 4), 1.0, seed=3)
    with pytest.raises(ValueError):
        run_schrodinger_benchmark(study)


# --- certification -----------------------------------------------------------------


def test_certify_algebra_all_pass():
    report = certify_algebra()
    assert report.all_passed
    assert report.exit_status == 0
    text = report.format()
    assert len(report.checks) == 7
    assert text.count("PASS") == 7
    assert "FAIL" not in text


def test_certify_algebra_fault_injection_fails():
    report = certify_algebra(inject_fault=True)
    assert not report.all_passed
    assert report.exit_status == 1
    text = report.format()
    assert "FAIL" in text
    # the failing check prints the offending residual element
    assert "P" in text.split("FAIL", 1)[1]


# --- sampled campaigns ---------------------------------------------------------------


def test_sample_constrained_triple_contract():
    p1, p2, p3 = sample_constrained_triple(6, seed=5)
    defect = commutator(p1, p2) + commutator(p1, p3) + commutator(p2, p3)
    assert op_norm(defect) <= 1e-10 * (1 + op_norm(commutator(p1, p2)))
    for p in (p1, p2, p3):
        assert is_skew_hermitian(p, tol=1e-10)
    again = sample_constrained_triple(6, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip((p1, p2, p3), again))


def test_verify_duhamel_small_campaign():
    campaign = verify_duhamel(count=3, dim=4, t_list=(0.25, 0.5), seed=11)
    assert campaign.passed, campaign.notes
    assert len(campaign.rows) == 6
    for row in campaign.rows:
        assert row.report.discrepancy <= campaign.discrepancy_tol
    assert all(row.report.sign_factor == 1 for row in campaign.rows)


def test_verify_duhamel_argument_validation():
    with pytest.raises(ValueError):
        verify_duhamel(count=0, dim=4, t_list=(0.5,), seed=1)
    # nothing to compare is not a pass
    with pytest.raises(ValueError):
        verify_duhamel(count=1, dim=4, t_list=(), seed=7)
    # no dimension cap: a dim-16 campaign runs and passes
    campaign = verify_duhamel(count=1, dim=16, t_list=(0.5,), seed=1)
    assert campaign.passed, campaign.notes


def test_verify_bound_argument_validation():
    with pytest.raises(ValueError):
        verify_bound(count=0, dim=4, t_list=(0.5,), seed=1)
    with pytest.raises(ValueError):
        verify_bound(count=1, dim=4, t_list=(), seed=7)


def test_verify_bound_small_campaign():
    campaign = verify_bound(count=10, dim=6, t_list=(0.1, 0.5, 1.0), seed=11)
    assert campaign.passed
    assert campaign.violations == 0
    assert len(campaign.rows) == 30
    assert 0.0 < campaign.max_saturation <= 1.0 + 1e-9
    for row in campaign.rows:
        assert row.measured <= row.bound + campaign.slack
        assert not row.violated
