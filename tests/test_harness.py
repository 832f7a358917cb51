from dataclasses import replace

import numpy as np
import pytest

from test_duhamel import count_calls
from trisplit import cli, duhamel, harness, matrix_core, splitting
from trisplit.duhamel import error_bound
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
from trisplit.matrix_core import ConditionViolated, commutator, is_skew_hermitian, op_norm
from trisplit.splitting import make_strang, triple_splitting_error


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
    # 1 x 1 operators commute, so the splitting is exact up to rounding
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 6), 1.0, seed=5, dim=1)
    result = run_convergence(study)
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


def test_shared_wave_reference_gives_the_studys_own_rows():
    study = ConvergenceStudy(
        "schrodinger", "lie-trotter", dyadic(4, 4), horizon=0.5, seed=0,
        potential="gaussian-well", half_width=8.0, points=64,
    )
    reference = harness._wave_reference(replace(study, scheme_name="strang", seed=9))
    shared, own = run_convergence(study, reference=reference), run_convergence(study)
    assert (shared.rows, shared.metadata) == (own.rows, own.metadata)
    for other in (replace(study, points=128), replace(study, horizon=1.0), replace(study, potential="cosine")):
        with pytest.raises(ValueError):
            run_convergence(other, reference=reference)
    matrix = ConvergenceStudy("matrix", "strang", dyadic(4, 4), 1.0, seed=5, dim=2)
    with pytest.raises(ValueError):
        run_convergence(matrix, reference=reference)


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
        assert row.report.discrepancy <= 1e-8
        assert row.report.measured_error_norm <= row.report.bound_value + 1e-9
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
        verify_bound(count=1, dim=0, t_list=(0.5,), seed=1)
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


ALIGNMENT_TIMES = (0.0, 0.1, 1.0, 200.0)


def stack_size(dim, times):
    """Triples per stack of the bound campaign."""
    return max(1, harness._STACK_ENTRIES // (4 * len(times) * dim * dim))


def bound_row_values(row):
    return row.measured, row.bound


def duhamel_row_values(row):
    return row.report.measured_error_norm, row.report.bound_value


def misaligned_rows(campaign, dim, times, seed, values=bound_row_values):
    """Rows whose (measured, bound) ``values`` differ from scalar calls on
    their own instance's triple: measured to 1e-12 relative (1e-15 absolute
    at t = 0), the bound to 1e-14 relative."""
    seeds = derive_seeds(seed, len(campaign.rows) // len(times))
    bad = []
    for row in campaign.rows:
        p1, p2, p3 = sample_constrained_triple(dim, seeds[row.instance])
        measured = op_norm(triple_splitting_error(p1, p2, p3, row.t))
        bound = error_bound(p1, p2, p3, row.t)
        row_measured, row_bound = values(row)
        floor = 1e-15 if row.t == 0 else 0.0
        if abs(row_measured - measured) > max(1e-12 * measured, floor):
            bad.append(row)
        elif abs(row_bound - bound) > 1e-14 * bound:
            bad.append(row)
    return bad


def test_bound_campaign_rows_align_with_scalar_calls():
    # two full stacks and a partial one; each row carries its own triple's
    # numbers, in instance-major, t-minor order
    dim = 6
    step = stack_size(dim, ALIGNMENT_TIMES)
    assert step >= 2
    count = 2 * step + step // 2
    campaign = verify_bound(count, dim, ALIGNMENT_TIMES, seed=23)
    assert [(r.instance, r.t) for r in campaign.rows] == [
        (i, t) for i in range(count) for t in ALIGNMENT_TIMES
    ]
    assert misaligned_rows(campaign, dim, ALIGNMENT_TIMES, seed=23) == []
    assert campaign.passed


def test_bound_campaign_alignment_check_catches_a_shifted_stack(monkeypatch):
    # each stack's errors moved by one instance: the check must see it
    def shifted(*args):
        return np.roll(triple_splitting_error(*args), 1, axis=0)

    monkeypatch.setattr(harness, "triple_splitting_error", shifted)
    dim = 6
    count = 2 * stack_size(dim, ALIGNMENT_TIMES) + 1
    campaign = verify_bound(count, dim, ALIGNMENT_TIMES, seed=23)
    assert misaligned_rows(campaign, dim, ALIGNMENT_TIMES, seed=23)


def test_default_bound_campaign_makes_one_call_per_stack(monkeypatch):
    # the default campaign (100 instances, dim 6, three t) in stacks of
    # several triples: one stacked expm, one error and one error_bound call
    # per stack, and no per-row op_norm
    calls = {"expm": 0, "error_bound": 0, "triple_splitting_error": 0, "op_norm": 0}
    count_calls(monkeypatch, splitting, "expm", calls)
    for name in ("error_bound", "triple_splitting_error", "op_norm"):
        count_calls(monkeypatch, harness, name, calls)
    campaign = verify_bound(100, 6, (0.1, 0.5, 1.0), seed=7)
    stacks = -(-100 // stack_size(6, (0.1, 0.5, 1.0)))
    assert stacks <= 13
    per_stack = {"expm": stacks, "error_bound": stacks, "triple_splitting_error": stacks}
    assert calls == {**per_stack, "op_norm": 0}
    assert len(campaign.rows) == 300 and campaign.passed


DUHAMEL_TIMES = (0.0, 0.25, 0.5)


def test_duhamel_campaign_rows_align_with_scalar_calls():
    # two full stacks and a partial one; each row carries its own triple's
    # measured error and bound, and the norm of one duhamel_error call on it,
    # in instance-major, t-minor order
    dim = 6
    step = stack_size(dim, DUHAMEL_TIMES)
    assert step >= 2
    count = 2 * step + step // 2
    campaign = verify_duhamel(count, dim, DUHAMEL_TIMES, seed=23)
    assert [(r.instance, r.t) for r in campaign.rows] == [
        (i, t) for i in range(count) for t in DUHAMEL_TIMES
    ]
    assert misaligned_rows(campaign, dim, DUHAMEL_TIMES, 23, duhamel_row_values) == []
    seeds = derive_seeds(23, count)
    for row in campaign.rows:
        triple = sample_constrained_triple(dim, seeds[row.instance])
        assert row.report.duhamel_norm == op_norm(duhamel.duhamel_error(*triple, row.t))
    assert campaign.passed, campaign.notes


def test_duhamel_campaign_alignment_check_catches_a_shifted_stack(monkeypatch):
    # each stack's errors moved by one instance: the check must see it
    def shifted(*args):
        return np.roll(triple_splitting_error(*args), 1, axis=0)

    monkeypatch.setattr(harness, "triple_splitting_error", shifted)
    dim = 6
    count = 2 * stack_size(dim, DUHAMEL_TIMES) + 1
    campaign = verify_duhamel(count, dim, DUHAMEL_TIMES, seed=23)
    assert misaligned_rows(campaign, dim, DUHAMEL_TIMES, 23, duhamel_row_values)
    assert not campaign.passed


def test_default_duhamel_campaign_makes_one_stack(monkeypatch):
    # the default campaign (20 instances, dim 4, two t) is one stack: one
    # error and one error_bound call, and one duhamel_error per row
    calls = {"error_bound": 0, "triple_splitting_error": 0, "duhamel_error": 0}
    for name in calls:
        count_calls(monkeypatch, harness, name, calls)
    campaign = verify_duhamel(20, 4, (0.25, 0.5), seed=7)
    assert calls == {"error_bound": 1, "triple_splitting_error": 1, "duhamel_error": 40}
    assert len(campaign.rows) == 40 and campaign.passed


def test_duhamel_campaign_validates_each_input_once(monkeypatch):
    # the solver scans each instance's P1 and P2 and duhamel_error each row's
    # three inputs; the stacked error and bound validate their stacks whole
    calls = {"as_complex_matrix": 0}
    for module in (matrix_core, duhamel, splitting):
        count_calls(monkeypatch, module, "as_complex_matrix", calls)
    verify_duhamel(count=2, dim=6, t_list=(0.25, 0.5), seed=3)
    assert calls["as_complex_matrix"] == 2 * 2 + 3 * 2 * 2


# --- campaigns that can fail ---------------------------------------------------------


def test_solver_fault_is_reported_not_redrawn(monkeypatch):
    # each campaign triple is one draw: a P3 the solver rejects must surface,
    # not be replaced by a fresh pair that hides the fault
    original = harness.solve_second_order_constraint
    calls = []

    def rejects_first_call(p1, p2):
        calls.append(None)
        if len(calls) == 1:
            raise ConditionViolated("planted solver fault")
        return original(p1, p2)

    monkeypatch.setattr(harness, "solve_second_order_constraint", rejects_first_call)
    with pytest.raises(ConditionViolated):
        verify_bound(count=3, dim=6, t_list=(0.5,), seed=7)
    calls.clear()
    with pytest.raises(ConditionViolated):
        verify_duhamel(count=1, dim=4, t_list=(0.25,), seed=7)
    calls.clear()
    with pytest.raises(ConditionViolated):
        cli.main(["verify-bound"])


def test_halved_bound_fails_the_default_campaign(monkeypatch):
    original = harness.error_bound
    monkeypatch.setattr(harness, "error_bound", lambda *args: original(*args) / 2.0)
    campaign = verify_bound(100, 6, (0.1, 0.5, 1.0), seed=7)
    assert not campaign.passed
    assert campaign.violations > 0


def test_representation_off_by_a_thousandth_fails_the_default_campaign(monkeypatch):
    original = harness.duhamel_error
    monkeypatch.setattr(
        harness, "duhamel_error", lambda *args, **kwargs: (1 + 1e-3) * original(*args, **kwargs)
    )
    campaign = verify_duhamel(20, 4, (0.25, 0.5), seed=7)
    assert not campaign.passed
    assert all(row.report.discrepancy > campaign.discrepancy_tol for row in campaign.rows)
