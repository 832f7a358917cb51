import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from exact_flow import grid_flow
from counting import count_calls, count_evolve_steps
from trisplit import cli, duhamel, harness, matrix_core, schrodinger, splitting
from trisplit import lie_symbolic as ls
from trisplit.duhamel import error_bound
from trisplit.harness import (
    ConvergenceStudy,
    certify_algebra,
    derive_seeds,
    estimate_order,
    run_convergence,
    run_schrodinger_benchmark,
    run_studies,
    sample_constrained_triple,
    verify_bound,
    verify_duhamel,
    wave_reference,
)
from trisplit.matrix_core import (
    ConditionViolated,
    InputError,
    commutator,
    is_skew_hermitian,
    op_norm,
    solve_second_order_constraint,
)
from trisplit.schrodinger import WaveFunction, evolve_runs, gaussian_packet, potential_by_name
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
    # NaN fails every comparison, so it is refused as neither positive step nor error
    with pytest.raises(ValueError, match="^errors must be positive"):
        estimate_order([(0.5, np.nan), (0.25, 1.0), (0.125, 0.5)])
    with pytest.raises(ValueError, match="^step sizes must be positive$"):
        estimate_order([(np.nan, 1e-3), (0.25, 1e-4), (0.125, 1e-5)])


def test_closed_form_fit_agrees_with_polyfit_on_noisy_ladders():
    # np.polyfit, which the fit no longer calls, is the oracle: slope and r2
    # agree to 1e-12 relative on 200 random ladders with noise
    rng = np.random.default_rng(4101)
    for _ in range(200):
        h = rng.uniform(0.1, 2.0) * 2.0 ** -np.arange(rng.integers(3, 11))
        noise = np.exp(rng.normal(0.0, rng.uniform(1e-3, 0.1), h.size))
        e = rng.uniform(1e-6, 10.0) * h ** rng.uniform(0.5, 4.0) * noise
        x, y = np.log(h), np.log(e)
        slope, intercept = np.polyfit(x, y, 1)
        r2 = 1.0 - np.sum((y - (slope * x + intercept)) ** 2) / np.sum((y - y.mean()) ** 2)
        fitted, fit_r2 = estimate_order(list(zip(h, e)))
        assert fitted == pytest.approx(slope, rel=1e-12, abs=0)
        assert fit_r2 == pytest.approx(r2, rel=1e-12, abs=0)


def test_fit_needs_distinct_step_sizes():
    with pytest.raises(ValueError, match="^step sizes must not all be equal$"):
        estimate_order([(0.5, 1e-3), (0.5, 1e-4), (0.5, 1e-5)])


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
    for steps in ((0.5, 0.25, 0.125, 0.0), tuple(-h for h in dyadic(1, 4))):
        with pytest.raises(InputError, match="^step sizes must be positive$"):
            ConvergenceStudy("matrix", "strang", steps, 1.0, seed=1)


@pytest.mark.parametrize(
    "steps, horizon", [(dyadic(4, 4), 1e308), (dyadic(1060, 4), 1.0)]
)
def test_a_step_count_that_overflows_is_refused_by_name(steps, horizon):
    # horizon / h is inf, which no step count can hold: refused before rounding
    message = f"horizon {horizon!r} over step {steps[-1]!r} overflows the step count"
    with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
        ConvergenceStudy("matrix", "strang", steps, horizon, seed=1)


@pytest.mark.parametrize(
    "problem, key, value, message",
    [
        ("schrodinger", "points", 100, "points must be a power of two, at least 16"),
        ("schrodinger", "potential", "nope", "unknown potential 'nope'; known: ("),
        ("matrix", "dim", 0, "dimension must be positive"),
    ],
    ids=["wave-points-100", "wave-unknown-potential", "matrix-dim-0"],
)
def test_a_study_checks_the_fields_of_its_kind_when_built(tmp_path, capsys, problem, key, value, message):
    # the study of that kind is refused when it is built, and the other kind,
    # which ignores the field, is not; the CLI exits 2 with the same message
    with pytest.raises(InputError, match="^" + re.escape(message)):
        ConvergenceStudy(problem, "strang", dyadic(4, 4), 1.0, seed=1, **{key: value})
    other = "matrix" if problem == "schrodinger" else "schrodinger"
    study = ConvergenceStudy(other, "strang", dyadic(4, 4), 1.0, seed=1, **{key: value})
    assert getattr(study, key) == value
    config = tmp_path / "case.ini"
    config.write_text(f"[config]\nversion = 1\n\n[convergence]\nproblem = {problem}\n{key} = {value}\n")
    assert cli.main(["convergence", "--config", str(config)]) == cli.EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "scheme,window", [("strang", (1.9, 2.1)), ("lie-trotter", (0.9, 1.1))]
)
def test_matrix_convergence_orders(scheme, window):
    study = ConvergenceStudy("matrix", scheme, dyadic(4, 6), horizon=1.0, seed=314, dim=8)
    result = run_convergence(study)
    assert result.passed, result.notes
    assert window[0] <= result.fitted_order <= window[1]
    assert result.fit_r2 >= 0.999


def test_fitted_order_outside_its_window_fails():
    # Lie-Trotter at steps 2^-1 .. 2^-4 over t = 4 on a 2 x 2 pair is still far
    # from its asymptotic regime: at seed 26 the fit is clean (r2 0.99977, above
    # the gate) but its slope 2.0297 is nowhere near the nominal order 1
    study = ConvergenceStudy("matrix", "lie-trotter", dyadic(1, 4), horizon=4.0, seed=26, dim=2)
    result = run_convergence(study)
    assert result.verdict == "fail"
    assert result.fit_r2 >= harness.R2_GATE
    assert result.fitted_order == pytest.approx(2.0297, abs=1e-4)
    assert result.notes == "fitted order 2.0297 outside 1.0 +/- 0.1"


def test_fit_uses_every_row_it_prints():
    # Lie-Trotter from h = 1/2 over t = 2 on a 2 x 2 pair: the coarsest row is
    # off the line, and the fit through all six rows is below the r2 gate
    study = ConvergenceStudy("matrix", "lie-trotter", dyadic(1, 6), horizon=2.0, seed=0, dim=2)
    result = run_convergence(study)
    assert (result.verdict, result.dropped, len(result.rows)) == ("fail", (), 6)
    assert result.fit_r2 == pytest.approx(0.998325, abs=1e-6)
    assert (result.fitted_order, result.fit_r2) == harness.estimate_order(result.rows)
    assert result.notes == "fit r2 0.998325 below gate 0.999"


def test_matrix_convergence_degenerate_for_commuting_pair():
    # 1 x 1 operators commute, so the splitting is exact up to rounding
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 6), 1.0, seed=5, dim=1)
    result = run_convergence(study)
    assert result.verdict == "degenerate"
    assert result.fitted_order is None


def plant_section(monkeypatch, study, errors):
    # every matrix section the harness builds holds only these Strang errors
    section = harness.Reference(study, {(make_strang().operands, study.seed): (errors, {})})
    monkeypatch.setattr(harness, "matrix_reference", lambda *args: section)


def test_errors_at_the_floor_fail_when_the_pair_does_not_commute(monkeypatch):
    # a 2 x 2 pair with every error planted at the floor: the note names
    # ||[A,B]|| and the bound it exceeds, 64 eps ||A|| ||B||
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 4), 1.0, seed=5, dim=2)
    plant_section(monkeypatch, study, (1e-13, 1e-14, 1e-15, 1e-16))
    result = run_convergence(study)
    a, b = harness._random_skew(2, (5,), 2)[0]
    bound = 64 * np.finfo(float).eps * op_norm(a) * op_norm(b)
    assert (result.verdict, result.fitted_order) == ("fail", None)
    size = op_norm(commutator(a, b))
    assert size > bound
    assert result.notes == f"no order measurable, yet [A,B] is {size:.3e}, above {bound:.3e}"


def test_degenerate_wave_study_on_a_broken_grid_fails(monkeypatch):
    # dx = 2 L N: every error is below 1e-28, but [A,B]u0 is far from zero
    monkeypatch.setattr(schrodinger.Grid1D, "dx", property(lambda g: 2.0 * g.half_width * g.points))
    result = run_convergence(SMALL_STRANG)
    assert max(e for _, e in result.rows) <= harness.ERROR_FLOOR
    assert result.verdict == "fail"
    note = re.fullmatch(r"no order measurable, yet \[A,B\] is (\S+), above (\S+)", result.notes)
    size, bound = note.groups()
    assert float(size) > 1e10 * float(bound)


def test_zero_error_at_a_finite_step_is_inconclusive(monkeypatch):
    # the zero is planted in the section the study reads its rows from
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 4), 1.0, seed=5, dim=2)
    plant_section(monkeypatch, study, (1e-2, 2.5e-3, 0.0, 1.5e-4))
    result = run_convergence(study)
    assert (result.verdict, result.notes, result.fitted_order) == (
        "inconclusive", "zero error at finite step", None,
    )


def test_matrix_study_makes_one_splitting_call(monkeypatch):
    # every step size in one apply_splitting call and one stacked expm, each
    # row within round-off of the study's lone per-step computation
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 6), 1.0, seed=314, dim=8)
    calls = {"apply_splitting": 0, "expm": 0}
    count_calls(monkeypatch, harness, "apply_splitting", calls)
    count_calls(monkeypatch, splitting, "expm", calls)
    rows = run_convergence(study).rows
    assert calls == {"apply_splitting": 1, "expm": 1}
    a, b = harness._random_skew(study.dim, (study.seed,), 2)[0]
    ops = splitting.pair_operator_set(a, b)
    scheme = make_strang()
    reference = scipy.linalg.expm(study.horizon * splitting.generator_matrix(scheme, ops))
    for h, error in rows:
        stepper = splitting.apply_splitting(scheme, ops, h)
        lone = op_norm(np.linalg.matrix_power(stepper, round(study.horizon / h)) - reference)
        assert error == pytest.approx(lone, rel=1e-9, abs=0)


def test_schrodinger_convergence_passes():
    study = ConvergenceStudy(
        "schrodinger", "strang", dyadic(4, 6), horizon=1.0, seed=0,
        potential="harmonic", half_width=10.0, points=256,
    )
    result = run_convergence(study)
    assert result.passed, result.notes
    assert 1.9 <= result.fitted_order <= 2.1
    defects = result.metadata["norm_defects"]
    assert len(defects) == 6
    assert max(defects) <= 1e-10


def test_shared_wave_reference_gives_the_studys_own_rows(monkeypatch):
    study = ConvergenceStudy(
        "schrodinger", "lie-trotter", dyadic(4, 4), horizon=0.5, seed=0,
        potential="gaussian-well", half_width=8.0, points=64,
    )
    reference = wave_reference(replace(study, scheme_name="strang", seed=9), [make_strang()], (9,))
    shared = run_convergence(study, reference=reference)
    own = run_convergence(study)
    assert (shared.rows, shared.metadata) == (own.rows, own.metadata)
    for other in (replace(study, points=128), replace(study, horizon=1.0), replace(study, potential="cosine")):
        with pytest.raises(ValueError):
            run_convergence(other, reference=reference)
    matrix = ConvergenceStudy("matrix", "strang", dyadic(4, 4), 1.0, seed=5, dim=2)
    with pytest.raises(ValueError):
        run_convergence(matrix, reference=reference)


#: a wave study at 8, 16, 32 and 64 steps; its reference runs the same four
SMALL_STRANG = ConvergenceStudy(
    "schrodinger", "strang", dyadic(4, 4), horizon=0.5, seed=0,
    potential="gaussian-well", half_width=8.0, points=64,
)


def romberg(study):
    # the state a wave study's errors are measured against and its consistency:
    # the reference's Romberg helper applied to Strang's finals, finest first
    grid = schrodinger.Grid1D(study.half_width, study.points)
    potential = potential_by_name(study.potential, grid)
    steps = study.step_counts[::-1]
    return harness._romberg(evolve_runs(gaussian_packet(grid), potential, study.horizon, steps, make_strang()))


def test_strang_study_runs_in_its_references_call(monkeypatch):
    # its runs are the reference's, made in one call, given or not, and every
    # number it reports is exactly what a call of its own gives; a wave study
    # draws nothing from its seed, so every seed of the reference reads them
    calls = count_evolve_steps(monkeypatch)
    shared = run_convergence(SMALL_STRANG)
    assert calls == [(64, 32, 16, 8)]
    calls.clear()
    reference = wave_reference(SMALL_STRANG, [make_strang()], (0, 5))
    given = run_convergence(SMALL_STRANG, reference=reference)
    reseeded = run_convergence(replace(SMALL_STRANG, seed=5), reference=reference)
    assert calls == [(64, 32, 16, 8)]
    assert (shared.rows, shared.metadata) == (given.rows, given.metadata)
    assert (reseeded.rows, reseeded.metadata["norm_defects"]) == (given.rows, given.metadata["norm_defects"])
    assert {"norm_defects", "reference_consistency"} <= shared.metadata.keys()
    state, _ = romberg(SMALL_STRANG)
    grid = state.grid
    alone = evolve_runs(
        gaussian_packet(grid), potential_by_name("gaussian-well", grid), 0.5, (8, 16, 32, 64),
        make_strang(),
    )
    distances = [WaveFunction(f.samples - state.samples, grid).l2_norm() for f in alone]
    assert shared.rows == tuple(zip(SMALL_STRANG.step_sizes, distances))


def test_scheme_named_strang_without_its_operands_takes_its_own_runs(monkeypatch):
    # a first-order file that calls itself strang: only the operands decide
    # which of the reference's runs are a scheme's rows, so its runs join the
    # reference's one call next to Strang's
    mislabelled = splitting.parse_scheme("name strang\nA 0.4\nB 1\nA 0.6\n")
    calls = count_evolve_steps(monkeypatch)
    result = run_convergence(SMALL_STRANG, scheme=mislabelled)
    assert calls == [(64, 32, 16, 8)]
    reference, _ = romberg(SMALL_STRANG)
    grid = reference.grid
    finals = evolve_runs(
        gaussian_packet(grid), potential_by_name("gaussian-well", grid), 0.5, (8, 16, 32, 64),
        mislabelled,
    )
    lone = [WaveFunction(f.samples - reference.samples, grid).l2_norm() for f in finals]
    assert result.rows == tuple(zip(SMALL_STRANG.step_sizes, lone))


def test_wave_section_runs_every_scheme_against_one_reference(monkeypatch):
    # the reference's one call runs every scheme, whichever comes first, and
    # a wave study runs once, at its own seed, however many instances the
    # section asks for
    schemes = [splitting.make_lie_trotter(), make_strang()]
    study = replace(SMALL_STRANG, scheme_name="lie-trotter", seed=5)
    calls = count_evolve_steps(monkeypatch)
    results = list(run_studies(study, schemes, 3))
    assert calls == [(64, 32, 16, 8)]
    lone = [run_convergence(replace(study, scheme_name=s.name), s) for s in schemes]
    assert results == lone
    assert [(r.metadata["scheme"], r.metadata["seed"]) for r in results] == [
        ("lie-trotter", 5),
        ("strang", 5),
    ]


#: a study of each kind whose section runs Strang and Lie-Trotter at two instances
SECTIONS = {
    "matrix": ConvergenceStudy("matrix", "strang", dyadic(4, 4), 1.0, seed=11, dim=3),
    "schrodinger": SMALL_STRANG,
}


@pytest.mark.parametrize("problem", SECTIONS)
def test_a_study_without_its_key_builds_one_one_key_reference(monkeypatch, problem):
    # a lone study, and one given a reference that lacks its key, each build
    # one reference of that one key, with one draw of one seed (matrix) or one
    # evolve_runs call (wave), and each result is the one its full section gives
    schemes = [make_strang(), splitting.make_lie_trotter()]
    section = list(run_studies(SECTIONS[problem], schemes, 2))
    study = replace(SECTIONS[problem], scheme_name="lie-trotter", seed=section[-1].metadata["seed"])
    lacking = harness._reference(study, schemes[:1], (study.seed,))
    built, draws = [], []
    original_reference, original_draw = harness._reference, harness._random_skew

    def reference(study, schemes, seeds):
        built.append(([s.operands for s in schemes], seeds))
        return original_reference(study, schemes, seeds)

    def draw(n, seeds, per_seed):
        draws.append(len(seeds))
        return original_draw(n, seeds, per_seed)

    monkeypatch.setattr(harness, "_reference", reference)
    monkeypatch.setattr(harness, "_random_skew", draw)
    calls = count_evolve_steps(monkeypatch)
    for given in (None, lacking):
        for record in (built, draws, calls):
            record.clear()
        assert run_convergence(study, schemes[1], given) == section[-1]
        assert built == [([schemes[1].operands], (study.seed,))]
        assert (draws, len(calls)) == (([1], 0) if problem == "matrix" else ([], 1))


def pade_rows(study, scheme):
    # a study's errors the way they were first computed: a Pade e^{TL}, here
    # scipy's, and one matrix_power per row
    a, b = harness._random_skew(study.dim, (study.seed,), 2)[0]
    ops = splitting.pair_operator_set(a, b)
    reference = scipy.linalg.expm(study.horizon * splitting.generator_matrix(scheme, ops))
    steppers = splitting.apply_splitting(scheme, ops, study.step_sizes)
    return [
        op_norm(np.linalg.matrix_power(stepper, n) - reference)
        for stepper, n in zip(steppers, study.step_counts)
    ]


#: (steps, horizon) of three study ladders: 16 .. 128 steps; 12 .. 192, whose
#: first count is no power of two; and 3 .. 48, matrix_power's n <= 3 branch
LADDERS = ((dyadic(4, 4), 1.0), (dyadic(2, 5), 3.0), (dyadic(2, 5), 0.75))


def test_matrix_section_runs_scheme_by_scheme_at_the_child_seeds(monkeypatch):
    # one run_convergence call, through the module global, per scheme and
    # child seed; on each ladder every result is bitwise its study's lone run,
    # and its rows are within 1e-9 of the Pade oracle
    schemes = [make_strang(), splitting.make_lie_trotter()]
    order = [(s, child) for s in schemes for child in derive_seeds(11, 3)]
    calls = {"run_convergence": 0}
    count_calls(monkeypatch, harness, "run_convergence", calls)
    for steps, horizon in LADDERS:
        study = ConvergenceStudy("matrix", "strang", steps, horizon, seed=11, dim=3)
        calls["run_convergence"] = 0
        results = list(run_studies(study, schemes, 3))
        assert calls == {"run_convergence": 6}
        assert [(r.metadata["scheme"], r.metadata["seed"]) for r in results] == [
            (s.name, child) for s, child in order
        ]
        lone = [run_convergence(replace(study, scheme_name=s.name, seed=c), s) for s, c in order]
        assert results == lone
        for (scheme, child), result in zip(order, results):
            oracle = pade_rows(replace(study, seed=child), scheme)
            assert [e for _, e in result.rows] == pytest.approx(oracle, rel=1e-9, abs=0)


def test_default_matrix_section_draws_once_on_the_eigh_path(monkeypatch, capsys):
    # the default [convergence] section: one draw for its 5 seeds, at most 4
    # expm calls for its 10 studies, and no LU solve or polyfit
    calls = dict.fromkeys(("_random_skew", "expm", "solve", "polyfit"), 0)
    count_calls(monkeypatch, harness, "_random_skew", calls)
    count_calls(monkeypatch, harness, "expm", calls)
    count_calls(monkeypatch, splitting, "expm", calls)
    count_calls(monkeypatch, np.linalg, "solve", calls)
    count_calls(monkeypatch, np, "polyfit", calls)
    assert cli.main(["convergence"]) == cli.EXIT_PASS
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert calls["_random_skew"] == 1 and calls["expm"] <= 4
    assert (calls["solve"], calls["polyfit"]) == (0, 0)


def test_matrix_section_stacks_are_bounded(monkeypatch):
    # seeds go in stacks of _STACK_ENTRIES / (4 m n^2): 8 seeds at 4 steps and
    # dim 3 in stacks of 3, and each row is still its lone study's
    monkeypatch.setattr(harness, "_STACK_ENTRIES", 4 * 4 * 9 * 3)
    draws = []
    original = harness._random_skew

    def counted(n, seeds, per_seed):
        draws.append(len(seeds))
        return original(n, seeds, per_seed)

    monkeypatch.setattr(harness, "_random_skew", counted)
    study = ConvergenceStudy("matrix", "strang", dyadic(4, 4), 1.0, seed=11, dim=3)
    section = harness.matrix_reference(study, [make_strang()], derive_seeds(11, 8))
    assert draws == [3, 3, 2]
    for child in derive_seeds(11, 8):
        lone = replace(study, seed=child)
        assert run_convergence(lone, reference=section).rows == run_convergence(lone).rows


@pytest.mark.parametrize("potential", ["harmonic", "gaussian-well", "cosine"])
def test_wave_reference_is_the_exact_grid_flow(potential):
    # the shipped 256-point study; a Strang reference at h_min/4 sits
    # 1.2e-9 to 2.5e-8 from the exact flow here
    study = ConvergenceStudy(
        "schrodinger", "strang", dyadic(4, 6), horizon=1.0, seed=0,
        potential=potential, points=256,
    )
    reference, gap = romberg(study)
    grid = reference.grid
    initial = gaussian_packet(grid).samples
    samples = potential_by_name(potential, grid).samples
    exact = grid_flow(initial, samples, 1.0, grid.half_width)
    if potential == "harmonic":
        # the unit Gaussian is the ground state, energy 1/2
        closed_form = np.exp(0.5j) * initial
        assert np.sqrt(grid.dx) * np.linalg.norm(exact - closed_form) <= 1e-10
        exact = closed_form
    assert np.sqrt(grid.dx) * np.linalg.norm(reference.samples - exact) <= 1e-10
    assert gap <= 1e-10


def test_small_wave_reference_is_the_exact_grid_flow():
    # at 8 .. 64 steps the h^4 term matters: Romberg from the study's own
    # runs sits 3.8e-13 from the exact flow, where (4 S_128 - S_64)/3 sat 1.7e-11
    reference, _ = romberg(SMALL_STRANG)
    grid = reference.grid
    initial = gaussian_packet(grid).samples
    samples = potential_by_name(SMALL_STRANG.potential, grid).samples
    exact = grid_flow(initial, samples, SMALL_STRANG.horizon, grid.half_width)
    assert np.sqrt(grid.dx) * np.linalg.norm(reference.samples - exact) <= 1e-12


@pytest.mark.parametrize("scheme", ["strang", "lie-trotter"])
def test_wave_reference_needs_every_step_to_divide_the_horizon(scheme):
    # 3/8 is a multiple of the four finest steps, 2^-3 .. 2^-6, but not of 2^-2:
    # the study is refused when it is built, before anything runs
    with pytest.raises(ValueError, match="not an integer multiple of 0.25"):
        replace(SMALL_STRANG, scheme_name=scheme, step_sizes=dyadic(2, 5), horizon=0.375)


def test_first_order_reference_is_not_converged(monkeypatch):
    # Richardson's h^2 cancellation is wrong for a first-order reference, so
    # the consistency gap must stop the study
    monkeypatch.setattr(harness, "make_strang", splitting.make_lie_trotter)
    study = ConvergenceStudy(
        "schrodinger", "strang", dyadic(4, 6), horizon=1.0, seed=0, points=256
    )
    result = run_convergence(study)
    assert not result.passed
    assert "reference not converged" in result.notes


@pytest.mark.parametrize(
    "config",
    [None, "[schrodinger-bench]\npotential = gaussian-well\npoints = 2048\n"],
    ids=["defaults", "gaussian-well-2048"],
)
def test_schrodinger_bench_fits_strang_at_order_two(tmp_path, capsys, config):
    argv = ["schrodinger-bench"]
    if config is not None:
        path = tmp_path / "bench.ini"
        path.write_text("[config]\nversion = 1\n\n" + config)
        argv += ["--config", str(path)]
    assert cli.main(argv) == cli.EXIT_PASS
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("PASS schrodinger-bench: fitted order ")
    assert float(summary.rsplit(" ", 1)[1]) == pytest.approx(2.0, abs=0.005)


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
    checks = certify_algebra()
    assert all(check.passed for check in checks)
    assert len(checks) == 7


def test_certify_algebra_fault_injection_fails():
    checks = certify_algebra(inject_fault=True)
    assert not all(check.passed for check in checks)


def test_injected_fault_is_reported_as_its_normal_form():
    # the fault moves -1/6 [P2,[P1,P2]] to -1/5 [P2,[P1,P2]]; the normal form
    # of the difference is the fault itself, (1/30)[P2,[P1,P2]]
    fault = ls.bracket(2, ls.bracket(1, 2)).scale(Fraction(1, 30))
    failing = [c for c in certify_algebra(inject_fault=True) if not c.passed]
    assert len(failing) == 1
    assert failing[0].detail == "offending element:\n" + ls.format_element(fault)


@pytest.mark.parametrize(
    "ratio,dyadic_enough",
    [
        (2 * (1 + 0.9e-12), True),
        (2 * (1 - 0.9e-12), True),
        (2 * (1 + 1.1e-12), False),
        (2 * (1 - 1.1e-12), False),
        (float("nan"), False),
        (float("inf"), False),
    ],
)
def test_step_ratio_is_two_to_a_relative_1e_12(ratio, dyadic_enough):
    steps = (0.5 * ratio, 0.5, 0.25, 0.125)
    if dyadic_enough:
        assert ConvergenceStudy("matrix", "strang", steps, 1.0, seed=1).step_sizes == steps
    else:
        with pytest.raises(ValueError, match="dyadically"):
            ConvergenceStudy("matrix", "strang", steps, 1.0, seed=1)


# --- sampled campaigns ---------------------------------------------------------------


def test_sample_constrained_triple_contract():
    p1, p2, p3 = sample_constrained_triple(6, seed=5)
    defect = commutator(p1, p2) + commutator(p1, p3) + commutator(p2, p3)
    assert op_norm(defect) <= 1e-10 * (1 + op_norm(commutator(p1, p2)))
    for p in (p1, p2, p3):
        assert is_skew_hermitian(p)
    again = sample_constrained_triple(6, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip((p1, p2, p3), again))


def test_bound_campaign_builds_one_generator_per_instance(monkeypatch):
    # one for derive_seeds and one per instance's pair, none per matrix
    built = []
    original = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    verify_bound(100, 6, (0.1, 0.5, 1.0), seed=7)
    assert len(built) == 101
    assert built[1:] == [(child,) for child in derive_seeds(7, 100)]


def test_stacked_draws_equal_each_instance_alone():
    # a stack's rows are the lone draws of their child seeds, bit for bit, and
    # P1 is the child seed's random_skew_hermitian
    seeds = derive_seeds(7, 5)
    (_, _, p1, p2), = harness._pair_stacks(6, seeds, 1)
    stacked = p1, p2, solve_second_order_constraint(p1, p2)
    for i, child in enumerate(seeds):
        lone = sample_constrained_triple(6, child)
        assert all(np.array_equal(s[i], p) for s, p in zip(stacked, lone))
        assert np.array_equal(lone[0], matrix_core.random_skew_hermitian(6, child))
        assert not np.array_equal(lone[0], lone[1])


def test_campaigns_take_no_svd(monkeypatch):
    # every spectral norm is op_norm's Gram eigenvalue, numpy's 2-norm included
    calls = {"svd": 0}
    count_calls(monkeypatch, np.linalg, "svd", calls)
    count_calls(monkeypatch, np.linalg._linalg, "svd", calls)
    assert np.linalg.norm(np.eye(2), 2) == 1.0 and calls["svd"] == 1  # the spy sees norm's SVD
    calls["svd"] = 0
    assert verify_bound(100, 6, (0.1, 0.5, 1.0), seed=7).passed
    assert verify_duhamel(20, 4, (0.25, 0.5), seed=7).passed
    assert calls == {"svd": 0}


def test_verify_duhamel_small_campaign():
    campaign = verify_duhamel(count=3, dim=4, t_list=(0.25, 0.5), seed=11)
    assert campaign.passed, campaign.notes
    assert len(campaign.rows) == 6
    for row in campaign.rows:
        assert row.discrepancy <= 1e-8
        assert row.measured_error_norm <= row.bound_value + 1e-9
    assert all(row.sign_factor == 1 for row in campaign.rows)


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
        assert row.measured <= row.bound + harness.BOUND_SLACK
        assert not row.violated


def test_bound_campaign_counts_vacuous_rows():
    # a bound of 2 or more says nothing about unitary flows
    campaign = verify_bound(100, 6, (0.1, 0.5, 1.0), seed=7)
    vacuous = [row.t for row in campaign.rows if row.bound >= 2]
    assert campaign.vacuous == len(vacuous) == 124
    assert (vacuous.count(0.5), vacuous.count(1.0)) == (24, 100)
    assert campaign.passed


ALIGNMENT_TIMES = (0.0, 0.1, 1.0, 200.0)


def stack_size(dim, times):
    """Triples per stack of the bound campaign."""
    return max(1, harness._STACK_ENTRIES // (4 * len(times) * dim * dim))


def bound_row_values(row):
    return row.measured, row.bound


def duhamel_row_values(row):
    return row.measured_error_norm, row.bound_value


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
    # per stack, and no per-row op_norm: two batched ones per stack, the
    # measured errors' and the solver's condition gate (the harness binds no
    # op_norm of its own, so both go through matrix_core)
    calls = {"expm": 0, "error_bound": 0, "triple_splitting_error": 0, "op_norm": 0}
    count_calls(monkeypatch, splitting, "expm", calls)
    count_calls(monkeypatch, matrix_core, "op_norm", calls)
    for name in ("error_bound", "triple_splitting_error"):
        count_calls(monkeypatch, harness, name, calls)
    assert not hasattr(harness, "op_norm")
    campaign = verify_bound(100, 6, (0.1, 0.5, 1.0), seed=7)
    stacks = -(-100 // stack_size(6, (0.1, 0.5, 1.0)))
    assert stacks == 3  # 37, 37 and 26 triples
    per_stack = {"expm": stacks, "error_bound": stacks, "triple_splitting_error": stacks}
    assert calls == {**per_stack, "op_norm": 2 * stacks}
    assert len(campaign.rows) == 300 and campaign.passed


def traced_peak(times):
    """The tracemalloc peak of a 100-instance dim-6 bound campaign at seed 7."""
    verify_bound(1, 6, times, seed=7)  # first-call allocations are not the campaign's
    tracemalloc.start()
    try:
        verify_bound(100, 6, times, seed=7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_bound_campaign_peak_memory():
    # the stack budget holds the default campaign to 1.5 MB of traced peak:
    # its stacks take expm's eigenvector path, whose arrays are about a third
    # of Pade's
    assert traced_peak((0.1, 0.5, 1.0)) <= 1.5e6


def test_one_t_bound_campaign_peak_memory():
    # one t takes the same eigenvector path, all 100 triples in one stack
    assert traced_peak((0.1,)) <= 2e6


def test_campaign_row_depends_only_on_its_instance_and_t():
    # a row is the same bits whatever other t its campaign runs
    alone = verify_bound(100, 6, (0.5,), seed=7).rows
    among = verify_bound(100, 6, (0.1, 0.5, 1.0), seed=7).rows
    assert alone == tuple(row for row in among if row.t == 0.5)
    alone = verify_duhamel(20, 4, (0.25,), seed=7).rows
    among = verify_duhamel(20, 4, (0.25, 0.5), seed=7).rows
    assert alone == tuple(row for row in among if row.t == 0.25)


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
        assert row.duhamel_norm == op_norm(duhamel.duhamel_error(*triple, row.t))
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
    # constraint solve, one error, one error_bound and one duhamel_error call
    calls = {
        "error_bound": 0,
        "triple_splitting_error": 0,
        "duhamel_error": 0,
        "solve_second_order_constraint": 0,
    }
    for name in calls:
        count_calls(monkeypatch, harness, name, calls)
    campaign = verify_duhamel(20, 4, (0.25, 0.5), seed=7)
    assert calls == dict.fromkeys(calls, 1)
    assert len(campaign.rows) == 40 and campaign.passed


def test_duhamel_campaign_validates_each_input_once(monkeypatch):
    # each stack is scanned whole, once per consumer: the solver its P1 and
    # P2 stacks, and the splitting error, the bound and duhamel_error their
    # three stacks, 2 + 3 + 3 + 3 = 11 however many instances and t it holds;
    # no (n, n) matrix is scanned on its own
    calls = {"as_complex_matrix": 0, "as_complex_stack": 0}
    for module in (matrix_core, duhamel, splitting):
        for name in calls:
            if hasattr(module, name):
                count_calls(monkeypatch, module, name, calls)
    verify_duhamel(count=2, dim=6, t_list=(0.25, 0.5), seed=3)
    assert calls == {"as_complex_matrix": 0, "as_complex_stack": 11}


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


def test_solver_fault_names_its_instance_and_child_seed(monkeypatch):
    # a P3 moved off the condition in one row of the second stack: the gate
    # rejects it, and the campaign names that instance and its child seed
    original = matrix_core._second_order
    dim, times = 6, (0.5,)
    step = stack_size(dim, times)
    count = step + 5

    def moved_in_last_stack(p1, p2, p3):
        if len(p3) == 5:
            p3 = p3.copy()
            p3[2] += 1e-6 * matrix_core.random_skew_hermitian(dim, 0)
        return original(p1, p2, p3)

    monkeypatch.setattr(matrix_core, "_second_order", moved_in_last_stack)
    seed = derive_seeds(7, count)[step + 2]
    with pytest.raises(ConditionViolated, match=rf"^instance {step + 2} \(child seed {seed}\): "):
        verify_bound(count, dim, times, seed=7)


def test_unconverged_row_names_its_instance_child_seed_and_t():
    # at the default quadrature the t = 0.05 rows converge and, at t = 100,
    # instance 1 alone reaches the 256-panel cap; the campaign names the first
    # row whose lone call raises, with that call's own message
    seeds = derive_seeds(2, 4)
    first = None
    for instance, child in enumerate(seeds):
        for t in (0.05, 100.0):
            try:
                duhamel.duhamel_error(*sample_constrained_triple(4, child), t)
            except duhamel.ToleranceNotReached as exc:
                first = first or (instance, child, t, str(exc))
    instance, child, t, lone = first
    assert (instance, t) == (1, 100.0)
    with pytest.raises(duhamel.ToleranceNotReached) as raised:
        verify_duhamel(4, 4, (0.05, 100.0), seed=2)
    message = str(raised.value)
    assert message.startswith(f"instance {instance} (child seed {child}), t={t!r}: ")
    assert lone.split(": ", 1)[1] in message
    assert re.search(r"gap \S+ at 256 panels", message)


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
    assert all(row.discrepancy > harness.DISCREPANCY_TOL for row in campaign.rows)
