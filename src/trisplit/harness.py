"""Experiment orchestration: convergence studies, algebra certification, and
verification campaigns for the integral error representation and the error
bound.

Everything here is deterministic for a fixed seed: instance seeds are derived
from one root generator, results are aggregated in fixed order, and verdicts
are computed only from numbers that appear in the emitted rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from trisplit import lie_symbolic as ls
from trisplit.duhamel import ErrorReport, QuadratureSpec, duhamel_error, error_bound
from trisplit.matrix_core import expm, op_norm, random_skew_hermitian, solve_second_order_constraint
from trisplit.schrodinger import (
    Grid1D,
    WaveFunction,
    evolve,
    gaussian_packet,
    norm_defect,
    potential_by_name,
)
from trisplit.splitting import (
    apply_splitting,
    generator_matrix,
    make_strang,
    pair_operator_set,
    scheme_by_name,
    triple_splitting_error,
)

#: errors at or below this are treated as "nothing left to measure"
ERROR_FLOOR = 1e-12

#: required goodness of fit for a convergence PASS
R2_GATE = 0.999

#: |fitted - expected| window when the study declares a nominal order
ORDER_WINDOW = 0.1

#: local-slope deviation that marks a large-h point as pre-asymptotic
PREASYMPTOTIC_SLOPE_TOL = 0.25


def derive_seeds(seed: int, count: int) -> Tuple[int, ...]:
    """Deterministic child seeds for independent instances."""
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.integers(0, 2**63, size=count))


# --- order estimation ---------------------------------------------------------


def estimate_order(rows: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope of log(error) against log(h), with its r^2."""
    if len(rows) < 3:
        raise ValueError("need at least 3 (h, error) rows")
    h = np.array([r[0] for r in rows], dtype=float)
    e = np.array([r[1] for r in rows], dtype=float)
    if np.any(h <= 0):
        raise ValueError("step sizes must be positive")
    if np.any(e <= 0):
        raise ValueError("errors must be positive to fit a slope")
    x = np.log(h)
    y = np.log(e)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def _local_slope(row_a, row_b) -> float:
    (h0, e0), (h1, e1) = row_a, row_b
    return float(np.log(e0 / e1) / np.log(h0 / h1))


def _drop_preasymptotic(rows):
    """Drop up to the two largest step sizes when their local slope disagrees
    with the fit through the remaining points.  Returns (kept, dropped)."""
    kept = list(rows)
    dropped = []
    for _ in range(2):
        if len(kept) < 4:
            break
        rest_slope, _ = estimate_order(kept[1:])
        local = _local_slope(kept[0], kept[1])
        if abs(local - rest_slope) > PREASYMPTOTIC_SLOPE_TOL:
            dropped.append(kept.pop(0))
        else:
            break
    return kept, dropped


# --- convergence studies ------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceStudy:
    """One order-measurement campaign.

    Step sizes must be dyadic (each exactly half the previous); matrix
    problems sample a skew-Hermitian operator pair from the seed, while the
    wave problem uses the named potential and a unit-width Gaussian packet
    and draws nothing from the seed.
    """

    problem: str
    scheme_name: str
    step_sizes: Tuple[float, ...]
    horizon: float
    seed: int
    dim: int = 8
    potential: str = "harmonic"
    half_width: float = 10.0
    points: int = 256
    expected_order: Optional[float] = None

    def __post_init__(self):
        if self.problem not in ("matrix", "schrodinger"):
            raise ValueError(f"unknown problem kind {self.problem!r}")
        steps = tuple(float(h) for h in self.step_sizes)
        if len(steps) < 4:
            raise ValueError("need at least 4 step sizes")
        for a, b in zip(steps, steps[1:]):
            if not np.isclose(a / b, 2.0, rtol=1e-12, atol=0):
                raise ValueError("step sizes must descend dyadically (ratio 2)")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        object.__setattr__(self, "step_sizes", steps)


@dataclass(frozen=True)
class StudyResult:
    rows: Tuple[Tuple[float, float], ...]
    fitted_order: Optional[float]
    fit_r2: Optional[float]
    verdict: str  # "pass" | "fail" | "inconclusive" | "degenerate"
    dropped: Tuple[float, ...]
    notes: str
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _steps_for(horizon: float, h: float) -> int:
    steps = round(horizon / h)
    if steps < 1 or abs(horizon / h - steps) > 1e-9 * steps:
        raise ValueError(f"horizon {horizon!r} is not an integer multiple of {h!r}")
    return steps


def _matrix_rows(study: ConvergenceStudy, scheme=None):
    a, b = _random_pair(study.dim, study.seed)
    scheme = scheme or scheme_by_name(study.scheme_name)
    if set(scheme.references) - {"A", "B"}:
        raise ValueError(f"scheme {study.scheme_name!r} is not an A/B scheme")
    ops = pair_operator_set(a, b)
    reference = expm(generator_matrix(scheme, ops), study.horizon)
    rows = []
    for h in study.step_sizes:
        steps = _steps_for(study.horizon, h)
        stepper = apply_splitting(scheme, ops, h)
        rows.append((h, op_norm(np.linalg.matrix_power(stepper, steps) - reference)))
    return rows, {}


def _wave_key(study: ConvergenceStudy):
    """What a wave study's reference depends on: not its scheme or seed."""
    return study.half_width, study.points, study.potential, study.horizon, min(study.step_sizes)


def _wave_reference(study: ConvergenceStudy):
    """The state a wave study's errors are measured against: Strang at h_min/4
    from the unit Gaussian, with its distance to Strang at h_min/2 as the
    reference's own consistency.  Studies that differ only in scheme or seed
    can share it; nothing keeps it past the caller."""
    grid = Grid1D(study.half_width, study.points)
    potential = potential_by_name(study.potential, grid)
    initial = gaussian_packet(grid)
    h_min = min(study.step_sizes)
    strang = make_strang()
    reference = evolve(
        initial, potential, study.horizon, _steps_for(study.horizon, h_min / 4), strang
    )
    coarser_reference = evolve(
        initial, potential, study.horizon, _steps_for(study.horizon, h_min / 2), strang
    )
    return _wave_key(study), reference, _l2_distance(coarser_reference, reference)


def _schrodinger_rows(study: ConvergenceStudy, scheme=None, reference=None):
    key, reference, ref_gap = reference or _wave_reference(study)
    if key != _wave_key(study):
        raise ValueError("the wave reference was built for another grid, potential or step range")
    grid = reference.grid
    potential = potential_by_name(study.potential, grid)
    scheme = scheme or scheme_by_name(study.scheme_name)
    initial = gaussian_packet(grid)
    rows = []
    defects = []
    for h in study.step_sizes:
        final = evolve(initial, potential, study.horizon, _steps_for(study.horizon, h), scheme)
        rows.append((h, _l2_distance(final, reference)))
        defects.append(norm_defect(initial, final))
    extra = {"norm_defects": tuple(defects), "reference_consistency": ref_gap}
    return rows, extra


def _l2_distance(u: WaveFunction, v: WaveFunction) -> float:
    return WaveFunction(u.samples - v.samples, u.grid).l2_norm()


def run_convergence(study: ConvergenceStudy, scheme=None, reference=None) -> StudyResult:
    """Measure errors over the study's step sizes and fit an order.

    ``scheme`` overrides the named scheme with an explicit SplittingScheme
    (e.g. loaded from a file).  ``reference``, for a wave study, is a
    ``_wave_reference`` of a study that differs at most in scheme and seed;
    without it the study builds its own.
    """
    if study.problem == "matrix":
        if reference is not None:
            raise ValueError("a matrix study takes no wave reference")
        rows, extra = _matrix_rows(study, scheme)
    else:
        rows, extra = _schrodinger_rows(study, scheme, reference)
    metadata = {
        "problem": study.problem,
        "scheme": study.scheme_name,
        "seed": study.seed,
        "horizon": study.horizon,
        **extra,
    }
    rows = tuple(rows)
    errors = [e for _, e in rows]
    if max(errors) <= ERROR_FLOOR:
        return StudyResult(
            rows, None, None, "degenerate", (), "degenerate: no order measurable", metadata
        )
    if any(e <= 0 for e in errors):
        return StudyResult(
            rows, None, None, "inconclusive", (), "zero error at finite step", metadata
        )
    if any(a <= b for a, b in zip(errors, errors[1:])):
        return StudyResult(
            rows, None, None, "inconclusive", (), "non-monotone error sequence", metadata
        )
    kept, dropped_rows = _drop_preasymptotic(list(rows))
    fitted_order, r2 = estimate_order(kept)
    ref_gap = metadata.get("reference_consistency")
    notes = []
    if dropped_rows:
        notes.append(
            "dropped pre-asymptotic steps: "
            + ", ".join(repr(h) for h, _ in dropped_rows)
        )
    verdict = "pass"
    if isinstance(ref_gap, float) and ref_gap > 0.3 * min(errors):
        verdict = "inconclusive"
        notes.append("reference not converged relative to finest measurement")
    if r2 < R2_GATE:
        verdict = "fail"
        notes.append(f"fit r2 {r2:.6f} below gate {R2_GATE}")
    if (
        verdict == "pass"
        and study.expected_order is not None
        and abs(fitted_order - study.expected_order) > ORDER_WINDOW
    ):
        verdict = "fail"
        notes.append(
            f"fitted order {fitted_order:.4f} outside "
            f"{study.expected_order} +/- {ORDER_WINDOW}"
        )
    return StudyResult(
        rows,
        float(fitted_order),
        float(r2),
        verdict,
        tuple(h for h, _ in dropped_rows),
        "; ".join(notes),
        metadata,
    )


# --- exact algebra certification ----------------------------------------------


@dataclass(frozen=True)
class CertificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CertificationReport:
    checks: Tuple[CertificationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.all_passed else 1

    def format(self) -> str:
        lines = []
        for check in self.checks:
            tag = "PASS" if check.passed else "FAIL"
            lines.append(f"{tag} {check.name}")
            if check.detail and not check.passed:
                lines.append(check.detail)
        return "\n".join(lines) + "\n"


def _faulty_series_form() -> ls.FreeElement:
    # deliberate self-test fault: first coefficient -1/6 -> -1/5
    inner = ls.bracket(1, 2)
    wrong = ls.bracket(2, inner).scale(Fraction(-1, 5))
    right = ls.bracket(3, inner).scale(Fraction(-1, 6))
    return wrong + right


def certify_algebra(inject_fault: bool = False) -> CertificationReport:
    """Run the exact-rational certification chain end to end.

    Each check names an element that must vanish, exactly or modulo the
    condition ideal.  ``inject_fault`` corrupts one coefficient of the
    reduction target (-1/6 -> -1/5) to prove the chain can fail; the default
    run must be all-PASS.
    """
    taylor = ls.splitting_taylor(3)
    series = ls.third_order_series_form()
    target = _faulty_series_form() if inject_fault else series
    jacobi = (
        ls.bracket(1, ls.bracket(2, 3))
        + ls.bracket(2, ls.bracket(3, 1))
        + ls.bracket(3, ls.bracket(1, 2))
    )
    # (name, element that must vanish, whether modulo the condition ideal)
    chain = (
        ("consistency: degree-0 and degree-1 coefficients vanish", taylor[0] + taylor[1], False),
        (
            "degree-2 coefficient equals half the commutator-sum condition",
            taylor[2] - ls.second_order_defect().scale(Fraction(1, 2)),
            False,
        ),
        (
            "degree-3 coefficient matches its direct word-by-word expansion",
            taylor[3] - ls.third_order_mixed_form(),
            False,
        ),
        (
            "degree-3 coefficient reduces to the nested-commutator form "
            "modulo the condition ideal",
            taylor[3] - target,
            True,
        ),
        ("Jacobi identity", jacobi, False),
        (
            "nested-commutator form and integral-representation form agree "
            "modulo the condition ideal",
            series - ls.third_order_integral_form(),
            True,
        ),
        (
            "intermediate four-term form shares the canonical coset representative",
            ls.third_order_pre_jacobi_form() - series,
            True,
        ),
    )
    checks = []
    for name, element, modulo_ideal in chain:
        if modulo_ideal:
            element = ls.reduce_mod_condition(element).residual
        passed = element.is_zero()
        detail = "" if passed else "offending element:\n" + ls.format_element(element)
        checks.append(CertificationCheck(name, passed, detail))
    return CertificationReport(tuple(checks))


# --- constrained-triple sampling ------------------------------------------------


def _random_pair(dim: int, seed: int):
    seed_a, seed_b = derive_seeds(seed, 2)
    return random_skew_hermitian(dim, seed_a), random_skew_hermitian(dim, seed_b)


def sample_constrained_triple(dim: int, seed: int):
    """P1, P2 drawn once from the seed and the solver's P3; a rejection raises."""
    p1, p2 = _random_pair(dim, seed)
    return p1, p2, solve_second_order_constraint(p1, p2)


# --- verification campaigns -----------------------------------------------------


#: Entries of the one stacked expm a campaign stack makes: its triples times
#: the t values times 4 exponentials (three factors and e^{tL}) times n^2.
#: expm holds about 15 arrays of that size, so the default bound campaign
#: (dim 6, three t, 9 triples per stack) adds about 1 MB of peak memory; one
#: stack for all 100 triples adds about 10 MB.
_STACK_ENTRIES = 1 << 12


def _campaign(count: int, dim: int, t_list: Sequence[float], seed: int):
    """(instance, t, triple, S(t) - e^{tL}, its spectral norm, the bound) for
    every instance and t, instance-major and t-minor.

    Triples are drawn one per instance, in seed order, and checked in stacks
    of up to _STACK_ENTRIES / (4 len(t_list) dim^2) of them: per stack one
    ``triple_splitting_error`` over every triple and t, one batched spectral
    norm and one ``error_bound``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if len(t_list) == 0:
        raise ValueError("t_list must not be empty")
    times = np.asarray(t_list, dtype=float)
    seeds = derive_seeds(seed, count)
    step = max(1, _STACK_ENTRIES // (4 * times.size * dim * dim))
    for start in range(0, count, step):
        triples = [sample_constrained_triple(dim, child) for child in seeds[start : start + step]]
        p1, p2, p3 = (np.stack(p) for p in zip(*triples))
        errors = triple_splitting_error(p1, p2, p3, times)
        measured = np.linalg.norm(errors, 2, axis=(-2, -1)).tolist()
        bounds = error_bound(p1, p2, p3, times).tolist()
        for i, triple in enumerate(triples):
            for j, t in enumerate(times.tolist()):
                yield start + i, t, triple, errors[i, j], measured[i][j], bounds[i][j]


@dataclass(frozen=True)
class DuhamelCampaignRow:
    instance: int
    t: float
    report: ErrorReport


@dataclass(frozen=True)
class DuhamelCampaign:
    rows: Tuple[DuhamelCampaignRow, ...]
    discrepancy_tol: float
    passed: bool
    notes: str


def verify_duhamel(
    count: int,
    dim: int,
    t_list: Sequence[float],
    seed: int,
    quad: Optional[QuadratureSpec] = None,
    discrepancy_tol: float = 1e-6,
) -> DuhamelCampaign:
    """Compare the integral error representation against the measured error.

    For every sampled constraint-satisfying triple and every t, the
    discrepancy ||(S(t) - e^{tL}) - E(t)|| must sit below
    ``discrepancy_tol``.  The measured error and the bound come from the
    campaign's stacks, E(t) from one ``duhamel_error`` per row, compared
    as it stands (sign +1): a sign error in it shows as a discrepancy near
    twice the error norm.
    """
    rows = []
    notes = []
    for index, t, triple, error, measured, bound in _campaign(count, dim, t_list, seed):
        represented = duhamel_error(*triple, t, quad=quad)
        report = ErrorReport(
            measured_error_norm=measured,
            duhamel_norm=float(np.linalg.norm(represented, 2)),
            bound_value=bound,
            sign_factor=1,
            discrepancy=float(np.linalg.norm(error - represented, 2)),
        )
        rows.append(DuhamelCampaignRow(index, t, report))
        if report.discrepancy > discrepancy_tol:
            notes.append(
                f"instance {index}, t={t!r}: discrepancy "
                f"{report.discrepancy:.3e} above {discrepancy_tol!r}"
            )
    return DuhamelCampaign(tuple(rows), discrepancy_tol, not notes, "; ".join(notes))


@dataclass(frozen=True)
class BoundCampaignRow:
    instance: int
    t: float
    measured: float
    bound: float
    saturation: float
    violated: bool


@dataclass(frozen=True)
class BoundCampaign:
    rows: Tuple[BoundCampaignRow, ...]
    slack: float
    violations: int
    max_saturation: float
    passed: bool


def verify_bound(
    count: int,
    dim: int,
    t_list: Sequence[float],
    seed: int,
    slack: float = 1e-9,
) -> BoundCampaign:
    """Check measured ||S(t) - e^{tL}|| against the cubic commutator bound,
    from the campaign's stacks."""
    rows = []
    for index, t, _, _, m, b in _campaign(count, dim, t_list, seed):
        saturation = m / b if b > 0 else 0.0
        rows.append(BoundCampaignRow(index, t, m, b, saturation, m > b + slack))
    violations = sum(row.violated for row in rows)
    max_saturation = max((row.saturation for row in rows), default=0.0)
    return BoundCampaign(tuple(rows), slack, violations, max_saturation, violations == 0)


# --- wave benchmark --------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRow:
    h: float
    l2_error: float
    norm_defect: float


def run_schrodinger_benchmark(study: ConvergenceStudy, scheme=None):
    """Convergence study plus per-step-size norm defects, benchmark-style."""
    if study.problem != "schrodinger":
        raise ValueError("benchmark runs are wave-problem studies")
    result = run_convergence(study, scheme=scheme)
    defects = result.metadata.get("norm_defects", ())
    rows = tuple(
        BenchmarkRow(h, err, defect)
        for (h, err), defect in zip(result.rows, defects)
    )
    return rows, result
