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
from trisplit.duhamel import ErrorReport, QuadratureSpec, build_error_report, error_bound
from trisplit.matrix_core import (
    ResidualTooLarge,
    expm,
    is_skew_hermitian,
    op_norm,
    random_skew_hermitian,
    solve_second_order_constraint,
)
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

_MAX_SAMPLING_ATTEMPTS = 10


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


def _matrix_rows(study: ConvergenceStudy, operators, scheme=None):
    if operators is None:
        seed_a, seed_b = derive_seeds(study.seed, 2)
        a = random_skew_hermitian(study.dim, seed_a)
        b = random_skew_hermitian(study.dim, seed_b)
    else:
        a, b = operators
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


def _schrodinger_rows(study: ConvergenceStudy, scheme=None):
    grid = Grid1D(study.half_width, study.points)
    potential = potential_by_name(study.potential, grid)
    scheme = scheme or scheme_by_name(study.scheme_name)
    initial = gaussian_packet(grid)
    h_min = min(study.step_sizes)
    strang = make_strang()
    reference = evolve(
        initial, potential, study.horizon, _steps_for(study.horizon, h_min / 4), strang
    )
    # consistency of the reference itself: one level up must already be close
    coarser_reference = evolve(
        initial, potential, study.horizon, _steps_for(study.horizon, h_min / 2), strang
    )
    ref_gap = _l2_distance(coarser_reference, reference)
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


def run_convergence(study: ConvergenceStudy, operators=None, scheme=None) -> StudyResult:
    """Measure errors over the study's step sizes and fit an order.

    ``operators`` overrides the sampled matrix pair (matrix problems only) —
    used to drive degenerate cases deliberately.  ``scheme`` overrides the
    named scheme with an explicit SplittingScheme (e.g. loaded from a file).
    """
    if study.problem == "matrix":
        rows, extra = _matrix_rows(study, operators, scheme)
    else:
        if operators is not None:
            raise ValueError("operators override applies to matrix problems only")
        rows, extra = _schrodinger_rows(study, scheme)
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

    ``inject_fault`` corrupts one coefficient of the reduction target
    (-1/6 -> -1/5) to prove the chain can fail; the default run must be
    all-PASS.
    """
    checks = []

    def record(name: str, passed: bool, element: Optional[ls.FreeElement] = None):
        detail = ""
        if element is not None and not passed:
            detail = "offending element:\n" + ls.format_element(element)
        checks.append(CertificationCheck(name, passed, detail))

    taylor = ls.splitting_taylor(3)

    consistency = taylor[0].is_zero() and taylor[1].is_zero()
    record("consistency: degree-0 and degree-1 coefficients vanish", consistency,
           taylor[0] + taylor[1])

    half_condition = ls.second_order_defect().scale(Fraction(1, 2))
    record(
        "degree-2 coefficient equals half the commutator-sum condition",
        taylor[2] == half_condition,
        taylor[2] - half_condition,
    )

    mixed = ls.third_order_mixed_form()
    record(
        "degree-3 coefficient matches its direct word-by-word expansion",
        taylor[3] == mixed,
        taylor[3] - mixed,
    )

    target = _faulty_series_form() if inject_fault else ls.third_order_series_form()
    reduction = ls.reduce_mod_condition(taylor[3] - target)
    record(
        "degree-3 coefficient reduces to the nested-commutator form "
        "modulo the condition ideal",
        reduction.in_ideal,
        reduction.residual,
    )

    jacobi = (
        ls.bracket(1, ls.bracket(2, 3))
        + ls.bracket(2, ls.bracket(3, 1))
        + ls.bracket(3, ls.bracket(1, 2))
    )
    record("Jacobi identity", jacobi.is_zero(), jacobi)

    equivalence = ls.reduce_mod_condition(
        ls.third_order_series_form() - ls.third_order_integral_form()
    )
    record(
        "nested-commutator form and integral-representation form agree "
        "modulo the condition ideal",
        equivalence.in_ideal,
        equivalence.residual,
    )

    route_a = ls.reduce_mod_condition(ls.third_order_pre_jacobi_form()).residual
    route_b = ls.reduce_mod_condition(ls.third_order_series_form()).residual
    record(
        "intermediate four-term form shares the canonical coset representative",
        route_a == route_b,
        route_a - route_b,
    )

    return CertificationReport(tuple(checks))


# --- constrained-triple sampling ------------------------------------------------


def sample_constrained_triple(dim: int, seed: int):
    """Random skew-Hermitian P1, P2 plus the solved P3, re-verified.

    Resamples on solver rejection; gives up after 10 attempts (which, at desk
    scale, indicates something structurally wrong rather than bad luck).
    """
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_SAMPLING_ATTEMPTS):
        seed_a, seed_b = (int(s) for s in rng.integers(0, 2**63, size=2))
        p1 = random_skew_hermitian(dim, seed_a)
        p2 = random_skew_hermitian(dim, seed_b)
        try:
            p3 = solve_second_order_constraint(p1, p2)
        except ResidualTooLarge:
            continue
        if not is_skew_hermitian(p3, tol=1e-10):
            continue
        return p1, p2, p3
    raise RuntimeError(
        f"constraint sampling exhausted {_MAX_SAMPLING_ATTEMPTS} attempts"
    )


# --- verification campaigns -----------------------------------------------------


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
    discrepancy must sit below ``discrepancy_tol``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if len(t_list) == 0:
        raise ValueError("t_list must not be empty")
    rows = []
    notes = []
    passed = True
    for index, child in enumerate(derive_seeds(seed, count)):
        p1, p2, p3 = sample_constrained_triple(dim, child)
        for t in t_list:
            report = build_error_report(p1, p2, p3, t, quad=quad)
            rows.append(DuhamelCampaignRow(index, float(t), report))
            if report.discrepancy > discrepancy_tol:
                passed = False
                notes.append(
                    f"instance {index}, t={t!r}: discrepancy "
                    f"{report.discrepancy:.3e} above {discrepancy_tol!r}"
                )
    return DuhamelCampaign(tuple(rows), discrepancy_tol, passed, "; ".join(notes))


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
    """Check measured ||S(t) - e^{tL}|| against the cubic commutator bound."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if len(t_list) == 0:
        raise ValueError("t_list must not be empty")
    rows = []
    violations = 0
    max_saturation = 0.0
    for index, child in enumerate(derive_seeds(seed, count)):
        p1, p2, p3 = sample_constrained_triple(dim, child)
        for t in t_list:
            measured = op_norm(triple_splitting_error(p1, p2, p3, t))
            bound = error_bound(p1, p2, p3, t)
            saturation = measured / bound if bound > 0 else 0.0
            violated = measured > bound + slack
            if violated:
                violations += 1
            max_saturation = max(max_saturation, saturation)
            rows.append(
                BoundCampaignRow(index, float(t), measured, bound, saturation, violated)
            )
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
