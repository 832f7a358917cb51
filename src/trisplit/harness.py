"""Experiment orchestration: convergence studies, algebra certification, and
verification campaigns for the integral error representation and the error
bound.

Everything here is deterministic for a fixed seed: instance seeds are derived
from one root generator, results are aggregated in fixed order, and verdicts
are computed only from numbers that appear in the emitted rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from trisplit import lie_symbolic as ls, matrix_core
from trisplit.duhamel import _Located, duhamel_error, error_bound
from trisplit.matrix_core import InputError, _random_skew, expm, solve_second_order_constraint
from trisplit.schrodinger import (
    Grid1D,
    WaveFunction,
    commutator_apply,
    evolve_runs,
    gaussian_packet,
    norm_defect,
    potential_by_name,
)
from trisplit.splitting import (
    apply_splitting,
    generator_matrix,
    make_lie_trotter,
    make_strang,
    pair_operator_set,
    scheme_by_name,
    triple_splitting_error,
)

#: errors at or below this are treated as "nothing left to measure"
ERROR_FLOOR = 1e-12

#: required goodness of fit for a convergence PASS
R2_GATE = 0.999

#: the order a study is held to, keyed by its scheme's operands: a scheme with
#: a built-in's operands has that built-in's order, whatever its name, and any
#: other scheme none
NOMINAL_ORDERS = {make_lie_trotter().operands: 1.0, make_strang().operands: 2.0}

#: |fitted - nominal| window of a study whose scheme has a nominal order
ORDER_WINDOW = 0.1

#: a wave study whose reference's consistency exceeds this times its finest
#: error is inconclusive
REFERENCE_GATE = 0.3

#: errors at the floor are degenerate, not a failure, only if A and B commute: ||[A,B]||
#: (||[A,B]u0|| on a wave grid) at most this eps ||A|| ||B|| (||u0||), ||A|| = max k^2/2
COMMUTE_FACTOR = 64


def derive_seeds(seed: int, count: int) -> Tuple[int, ...]:
    """Deterministic child seeds for independent instances."""
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.integers(0, 2**63, size=count))


# --- order estimation ---------------------------------------------------------


def estimate_order(rows: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope of log(error) against log(h), with its r^2."""
    if len(rows) < 3:
        raise ValueError("need at least 3 (h, error) rows")
    h, e = np.array(rows, dtype=float).T
    if not np.all(h > 0):  # NaN fails too
        raise ValueError("step sizes must be positive")
    if not np.all(e > 0):
        raise ValueError("errors must be positive to fit a slope")
    dx, dy = (np.log(v) - np.log(v).mean() for v in (h, e))
    if not dx.any():
        raise ValueError("step sizes must not all be equal")
    slope = np.dot(dx, dy) / np.dot(dx, dx)  # centred least squares, in closed form
    ss_res, ss_tot = float(np.sum((dy - slope * dx) ** 2)), float(np.sum(dy**2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


# --- convergence studies ------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceStudy:
    """One order-measurement campaign.

    Step sizes must be dyadic (each exactly half the previous) and each must
    divide the horizon, into ``step_counts`` steps; a matrix study draws a
    skew-Hermitian pair of size ``dim`` from the seed, a wave study draws
    nothing.  An unusable value of a field its kind reads raises ``InputError``
    when the study is built; the scheme is resolved when the study runs.
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
    step_counts: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.problem not in ("matrix", "schrodinger"):
            raise InputError(f"unknown problem kind {self.problem!r}")
        steps = tuple(float(h) for h in self.step_sizes)
        if len(steps) < 4:
            raise InputError("need at least 4 step sizes")
        if any(h <= 0 for h in steps):  # NaN is left to the ratio test
            raise InputError("step sizes must be positive")
        for a, b in zip(steps, steps[1:]):
            if not abs(a / b - 2.0) <= 2e-12:  # relative 1e-12, NaN and inf fail
                raise InputError("step sizes must descend dyadically (ratio 2)")
        if not self.horizon > 0:
            raise InputError("horizon must be positive")
        if not np.isfinite(self.horizon / steps[-1]):  # the finest step counts the most steps
            raise InputError(f"horizon {self.horizon!r} over step {steps[-1]!r} overflows the step count")
        counts = tuple(round(self.horizon / h) for h in steps)
        for h, n in zip(steps, counts):
            if n < 1 or abs(self.horizon / h - n) > 1e-9 * n:
                raise InputError(f"horizon {self.horizon!r} is not an integer multiple of {h!r}")
        if self.problem == "schrodinger":
            potential_by_name(self.potential, Grid1D(self.half_width, self.points))
        elif self.dim < 1:
            raise InputError("dimension must be positive")
        object.__setattr__(self, "step_sizes", steps)
        object.__setattr__(self, "step_counts", counts)


@dataclass(frozen=True)
class StudyResult:
    rows: Tuple[Tuple[float, float], ...]
    fitted_order: Optional[float]
    fit_r2: Optional[float]
    verdict: str  # "pass" | "fail" | "inconclusive" | "degenerate"
    dropped: Tuple[float, ...]  # always (): the fit uses every row
    notes: str
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


class Reference(NamedTuple):
    """The ``study`` a section was built for; ``rows`` by (operands, seed): the
    study's errors in step order and its result's metadata."""

    study: ConvergenceStudy
    rows: Dict[tuple, Tuple[Tuple[float, ...], Dict[str, object]]]


def _reference(study: ConvergenceStudy, schemes, seeds) -> Reference:
    """The reference of the study's kind, for schemes that take both A and B and
    nothing else; the builder is read at call time, so a patch reaches it."""
    for scheme in schemes:
        if set(scheme.references) != {"A", "B"}:
            raise InputError(f"scheme {scheme.name!r} is not an A/B scheme")
    return (matrix_reference if study.problem == "matrix" else wave_reference)(study, schemes, seeds)


def matrix_reference(study: ConvergenceStudy, schemes, seeds) -> Reference:
    """Every scheme at every seed, in the stacks of ``_pair_stacks`` for m steps:
    per scheme one ``apply_splitting``, e^{TL} from one ``expm`` and S(h)^{n_0 2^j}
    as row j squared j times, then to the power n_0; one ``op_norm``.  Rows are as alone."""
    rows = {}
    for _, stack, a, b in _pair_stacks(study.dim, seeds, len(study.step_sizes)):
        ops = pair_operator_set(a, b)
        gaps = []
        for scheme in schemes:
            exact = expm(generator_matrix(scheme, ops), study.horizon)[:, None]
            powers = apply_splitting(scheme, ops, study.step_sizes)
            for j in range(1, len(study.step_sizes)):
                powers[:, j:] = powers[:, j:] @ powers[:, j:]
            gaps.append(np.linalg.matrix_power(powers, study.step_counts[0]) - exact)
        for scheme, errors in zip(schemes, matrix_core.op_norm(np.stack(gaps)).tolist()):
            rows.update(((scheme.operands, seed), (tuple(e), {})) for seed, e in zip(stack, errors))
    return Reference(study, rows)


def _romberg(strang) -> Tuple[WaveFunction, float]:
    """Romberg's R = (64 S_n - 20 S_{n/2} + S_{n/4}) / 45 from Strang's finals n, n/2, ...
    (n = horizon / h_min), which cancels the h^2 and h^4 terms of Strang's error,
    even in h, and R's consistency, its distance to R one level coarser."""
    levels = [run.samples for run in strang[:4]]
    reference, coarser = (
        WaveFunction((64 * fine - 20 * mid + coarse) / 45, strang[0].grid)
        for fine, mid, coarse in (levels[:3], levels[1:])
    )
    return reference, _l2_distance(coarser, reference)


def wave_reference(study: ConvergenceStudy, schemes, seeds) -> Reference:
    """Strang and ``schemes``, once per operands, from the unit Gaussian at
    every step count of the study in one stacked call.  A scheme's errors are
    its runs' distances to ``_romberg`` of Strang's, with their norm defects and
    its consistency; a wave study draws nothing from its seed, so every seed
    has the same rows.  Each run is bitwise as alone."""
    grid = Grid1D(study.half_width, study.points)
    potential = potential_by_name(study.potential, grid)
    initial, steps = gaussian_packet(grid), study.step_counts[::-1]  # n, n/2, ...
    ops = {scheme.operands: scheme for scheme in (make_strang(), *schemes)}
    finals = evolve_runs(initial, potential, study.horizon, steps, *ops.values())
    runs = {key: finals[i * len(steps) : (i + 1) * len(steps)][::-1] for i, key in enumerate(ops)}
    state, consistency = _romberg(finals)
    rows = {}
    for scheme in schemes:
        own = runs[scheme.operands]
        defects = tuple(norm_defect(initial, f) for f in own)
        extra = {"norm_defects": defects, "reference_consistency": consistency}
        row = tuple(_l2_distance(f, state) for f in own), extra
        rows.update(((scheme.operands, seed), row) for seed in seeds)
    return Reference(study, rows)


def _commutator_note(study: ConvergenceStudy) -> str:
    """"" if the study's generators commute (``COMMUTE_FACTOR``), else a note on their size."""
    if study.problem == "matrix":
        a, b = _random_skew(study.dim, (study.seed,), 2)[0]
        size, *norms = matrix_core.op_norm(np.stack([matrix_core.commutator(a, b), a, b])).tolist()
    else:
        grid = Grid1D(study.half_width, study.points)
        v, u0 = potential_by_name(study.potential, grid), gaussian_packet(grid)
        size = commutator_apply(u0, v).l2_norm()
        norms = [np.max(grid.wavenumbers**2) / 2, np.abs(v.samples).max(), u0.l2_norm()]
    bound = COMMUTE_FACTOR * np.finfo(float).eps * float(np.prod(norms))
    return "" if size <= bound else f"no order measurable, yet [A,B] is {size:.3e}, above {bound:.3e}"


def _l2_distance(u: WaveFunction, v: WaveFunction) -> float:
    return WaveFunction(u.samples - v.samples, u.grid).l2_norm()


def run_convergence(study: ConvergenceStudy, scheme=None, reference=None) -> StudyResult:
    """Measure errors over the study's step sizes and fit an order.

    ``scheme`` overrides the named scheme, e.g. with one loaded from a file.
    ``reference`` is the ``Reference`` of a study that differs at most in scheme
    and seed; without one that holds the study's key, the study builds a one-key
    reference of its kind.  The fit uses every row, and a scheme with a nominal
    order is held to it.  Errors at the floor are "degenerate" only if the
    generators commute on the study's data (``COMMUTE_FACTOR``).
    """
    scheme = scheme or scheme_by_name(study.scheme_name)
    built = reference and reference.study
    if built and replace(study, scheme_name=built.scheme_name, seed=built.seed) != built:
        raise ValueError("a reference serves only studies that differ from its own in scheme or seed")
    key = (scheme.operands, study.seed)
    if key not in getattr(reference, "rows", ()):  # a one-key reference of its own
        reference = _reference(study, (scheme,), (study.seed,))
    errors, extra = reference.rows[key]
    rows = tuple(zip(study.step_sizes, errors))
    metadata = {"problem": study.problem, "scheme": study.scheme_name, "seed": study.seed}
    metadata.update(horizon=study.horizon, **extra)
    fitted_order = r2 = None
    if max(errors) <= ERROR_FLOOR:
        commutator = _commutator_note(study)
        verdict = "fail" if commutator else "degenerate"
        notes = [commutator or "degenerate: no order measurable"]
    elif any(e <= 0 for e in errors):
        verdict, notes = "inconclusive", ["zero error at finite step"]
    elif any(a <= b for a, b in zip(errors, errors[1:])):
        verdict, notes = "inconclusive", ["non-monotone error sequence"]
    else:
        fitted_order, r2 = estimate_order(rows)
        ref_gap = metadata.get("reference_consistency")
        nominal = NOMINAL_ORDERS.get(scheme.operands)
        verdict, notes = "pass", []
        if ref_gap is not None and ref_gap > REFERENCE_GATE * min(errors):
            verdict = "inconclusive"
            notes.append("reference not converged relative to finest measurement")
        if r2 < R2_GATE:
            verdict = "fail"
            notes.append(f"fit r2 {r2:.6f} below gate {R2_GATE}")
        if verdict == "pass" and nominal is not None and abs(fitted_order - nominal) > ORDER_WINDOW:
            verdict = "fail"
            notes.append(f"fitted order {fitted_order:.4f} outside {nominal} +/- {ORDER_WINDOW}")
    return StudyResult(rows, fitted_order, r2, verdict, (), "; ".join(notes), metadata)


def run_studies(study: ConvergenceStudy, schemes, instances: int) -> Iterator[StudyResult]:
    """``study`` run by each scheme, then at each seed, every study read from one
    reference that runs them all: at the child seeds ``derive_seeds(study.seed,
    instances)`` for a matrix study, at ``study.seed`` alone for a wave study."""
    seeds = derive_seeds(study.seed, instances) if study.problem == "matrix" else (study.seed,)
    reference = _reference(study, schemes, seeds)
    for scheme in schemes:
        for seed in seeds:
            yield run_convergence(replace(study, scheme_name=scheme.name, seed=seed), scheme, reference)


# --- exact algebra certification ----------------------------------------------


class CertificationCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


def certify_algebra(inject_fault: bool = False) -> Tuple[CertificationCheck, ...]:
    """Run the exact-rational certification chain end to end.

    Each check names an element that must vanish, exactly or modulo the
    condition ideal.  ``inject_fault`` corrupts one coefficient of the
    reduction target (-1/6 -> -1/5) to prove the chain can fail; the default
    run must be all-PASS.
    """
    taylor = ls.splitting_taylor(3)
    series = ls.third_order_series_form()
    target = series
    if inject_fault:  # deliberate self-test fault: -1/6 [P2,[P1,P2]] -> -1/5
        target = series - ls.bracket(2, ls.bracket(1, 2)).scale(Fraction(1, 30))
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
    return tuple(checks)


# --- constrained-triple sampling ------------------------------------------------


#: Entries of the one expm a campaign stack makes: its triples times the m
#: values of t times 4 exponentials (three factors and e^{tL}) times n^2; a
#: matrix section counts its m steps.  Every stack takes expm's eigenvector
#: path, which holds about 4 arrays of that size: the default bound campaign
#: (dim 6, three t, 37 triples per stack) peaks at about 1.1 MB traced, and
#: one t (100 triples in one stack) at 1.5 MB.
_STACK_ENTRIES = 1 << 14


def _pair_stacks(dim: int, seeds: Sequence[int], m: int):
    """(first index, seeds, P1, P2) per stack of up to _STACK_ENTRIES / (4 m
    dim^2) seeds, a pair per seed from one generator: P1 is
    random_skew_hermitian(dim, seed)."""
    if dim < 1:
        raise InputError("dim must be at least 1")
    step = max(1, _STACK_ENTRIES // (4 * m * dim * dim))
    for start in range(0, len(seeds), step):
        stack = seeds[start : start + step]
        yield (start, stack, *_random_skew(dim, stack, 2).swapaxes(0, 1))


def sample_constrained_triple(dim: int, seed: int):
    """P1, P2 drawn once from the seed and the solver's P3; a rejection raises."""
    _, _, p1, p2 = next(_pair_stacks(dim, (seed,), 1))
    return tuple(p[0] for p in (p1, p2, solve_second_order_constraint(p1, p2)))


# --- verification campaigns -----------------------------------------------------


#: the trivial bound on ||S(t) - e^{tL}|| for unitary flows: rows at or above it show nothing
VACUOUS_BOUND = 2.0

#: largest ||(S(t) - e^{tL}) - E(t)|| a verify-duhamel row may show
DISCREPANCY_TOL = 1e-6

#: round-off allowance of a verify-bound row: measured above bound + this is a violation
BOUND_SLACK = 1e-9


@contextmanager
def _naming_rows(start: int, seeds: Sequence[int], times: Sequence[float] = ()):
    """Re-raise a stack's fault, naming the instance, child seed and t it locates."""
    try:
        yield
    except _Located as exc:
        if not exc.index:
            raise
        i, *j = exc.index
        t = "".join(f", t={times[x]!r}" for x in j)
        message = f"instance {start + i} (child seed {seeds[i]}){t}: {exc}"
        raise type(exc)(message, exc.index) from exc


def _campaign(count: int, dim: int, t_list: Sequence[float], seed: int):
    """Per stack: (first instance, child seeds, triple stacks, S(t) - e^{tL} for
    every triple and t, and ((instance, t), its spectral norm, the bound) rows).

    Each instance's pair is drawn from its own child seed, in seed order, and
    checked in the stacks of ``_pair_stacks`` for m = len(t_list): per stack
    one constraint solve, one ``triple_splitting_error`` over every triple and
    t, one batched spectral norm and one ``error_bound``.
    """
    if count < 1:
        raise InputError("count must be at least 1")
    if len(t_list) == 0:
        raise InputError("t_list must not be empty")
    times = np.asarray(t_list, dtype=float)
    for start, stack, p1, p2 in _pair_stacks(dim, derive_seeds(seed, count), times.size):
        with _naming_rows(start, stack):
            triples = p1, p2, solve_second_order_constraint(p1, p2)
        errors = triple_splitting_error(*triples, times)
        measured = matrix_core.op_norm(errors).ravel().tolist()
        bounds = error_bound(*triples, times).ravel().tolist()
        cells = [(start + i, t) for i in range(len(stack)) for t in times.tolist()]
        yield start, stack, triples, errors, list(zip(cells, measured, bounds))


class DuhamelCampaignRow(NamedTuple):
    instance: int
    t: float
    measured_error_norm: float
    duhamel_norm: float
    bound_value: float
    sign_factor: int
    discrepancy: float


@dataclass(frozen=True)
class DuhamelCampaign:
    rows: Tuple[DuhamelCampaignRow, ...]
    passed: bool
    notes: str


def verify_duhamel(count: int, dim: int, t_list: Sequence[float], seed: int) -> DuhamelCampaign:
    """Compare the integral error representation against the measured error.

    For every sampled constraint-satisfying triple and every t, the
    discrepancy ||(S(t) - e^{tL}) - E(t)|| must sit at or below
    ``DISCREPANCY_TOL``.  E(t) comes from ``duhamel_error`` at its one
    quadrature; a row it cannot converge raises ``ToleranceNotReached``.
    The measured error and the bound come from the campaign's stacks, E(t)
    from one ``duhamel_error`` per stack, compared as it stands (sign +1): a
    sign error in it shows as a discrepancy near twice the error norm; its
    norms and the discrepancies are batched.
    """
    rows = []
    notes = []
    times = np.asarray(t_list, dtype=float).tolist()
    for start, seeds, triples, errors, cells in _campaign(count, dim, t_list, seed):
        with _naming_rows(start, seeds, times):
            represented = duhamel_error(*triples, times)
        both = np.stack((represented, errors - represented))
        norms, gaps = matrix_core.op_norm(both).reshape(2, -1).tolist()
        for ((index, t), measured, bound), norm, gap in zip(cells, norms, gaps):
            rows.append(DuhamelCampaignRow(index, t, measured, norm, bound, 1, gap))
            if gap > DISCREPANCY_TOL:
                notes.append(
                    f"instance {index}, t={t!r}: discrepancy "
                    f"{gap:.3e} above {DISCREPANCY_TOL!r}"
                )
    return DuhamelCampaign(tuple(rows), not notes, "; ".join(notes))


class BoundCampaignRow(NamedTuple):
    instance: int
    t: float
    measured: float
    bound: float
    saturation: float
    violated: bool


@dataclass(frozen=True)
class BoundCampaign:
    rows: Tuple[BoundCampaignRow, ...]
    violations: int
    vacuous: int
    max_saturation: float
    passed: bool


def verify_bound(count: int, dim: int, t_list: Sequence[float], seed: int) -> BoundCampaign:
    """Check measured ||S(t) - e^{tL}|| against the cubic commutator bound,
    from the campaign's stacks: a row is violated above bound + ``BOUND_SLACK``."""
    rows = []
    for *_, cells in _campaign(count, dim, t_list, seed):
        for (index, t), m, b in cells:
            saturation = m / b if b > 0 else 0.0
            rows.append(BoundCampaignRow(index, t, m, b, saturation, m > b + BOUND_SLACK))
    violations = sum(row.violated for row in rows)
    vacuous = sum(row.bound >= VACUOUS_BOUND for row in rows)
    max_saturation = max((row.saturation for row in rows), default=0.0)
    return BoundCampaign(tuple(rows), violations, vacuous, max_saturation, violations == 0)


# --- wave benchmark --------------------------------------------------------------


class BenchmarkRow(NamedTuple):
    h: float
    l2_error: float
    norm_defect: float


def run_schrodinger_benchmark(study: ConvergenceStudy, scheme=None):
    """Convergence study plus per-step-size norm defects, benchmark-style."""
    if study.problem != "schrodinger":
        raise ValueError("benchmark runs are wave-problem studies")
    result = run_convergence(study, scheme=scheme)
    defects = result.metadata["norm_defects"]
    rows = tuple(
        BenchmarkRow(h, err, defect)
        for (h, err), defect in zip(result.rows, defects)
    )
    return rows, result
