"""Correctness checks made apart from the program.

Every check here recomputes what it needs from the inputs with numpy and
scipy, or tests a property the method must have.  None of them calls into
trisplit, so a fault in the program cannot hide behind the same fault in its
check.  Each function returns ``(passed, detail)``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

#: |duhamel_error - (S(t) - e^{tL})|: the quadrature targets 1e-8; a correct
#: representation lands near 1e-14, a negated one near 2 |E| >= 1e-4.
DUHAMEL_TOL = 1e-7

#: the program's documented gate on the constraint residual, relative to
#: 1 + |[P1,P2]|.
RESIDUAL_TOL = 1e-10

#: |P3 - P3_min_norm| relative to 1 + |P2|; observed near 1e-14.
MIN_NORM_TOL = 1e-10

#: |measured error - independent exponential difference|, absolute.
ERROR_TOL = 1e-10

#: relative agreement of the program's error bound with the one made here.
BOUND_TOL = 1e-10

#: verify-duhamel rows: the campaign's own discrepancy gate.
DISCREPANCY_TOL = 1e-6

#: window around the nominal order for refitted slopes.
ORDER_WINDOW = 0.1

#: agreement of a refitted slope with the slope the program reports.
SLOPE_AGREEMENT = 1e-8

#: L2 norm drift of a unitary flow on the grid.
NORM_DEFECT_TOL = 1e-10

#: sup distance between evolve() and the closed-form free Gaussian.
FREE_GAUSSIAN_TOL = 1e-10


def _norm2(m) -> float:
    return float(np.linalg.norm(m, 2))


def _comm(a, b):
    return a @ b - b @ a


def random_skew_hermitian(rng, n: int) -> np.ndarray:
    """Skew-Hermitian matrix with spectral norm of order 1 at every n."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x - x.conj().T) / (2.0 * np.sqrt(n))


def skew_expm(p, t: float) -> np.ndarray:
    """e^{tP} for skew-Hermitian P through one eigendecomposition."""
    s = (p - p.conj().T) / 2.0
    lam, v = np.linalg.eigh(-1j * s)
    return (v * np.exp(1j * t * lam)) @ v.conj().T


def commuting_part(m, x) -> np.ndarray:
    """The part of X that is diagonal in the eigenbasis of skew-Hermitian M."""
    _, u = np.linalg.eigh(-1j * m)
    return u @ np.diag(np.diag(u.conj().T @ x @ u)) @ u.conj().T


def widened_triple(rng, n: int):
    """P1, P2 and P3 = -P2 + Z with Z = U diag(i r) U* commuting with P1+P2.

    Every solution of the second-order condition has this form, so these
    triples reach the whole solution set, not only its minimum-norm point.
    """
    p1 = random_skew_hermitian(rng, n)
    p2 = random_skew_hermitian(rng, n)
    _, u = np.linalg.eigh(-1j * (p1 + p2))
    z = u @ np.diag(1j * rng.standard_normal(n)) @ u.conj().T
    return p1, p2, -p2 + z


# --- matrices ----------------------------------------------------------------


def duhamel_matches(p1, p2, p3, t, represented):
    """The integral representation equals S(t) - e^{tL}, with sign +1."""
    e = scipy.linalg.expm
    measured = e(t * p1) @ e(t * p2) @ e(t * p3) - e(t * (p1 + p2 + p3))
    gap = _norm2(represented - measured)
    return gap <= DUHAMEL_TOL, f"|duhamel - expm product| = {gap:.3e}"


def constraint_holds(p1, p2, p3):
    defect = _comm(p1, p2) + _comm(p1, p3) + _comm(p2, p3)
    residual = _norm2(defect)
    gate = RESIDUAL_TOL * (1.0 + _norm2(_comm(p1, p2)))
    return residual <= gate, f"constraint residual {residual:.3e}, gate {gate:.3e}"


def is_min_norm_solution(p1, p2, p3):
    """P3 equals the documented minimum-norm solution -(P2 - Pi_M P2)."""
    reference = -(p2 - commuting_part(p1 + p2, p2))
    gap = _norm2(p3 - reference)
    gate = MIN_NORM_TOL * (1.0 + _norm2(p2))
    return gap <= gate, f"|P3 - min-norm solution| = {gap:.3e}, gate {gate:.3e}"


def error_matches(p1, p2, p3, t, error):
    """The measured error equals e^{tP1}e^{tP2}e^{tP3} - e^{t(P1+P2+P3)}."""
    reference = (
        skew_expm(p1, t) @ skew_expm(p2, t) @ skew_expm(p3, t)
        - skew_expm(p1 + p2 + p3, t)
    )
    gap = _norm2(error - reference)
    return gap <= ERROR_TOL, f"|error - eigh product| = {gap:.3e}"


def cubic_bound(p1, p2, p3, t) -> float:
    inner = _comm(p2, p3)
    return abs(t) ** 3 / 6.0 * (_norm2(_comm(p1, inner)) + _norm2(_comm(p2, inner)))


def bound_holds(p1, p2, p3, t, measured, bound):
    """The program's bound equals the cubic commutator bound and covers the error."""
    own = cubic_bound(p1, p2, p3, t)
    agrees = abs(bound - own) <= BOUND_TOL * own
    covers = measured <= own + 1e-12
    return agrees and covers, f"measured {measured:.3e}, bound {bound:.3e}, own bound {own:.3e}"


# --- campaign rows ------------------------------------------------------------


def duhamel_row_ok(row):
    ok = (
        row["discrepancy"] <= DISCREPANCY_TOL
        and row["sign_factor"] == 1
        and row["measured_error_norm"] <= row["bound_value"]
    )
    return ok, (
        f"instance {row['instance']} t={row['t']}: discrepancy {row['discrepancy']:.3e}, "
        f"sign {row['sign_factor']}, measured {row['measured_error_norm']:.3e}, "
        f"bound {row['bound_value']:.3e}"
    )


def bound_row_ok(row, slack):
    ok = row["measured"] <= row["bound"] + slack
    return ok, (
        f"instance {row['instance']} t={row['t']}: measured {row['measured']:.3e}, "
        f"bound {row['bound']:.3e}"
    )


# --- convergence orders ---------------------------------------------------------


def loglog_slope(rows) -> float:
    """Least-squares slope of log(error) against log(h)."""
    x = np.log([h for h, _ in rows])
    y = np.log([e for _, e in rows])
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def order_ok(rows, nominal):
    """Refitted order of all rows within the nominal window."""
    slope = loglog_slope(rows)
    return abs(slope - nominal) <= ORDER_WINDOW, f"refitted order {slope:.4f}, nominal {nominal}"


def study_ok(result, nominal):
    """A convergence study: passed, with monotone errors, and the order the
    program fitted to the rows it kept is the one refitted here."""
    rows = list(result.rows)
    kept = [(h, e) for h, e in rows if h not in result.dropped]
    monotone = all(a[1] > b[1] for a, b in zip(rows, rows[1:]))
    if len(kept) < 3 or not monotone or result.fitted_order is None:
        return False, f"verdict {result.verdict}, {len(kept)} rows kept, monotone {monotone}"
    slope = loglog_slope(kept)
    ok = (
        result.verdict == "pass"
        and abs(slope - result.fitted_order) <= SLOPE_AGREEMENT
        and abs(slope - nominal) <= ORDER_WINDOW
    )
    return ok, (
        f"verdict {result.verdict}, program order {result.fitted_order:.6f}, "
        f"refitted {slope:.6f}, nominal {nominal}"
    )


def norm_defects_ok(defects):
    worst = max(defects)
    return worst <= NORM_DEFECT_TOL, f"worst norm defect {worst:.3e}"


# --- wave equation ----------------------------------------------------------------


def free_gaussian(x, sigma, t):
    """exp(-x^2 / (2 sigma^2)) after time t of i u_t = (1/2) u_xx.

    In Fourier space u_hat(k, t) = e^{i t k^2 / 2} u_hat(k, 0), which turns the
    width sigma^2 into sigma^2 - i t.
    """
    a = sigma**2 - 1j * t
    return sigma / np.sqrt(a) * np.exp(-(x**2) / (2.0 * a))


def free_evolution_ok(samples, x, sigma, t):
    gap = float(np.max(np.abs(samples - free_gaussian(x, sigma, t))))
    return gap <= FREE_GAUSSIAN_TOL, f"sup distance to the free Gaussian {gap:.3e}"
