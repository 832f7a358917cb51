"""Dense complex-matrix kernel: exponentials, commutators, norms, random
skew-Hermitian operators, the second-order condition and its solver.

Matrices are plain square ``numpy`` arrays of complex128.  The exponential is
scaling-and-squaring with degree-13 diagonal Pade (scipy's implementation).
``check_second_order`` is the one gate on [P1,P2] + [P1,P3] + [P2,P3] = 0,
used by the constraint solver and by ``duhamel_error``.  The solver meets it
by one ``eigh`` of M = P1 + P2 = U diag(i lam) U*: P3 = -U (Q o K) U* with
Q = U* P2 U and K zero where |lam_i - lam_j| is at most eps n^2 max|lam_k -
lam_l|, the minimum-norm solution of [M, P3] = -[M, P2].
``double_commutators`` forms [P2,P3], [P1,[P2,P3]] and [P2,[P2,P3]], from
which the error representation, its bound and the integral E3 are built.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

_SKEW_HERMITIAN_TOL = 1e-13

#: Relative tolerance of the second-order-condition gate, check_second_order.
CONDITION_TOL = 1e-12


class ConditionViolated(RuntimeError):
    """An operator triple does not satisfy the second-order condition."""


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def is_skew_hermitian(m, tol: float = _SKEW_HERMITIAN_TOL) -> bool:
    """max|M + M*| <= tol, relative to max|M| once that exceeds 1."""
    a = as_complex_matrix(m)
    return bool(np.max(np.abs(a + a.conj().T)) <= tol * max(1.0, np.max(np.abs(a))))


def expm(m, t: float = 1.0) -> np.ndarray:
    """e^{t M} by scaling-and-squaring with diagonal Pade.

    Raises OverflowError when the result does not fit in double precision.
    The size of t M alone decides nothing: for skew-Hermitian M the
    exponential is unitary at any norm.
    """
    a = as_complex_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(t * a)
    if not np.all(np.isfinite(result)):
        raise OverflowError("e^{tM} overflows double precision")
    return result


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def double_commutators(p1, p2, p3):
    """K23 = [P2,P3], K1 = [P1,K23] and K2 = [P2,K23]."""
    k23 = commutator(p2, p3)
    return k23, commutator(p1, k23), commutator(p2, k23)


def op_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(as_complex_matrix(m), 2))


def random_skew_hermitian(n: int, seed: int) -> np.ndarray:
    """Deterministic random skew-Hermitian matrix with O(1) entries."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x - x.conj().T) / 2.0


def check_second_order(p1, p2, p3, tol: float | None = None) -> tuple[bool, float]:
    """(verdict, residual): the spectral norm of [P1,P2] + [P1,P3] + [P2,P3]
    against tol (1 + ||P1||_F^2 + ||P2||_F^2 + ||P3||_F^2), tol defaulting to
    CONDITION_TOL.  The scale covers the eps ||Pi|| ||Pj|| rounding of the
    defect; Frobenius norms add no SVD."""
    tol = CONDITION_TOL if tol is None else tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    defect = commutator(p1, p2) + commutator(p1, p3) + commutator(p2, p3)
    residual = op_norm(defect)
    scale = 1.0 + sum(np.linalg.norm(p) ** 2 for p in (p1, p2, p3))
    return residual <= tol * scale, residual


def solve_second_order_constraint(p1, p2) -> np.ndarray:
    """Return P3 with [P1,P2] + [P1,P3] + [P2,P3] = 0 for skew-Hermitian P1, P2.

    With M = P1 + P2 = U diag(i lam) U*, ad_M is diagonal in the eigenbasis with
    singular values |lam_i - lam_j|, so the minimum-norm least-squares solution
    of [M, P3] = -[M, P2] is P3 = -U (Q o K) U*, Q = U* P2 U.  K keeps (i, j)
    where |lam_i - lam_j| > eps n^2 max|lam_k - lam_l|, the rank cutoff of least
    squares on the n^2 x n^2 system.  check_second_order re-verifies P3; a miss
    raises ConditionViolated, a fault to report, not redraw.
    """
    p1 = as_complex_matrix(p1)
    p2 = as_complex_matrix(p2)
    if p1.shape != p2.shape:
        raise ValueError(f"dimension mismatch: {p1.shape} vs {p2.shape}")
    if not (is_skew_hermitian(p1) and is_skew_hermitian(p2)):
        raise ValueError("P1 and P2 must be skew-Hermitian")
    lam, u = np.linalg.eigh(-1j * (p1 + p2))
    gap = np.abs(lam[:, None] - lam[None, :])
    keep = gap > np.finfo(float).eps * lam.size**2 * gap.max()
    p3 = -u @ np.where(keep, u.conj().T @ p2 @ u, 0.0) @ u.conj().T
    ok, residual = check_second_order(p1, p2, p3)
    if not ok:
        raise ConditionViolated(f"constraint defect {residual:.3e} exceeds its gate")
    return p3
