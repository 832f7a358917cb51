"""Dense complex-matrix kernel: exponentials, commutators, norms, random
skew-Hermitian operators, the second-order condition and its solver.

Matrices are plain square ``numpy`` arrays of complex128.  The exponential of
one matrix or a stack, at one t, one t per matrix or a grid of them, is one
``eigh`` per matrix for a stack that is skew-Hermitian throughout, and scaling
and squaring with diagonal Pade of degree 13 (Higham, SIAM J. Matrix Anal.
Appl. 26, 2005) for any other.
Public functions validate their arguments once; the private helpers take checked arrays.
``check_second_order`` is the one gate on [P1,P2] + [P1,P3] + [P2,P3] = 0,
used by the constraint solver and by ``duhamel_error``.  The solver meets it
by one ``eigh`` of M = P1 + P2 = U diag(i lam) U*: P3 = -U (Q o K) U* with
Q = U* P2 U and K zero where |lam_i - lam_j| is at most eps n^2 max|lam_k -
lam_l|, the minimum-norm solution of [M, P3] = -[M, P2].
``_double_commutators`` forms [P2,P3], [P1,[P2,P3]] and [P2,[P2,P3]], from
which the error representation, its bound and the integral E3 are built.
"""

from __future__ import annotations

import math

import numpy as np

_SKEW_HERMITIAN_TOL = 1e-13

#: Relative tolerance of the second-order-condition gate, check_second_order.
CONDITION_TOL = 1e-12


class _Located(RuntimeError):
    """A fault whose ``index`` locates its row in a stack, () for one."""

    def __init__(self, message="", index=()):
        super().__init__(message)
        self.index = index


class InputError(ValueError):
    """A value the user chose (a config key, a flag, a scheme file) is unusable: CLI exit 2."""


class ConditionViolated(_Located):
    """An operator triple does not satisfy the second-order condition."""


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def as_complex_stack(m) -> np.ndarray:
    """``as_complex_matrix`` for one square matrix or a (k, n, n) stack."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 3:
        return as_complex_matrix(a)
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (k, n, n) stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("stack has non-finite entries")
    return a


def as_times(t) -> np.ndarray:
    """t as a float array of a scalar or m >= 1 finite values: the time axis a
    stacked splitting error or bound broadcasts over."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-d array, got shape {times.shape}")
    if not times.size:
        raise ValueError("t must hold at least one value")
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    return times


def is_skew_hermitian(m) -> bool:
    """max|M + M*| <= 1e-13, relative to max|M| once that exceeds 1."""
    return _is_skew(as_complex_matrix(m))


def _is_skew(a) -> bool:
    defect = np.abs(a + np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1))
    return bool(np.all(defect <= _SKEW_HERMITIAN_TOL * np.abs(a).max(axis=(-2, -1), initial=1.0)))


#: theta_13, the largest ||A||_1 at which r_13(A) = p_13(-A)^{-1} p_13(A) meets
#: unit roundoff (Higham 2005, Table 2.3), and the rows that map the powers
#: [I, A^2, A^4, A^6] to [U', V] with p_13(A) = A U' + V and to the parts A^6 multiplies
_THETA13 = 5.371920351148152
_B13 = [math.factorial(26 - j) // (math.factorial(j) * math.factorial(13 - j)) for j in range(14)]
_PADE13 = np.array([_B13[1:8:2], _B13[0:7:2], [0] + _B13[9::2], [0] + _B13[8::2]], dtype=float)


def expm(m, t=1.0) -> np.ndarray:
    """e^{tM} by Higham's Algorithm 2.3 ("The scaling and squaring method for
    the matrix exponential revisited", 2005), for one matrix or a (k, n, n)
    stack with t a scalar, k values or a (k, m) grid, which gives (k, m, n, n);
    one t goes to every matrix.  A stack skew-Hermitian throughout takes one
    eigh of -iM = U diag(lam) U* per matrix for all its times: e^{sM} = I +
    U diag(expm1(i s lam)) U*, unitary at any s and exactly I at s = 0 (Moler
    and Van Loan, 2003).  Any other is degree-13 Pade on the stack repeated
    along the grid; each matrix keeps its own 2^-s, s = ceil(log2(||tM||_1 /
    theta_13)) or 0 at or below theta_13, and s squarings.

    Raises ValueError for an empty or non-finite t, and OverflowError when the
    result does not fit in double precision.
    The size of t M alone decides nothing: for skew-Hermitian M the
    exponential is unitary at any norm.
    """
    a = np.asarray(m, dtype=np.complex128)
    shape = a.shape
    a = a[None] if a.ndim == 2 else a
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not np.isfinite(a).all():
        raise ValueError(f"expected a finite square matrix or (k, n, n) stack, got shape {a.shape}")
    t = np.asarray(t, dtype=float)
    grid = as_times(t.ravel()).reshape(len(t) if t.ndim else 1, -1)
    if t.ndim > 2 or len(grid) != len(a) and t.size > 1:
        raise ValueError(f"expected one t, {len(a)} values or a ({len(a)}, m) grid, got shape {t.shape}")
    grid = np.broadcast_to(grid, (len(a), grid.shape[1]))
    shape = grid.shape + a.shape[1:] if t.ndim == 2 else shape
    if _is_skew(a):
        return _skew_grid(a, grid).reshape(shape)
    a, t = np.repeat(a, grid.shape[1], axis=0), grid.ravel()
    k, n, _ = a.shape
    with np.errstate(over="ignore", invalid="ignore"):
        a = t[:, None, None] * a
        norms = np.abs(a).sum(axis=1).max(axis=1)
        if not math.isfinite(norms.max()):
            raise OverflowError("e^{tM} overflows double precision")
        s = [math.ceil(math.log2(x / _THETA13)) if x > _THETA13 else 0 for x in norms.tolist()]
        if max(s):
            a = a / np.exp2(s)[:, None, None]
        powers = np.empty((4, k, n, n), dtype=np.complex128)  # I, A^2, A^4, A^6
        powers[0], powers[1] = np.eye(n), a @ a
        for j in (2, 3):
            powers[j] = powers[j - 1] @ powers[1]
        uv = (_PADE13 @ powers.reshape(4, -1)).reshape(4, k, n, n)
        uv = uv[:2] + powers[3] @ uv[2:]
        u = a @ uv[0]
        result = np.linalg.solve(uv[1] - u, uv[1] + u)
        for j in range(max(s)):  # only the matrices scaled by more than 2^-j
            sel = slice(None) if min(s) > j else [i for i, si in enumerate(s) if si > j]
            result[sel] = result[sel] @ result[sel]
    if not np.isfinite(result).all():
        raise OverflowError("e^{tM} overflows double precision")
    return result.reshape(shape)


def _skew_grid(a, t):
    """e^{sA} at each s of a (k, m) grid for a checked skew-Hermitian stack."""
    lam, u = np.linalg.eigh(-1j * a)
    if not math.isfinite(float(np.abs(t).max()) * float(np.abs(lam).max())):
        raise OverflowError("e^{tM} overflows double precision")
    phases = np.expm1(1j * (t[..., None] * lam[:, None]))
    result = (u[:, None] * phases[..., None, :]) @ u.conj().swapaxes(-1, -2)[:, None]
    result += np.eye(a.shape[-1])
    return result


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _commutator(a, b)


def _commutator(a, b):
    return a @ b - b @ a


def _double_commutators(p1, p2, p3):
    """K23 = [P2,P3], K1 = [P1,K23] and K2 = [P2,K23] of checked matrices."""
    k23 = _commutator(p2, p3)
    return k23, _commutator(p1, k23), _commutator(p2, k23)


def op_norm(m):
    """Spectral norm of a matrix (a float) or of each matrix of a (..., n, n) stack:
    s sqrt(lam_max(Y*Y)), Y = X/s, s = max|x_ij| (finite at any finite X, 0 for
    X = 0), from one batched eigvalsh (Golub and Van Loan, Matrix Computations, 2.3)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not np.isfinite(a).all():
        raise ValueError(f"expected a finite square matrix or (..., n, n) stack, got shape {a.shape}")
    s = np.abs(a).max(axis=(-2, -1), keepdims=True)
    lift = np.where(s < np.finfo(float).tiny, 2.0**64, 1.0)  # 1/s overflows for a subnormal s
    y = a * lift
    y /= np.where(s > 0, s * lift, 1.0)
    norm = np.sqrt(np.linalg.eigvalsh(y.conj().swapaxes(-1, -2) @ y)[..., -1]) * s[..., 0, 0]
    return float(norm) if a.ndim == 2 else norm


def random_skew_hermitian(n: int, seed: int) -> np.ndarray:
    """Deterministic random skew-Hermitian matrix with O(1) entries."""
    return _random_skew(n, (seed,), 1)[0, 0]


def _random_skew(n, seeds, per_seed):
    """(len(seeds), per_seed, n, n) skew-Hermitian (X - X*)/2, X = G[..., 0, :, :] +
    i G[..., 1, :, :], with G one standard_normal((per_seed, 2, n, n)) per seed."""
    if n < 1:
        raise InputError("dimension must be positive")
    g = np.stack([np.random.default_rng(seed).standard_normal((per_seed, 2, n, n)) for seed in seeds])
    x = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    return (x - x.conj().swapaxes(-1, -2)) / 2.0


def check_second_order(p1, p2, p3) -> tuple[bool, float]:
    """(verdict, residual): the spectral norm of [P1,P2] + [P1,P3] + [P2,P3]
    against CONDITION_TOL (1 + ||P1||_F^2 + ||P2||_F^2 + ||P3||_F^2).  The
    scale covers the eps ||Pi|| ||Pj|| rounding of the defect; Frobenius norms
    add no eigenvalue solve.  The tolerance is fixed: no caller can loosen the gate."""
    ok, residual = _second_order(*(as_complex_matrix(p) for p in (p1, p2, p3)))
    return bool(ok), float(residual)


def _second_order(p1, p2, p3):
    defect = _commutator(p1, p2) + _commutator(p1, p3) + _commutator(p2, p3)
    residual = np.asarray(op_norm(defect))
    scale = 1.0 + sum(np.linalg.norm(p, axis=(-2, -1)) ** 2 for p in (p1, p2, p3))
    return residual <= CONDITION_TOL * scale, residual


def solve_second_order_constraint(p1, p2) -> np.ndarray:
    """Return P3 with [P1,P2] + [P1,P3] + [P2,P3] = 0 for skew-Hermitian P1, P2,
    n x n matrices or (k, n, n) stacks of one shape, one P3 per pair.

    With M = P1 + P2 = U diag(i lam) U*, ad_M is diagonal in the eigenbasis with
    singular values |lam_i - lam_j|, so the minimum-norm least-squares solution
    of [M, P3] = -[M, P2] is P3 = -U (Q o K) U*, Q = U* P2 U.  K keeps (i, j)
    where |lam_i - lam_j| > eps n^2 max|lam_k - lam_l|, the rank cutoff of least
    squares on the n^2 x n^2 system, per pair.  The condition gate re-verifies
    P3; a miss raises ConditionViolated, a fault to report, not redraw.
    """
    p1 = as_complex_stack(p1)
    p2 = as_complex_stack(p2)
    if p1.shape != p2.shape:
        raise ValueError(f"dimension mismatch: {p1.shape} vs {p2.shape}")
    if not (_is_skew(p1) and _is_skew(p2)):
        raise ValueError("P1 and P2 must be skew-Hermitian")
    lam, u = np.linalg.eigh(-1j * (p1 + p2))
    gap = np.abs(lam[..., :, None] - lam[..., None, :])
    keep = gap > np.finfo(float).eps * lam.shape[-1] ** 2 * gap.max(axis=(-2, -1), keepdims=True)
    p3 = -u @ np.where(keep, u.conj().swapaxes(-1, -2) @ p2 @ u, 0.0) @ u.conj().swapaxes(-1, -2)
    ok, residual = _second_order(p1, p2, p3)
    if not ok.all():
        index = (int(np.argmin(ok)),) if ok.ndim else ()  # the first failing pair
        raise ConditionViolated(f"constraint defect {residual[index]:.3e} exceeds its gate", index)
    return p3
