"""Integral error representation of the three-factor splitting.

The product e^{tP1}e^{tP2}e^{tP3} deviates from e^{tL}, L = P1 + P2 + P3, by
an error that, once [P1,P2] + [P1,P3] + [P2,P3] = 0 holds, admits an *exact*
integral representation built from the double commutators K1 = [P1,[P2,P3]]
and K2 = [P2,[P2,P3]], in which every flow runs forward:

    E(t) = int_0^t e^{(t-tau)L} [V1(tau) e^{tau P2} + e^{tau P1} V2(tau)] e^{tau P3} dtau,

    V1(tau) = int_0^tau (tau-r) e^{(tau-r)P1} K1 e^{r P1} dr,
    V2(tau) = int_0^tau r e^{(tau-r)P2} K2 e^{r P2} dr.

No flow is ever inverted, so the form makes sense for semigroups that have no
backward flow.  The bracket kernel for a single pair is

    [e^{tP}, Q] = int_0^t e^{(t-s)P} [P,Q] e^{sP} ds.

The inner integrals are exact.  Each is the top-right block of the exponential
of one block upper-bidiagonal matrix (Van Loan, "Computing integrals involving
the matrix exponential", IEEE TAC 1978).  Writing VL(t; A1, B1, A2, ..., Ak)
for that block (see ``_van_loan``) and I for the identity:

    [e^{tP}, Q] = VL(t; P, [P,Q], P),
    V1(tau) = VL(tau; P1, I, P1, K1, P1),   V2(tau) = VL(tau; P2, K2, P2, I, P2).

Only the outer tau-integral of E(t) uses quadrature, composite Gauss-Legendre
with panel doubling: its flows of L, P1, P2 and P3 are not one exponential.
``duhamel_error`` validates its inputs, checks the condition and forms K1, K2
(``double_commutators``) once, then takes one of two paths.

* P1, P2 and P3 all skew-Hermitian (every campaign): in the eigenbasis of
  P = U diag(mu) U*, mu = i lam, V1 and V2 are elementwise (the
  Daleckii-Krein form; Higham, "Functions of Matrices", 2008).  With
  X~ = U* X U,

      VL(tau; P, I, P, K, P) = U (K~ o G) U*,  G_ij = tau^2 e^{tau mu_j} psi(tau (mu_i - mu_j)),
      VL(tau; P, K, P, I, P) = U (K~ o H) U*,  H_ij = tau^2 e^{tau mu_i} psi(tau (mu_j - mu_i)),

  where psi(z) = int_0^1 x e^{xz} dx = (e^z - phi1(z))/z, phi1(z) =
  int_0^1 e^{xz} dx exact as phi1(i theta) = e^{i theta/2} sinc(theta/2pi),
  summed as a Taylor series for |z| < 1/2.  Nothing divides by an
  eigenvalue gap, so repeated and clustered spectra need no special case.
  One ``eigh`` each of P1, P2, P3 and L serves every panel level, all nodes
  of a level are one stacked (nodes, n, n) computation, and the
  eigenvectors of L and P3 are applied once to the weighted sum.
* Any other input: each tau node makes three exponential calls, one stack of
  e^{tau P1}, e^{tau P2}, e^{tau P3} and e^{(t-tau)L}, and the two 3n x 3n
  Van Loan blocks V1 and V2.  This loop is also the reference the
  eigenbasis path is tested against.

The error bound

    ||E(t)|| <= (t^3/6) (||K1|| + ||K2||)

follows from the forward form whenever every flow in it is a contraction:
then ||V1(tau)|| <= (tau^2/2) ||K1|| and ||V2(tau)|| <= (tau^2/2) ||K2||.
Skew-Hermitian generators give isometries.  ``harness.verify_duhamel``
compares E(t) with the measured S(t) - e^{tL} and with this bound, one
``ErrorReport`` per triple and t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from trisplit.matrix_core import (
    ConditionViolated,
    _commutator,
    _double_commutators,
    _is_skew,
    _second_order,
    as_complex_matrix,
    as_times,
    expm,
)
from trisplit.splitting import triple_operator_set

#: Refinement cap: panel counts grow by doubling at most this many times.
MAX_PANEL_DOUBLINGS = 8


class ToleranceNotReached(RuntimeError):
    """Panel doubling hit its cap, or stalled at round-off, above target_tol."""


@dataclass(frozen=True)
class QuadratureSpec:
    gauss_order: int = 8
    panels: int = 1
    target_tol: float = 1e-8

    def __post_init__(self):
        if self.gauss_order < 2:
            raise ValueError("gauss_order must be at least 2")
        if self.panels < 1:
            raise ValueError("panels must be at least 1")
        if not self.target_tol > 0:
            raise ValueError("target_tol must be positive")


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(upper: float, order: int, panels: int):
    """Composite Gauss-Legendre nodes and weights for int_0^upper."""
    x, w = _gauss_rule(order)
    edges = np.linspace(0.0, upper, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _refined(evaluate, quad: QuadratureSpec, refine: bool) -> np.ndarray:
    panels = quad.panels
    previous = evaluate(panels)
    if not refine:
        return previous
    for _ in range(MAX_PANEL_DOUBLINGS):
        panels *= 2
        current = evaluate(panels)
        gap = np.linalg.norm(current - previous, 2)
        if gap < quad.target_tol / 2.0:
            return current
        if gap <= 64 * np.finfo(float).eps * np.linalg.norm(current, 2):  # stalled at round-off
            break
        previous = current
    raise ToleranceNotReached(
        f"duhamel_error: gap {gap:.1e} at {panels} panels did not reach "
        f"target_tol {quad.target_tol!r}"
    )


def _van_loan(t: float, *blocks) -> np.ndarray:
    """Top-right n x n block of e^{tC}, C block upper-bidiagonal.

    ``blocks`` lists C's diagonal blocks A1..Ak interleaved with its
    superdiagonal blocks B1..B(k-1): A1, B1, A2, ..., B(k-1), Ak.  The block
    is the iterated integral

        int_{0 <= r_(k-1) <= ... <= r_1 <= t}
            e^{(t-r_1)A1} B1 e^{(r_1-r_2)A2} B2 ... e^{r_(k-1) Ak}.
    """
    n = blocks[0].shape[0]
    k = (len(blocks) + 1) // 2
    c = np.zeros((k * n, k * n), dtype=np.complex128)
    for i, block in enumerate(blocks):
        row, col = i // 2, (i + 1) // 2
        c[row * n : (row + 1) * n, col * n : (col + 1) * n] = block
    return expm(c, t)[:n, -n:]


def z_integral(p, q, t) -> np.ndarray:
    """[e^{tP}, Q] in variation-of-constants form,
    int_0^t e^{(t-s)P} [P,Q] e^{sP} ds, evaluated exactly."""
    p = as_complex_matrix(p)
    q = as_complex_matrix(q)
    return _van_loan(t, p, _commutator(p, q), p)


def _forward_kernel(tau, p1, p2, k1, k2, e1, e2) -> np.ndarray:
    """V1(tau) e^{tau P2} + e^{tau P1} V2(tau) from checked P1, P2, K1, K2,
    e1 = e^{tau P1} and e2 = e^{tau P2}."""
    eye = np.eye(p1.shape[0], dtype=np.complex128)
    return _van_loan(tau, p1, eye, p1, k1, p1) @ e2 + e1 @ _van_loan(tau, p2, k2, p2, eye, p2)


#: Taylor coefficients 1/(k! (k+2)), k = 15..0, of psi(z) = int_0^1 x e^{xz} dx.
_PSI_TAYLOR = (1.0 / (np.cumprod(np.r_[1.0, np.arange(1.0, 16.0)]) * np.arange(2.0, 18.0)))[::-1]

#: Entries per stacked (nodes, n, n) array; bounds the memory of one pass.
_STACK_ENTRIES = 1 << 21


def _psi(theta) -> np.ndarray:
    """psi(i theta) elementwise for real theta: (e^{i theta} - phi1)/(i theta)
    for |theta| >= 1/2, the Taylor series below."""
    small = np.abs(theta) < 0.5
    out = np.empty(theta.shape, dtype=np.complex128)
    out[small] = np.polyval(_PSI_TAYLOR, 1j * theta[small])
    wide = theta[~small]
    half = np.exp(0.5j * wide)
    out[~small] = half * (half - np.sinc(wide / (2 * np.pi))) / (1j * wide)
    return out


def _eigenbasis_error(p1, p2, p3, k1, k2, t, quad, refine) -> np.ndarray:
    """E(t) for skew-Hermitian P1, P2, P3 from one eigh of each and of L.

    With Pk = Uk diag(i lam_k) Uk*, Cjk = Uj* Uk and Dk = diag(e^{i tau lam_k}),
    the integrand in the bases of L and P3 is

        DL(t - tau) CL1 [A~ C12 D2 + D1 C12 H~] C23 D3(tau),

    A~ = U1* VL(tau; P1, I, P1, K1, P1) U1 and H~ = U2* VL(tau; P2, K2, P2,
    I, P2) U2, whose entries are K2~_ij tau^2 e^{i tau lam2_i}
    psi(tau (lam2_j - lam2_i)).
    """
    (lam1, u1), (lam2, u2), (lam3, u3), (lam_l, u_l) = (
        np.linalg.eigh(-1j * p) for p in (p1, p2, p3, p1 + p2 + p3)
    )
    k1_t = u1.conj().T @ k1 @ u1
    k2_t = u2.conj().T @ k2 @ u2
    c12 = u1.conj().T @ u2
    cl1 = u_l.conj().T @ u1
    c23 = u2.conj().T @ u3
    gap1 = lam1[:, None] - lam1[None, :]
    gap2 = lam2[:, None] - lam2[None, :]

    def level(nodes, weights):
        tau = nodes[:, None, None]
        a = k1_t * tau**2 * np.exp(1j * tau * lam1) * _psi(tau * gap1)
        h = k2_t * tau**2 * np.exp(1j * tau * lam2[:, None]) * _psi(-tau * gap2)
        x = a @ (c12 * np.exp(1j * tau * lam2)) + (np.exp(1j * tau * lam1[:, None]) * c12) @ h
        y = cl1 @ x @ c23
        left = weights[:, None, None] * np.exp(1j * (t - tau) * lam_l[:, None])
        return (left * y * np.exp(1j * tau * lam3)).sum(axis=0)

    def once(panels):
        nodes, weights = _panel_nodes(t, quad.gauss_order, panels)
        step = max(1, _STACK_ENTRIES // lam1.size**2)
        total = sum(
            level(nodes[i : i + step], weights[i : i + step]) for i in range(0, len(nodes), step)
        )
        return u_l @ total @ u3.conj().T

    return _refined(once, quad, refine)


def duhamel_error(p1, p2, p3, t, quad=None, refine=True) -> np.ndarray:
    """The exact error representation E(t): Gauss-Legendre over tau of the
    forward-flow integrand, whose inner integrals V1 and V2 are exact.

    Requires the second-order condition: without it the representation misses
    the surviving single-commutator term and cannot match the measured error.
    Skew-Hermitian triples take the eigenbasis path; any other input makes
    three exponential calls per tau node, one of them a stack of the four
    n x n factors.  The inputs are validated once, here.
    """
    p1, p2, p3 = (as_complex_matrix(p) for p in (p1, p2, p3))
    ok, residual = _second_order(p1, p2, p3)
    if not ok:
        raise ConditionViolated(
            f"second-order condition residual {residual:.3e} exceeds its gate; "
            "the integral representation does not apply"
        )
    _, k1, k2 = _double_commutators(p1, p2, p3)
    quad = quad or QuadratureSpec()
    if all(_is_skew(p) for p in (p1, p2, p3)):
        return _eigenbasis_error(p1, p2, p3, k1, k2, t, quad, refine)
    generators = np.stack((p1, p2, p3, p1 + p2 + p3))

    def once(panels):
        nodes, weights = _panel_nodes(t, quad.gauss_order, panels)
        total = np.zeros_like(p1)
        for tau, w in zip(nodes, weights):
            e1, e2, e3, e_l = expm(generators, (tau, tau, tau, t - tau))
            total += w * (e_l @ _forward_kernel(tau, p1, p2, k1, k2, e1, e2) @ e3)
        return total

    return _refined(once, quad, refine)


def error_bound(p1, p2, p3, t):
    """(|t|^3/6) (||[P1,[P2,P3]]|| + ||[P2,[P2,P3]]||).

    An upper bound for ||S(t) - e^{tL}|| whenever every flow of P1, P2, P3
    and L between 0 and t is a contraction (dissipative generators at
    t >= 0; skew-Hermitian generators, whose flows are isometries, at
    either sign of t).

    Broadcasting as in ``triple_splitting_error``: P1, P2 and P3 are n x n
    matrices or (k, n, n) stacks of one shape, t a scalar or m values, and
    the result has shape (k, m), without the k axis for matrices and the m
    axis for a scalar t; matrices at a scalar t give a Python float.  K1 and
    K2 are formed and their norms taken once per triple, whatever m is.
    Raises OverflowError, naming the largest |t|, when a bound overflows.
    """
    _, k1, k2 = _double_commutators(*triple_operator_set(p1, p2, p3).bindings.values())
    norms = np.linalg.norm(k1, 2, axis=(-2, -1)) + np.linalg.norm(k2, 2, axis=(-2, -1))
    # |t|^3/6 in Python floats, as the scalar bound has always taken it:
    # numpy's vectorised power may round the last bit differently
    t = as_times(t)
    try:
        with np.errstate(over="raise"):
            cubes = np.reshape([abs(x) ** 3 / 6.0 for x in t.ravel().tolist()], t.shape)
            bound = np.multiply.outer(norms, cubes)
    except (OverflowError, FloatingPointError):
        big = max(t.ravel().tolist(), key=abs)
        raise OverflowError(f"t = {big!r}: the cubic bound overflows a double") from None
    return float(bound) if bound.ndim == 0 else bound


@dataclass(frozen=True)
class ErrorReport:
    """Side-by-side record of one measured-vs-represented error comparison:
    a row of ``harness.verify_duhamel``."""

    measured_error_norm: float
    duhamel_norm: float
    bound_value: float
    sign_factor: int
    discrepancy: float

    def __post_init__(self):
        if self.sign_factor not in (1, -1):
            raise ValueError("sign_factor must be +1 or -1")
