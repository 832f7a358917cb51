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

Only the outer tau-integral of E(t) uses quadrature: its flows are not one
exponential.  The rule is fixed in code: Gauss-Legendre of order GAUSS_ORDER =
8 on one panel, doubled per (triple, t) row until successive estimates differ
by less than TARGET_TOL/2 = 5e-9, at most MAX_PANEL_DOUBLINGS = 8 times (256
panels); a row that stops short raises ``ToleranceNotReached``.
``duhamel_error`` validates a triple or a stack, checks the condition and forms
K1, K2 (``_double_commutators``) once, then takes one of two paths.

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
  One batched ``eigh`` each of P1, P2, P3 and L serves every row and level,
  a level's pending rows and nodes are one stacked (rows, nodes, n, n)
  computation, and the eigenvectors of L and P3 meet each weighted sum once.
* Any other input, row by row: each tau node makes three exponential calls,
  one stack of e^{tau P1}, e^{tau P2}, e^{tau P3} and e^{(t-tau)L}, and the
  two 3n x 3n Van Loan blocks V1 and V2.  This loop is also the reference the
  eigenbasis path is tested against.

The error bound

    ||E(t)|| <= (t^3/6) (||K1|| + ||K2||)

follows from the forward form whenever every flow in it is a contraction:
then ||V1(tau)|| <= (tau^2/2) ||K1|| and ||V2(tau)|| <= (tau^2/2) ||K2||.
Skew-Hermitian generators give isometries.  ``harness.verify_duhamel`` makes
one call per campaign stack and compares E(t) with the measured S(t) - e^{tL}
and with this bound, one ``DuhamelCampaignRow`` per triple and t.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from trisplit.matrix_core import (
    ConditionViolated,
    _Located,
    _commutator,
    _double_commutators,
    _is_skew,
    _second_order,
    as_complex_matrix,
    as_times,
    expm,
    op_norm,
)
from trisplit.splitting import triple_operator_set

#: Gauss-Legendre order of each panel of the outer tau-rule, which starts on one panel
GAUSS_ORDER = 8

#: a row stops once successive panel doublings differ by less than half of this
TARGET_TOL = 1e-8

#: Refinement cap: panel counts grow by doubling at most this many times.
MAX_PANEL_DOUBLINGS = 8


class ToleranceNotReached(_Located):
    """Panel doubling hit its cap, or stalled at round-off, above TARGET_TOL."""


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(upper: float, panels: int):
    """Composite Gauss-Legendre nodes and weights for int_0^upper."""
    x, w = _gauss_rule(GAUSS_ORDER)
    edges = np.linspace(0.0, upper, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _refined(evaluate, shape) -> np.ndarray:
    """evaluate(panels, rows) estimates those flat rows of ``shape``.  Each row
    doubles its panels until its gap is below TARGET_TOL/2, and fails at a
    round-off stall or the cap; only pending rows are evaluated again.  Once
    all have stopped, the first failing row raises with its index in shape."""
    panels, pending = 1, np.arange(np.prod(shape, dtype=int))
    result = evaluate(panels, pending)
    previous, gaps, reached = result.copy(), np.full(len(pending), np.inf), np.zeros_like(pending)
    while len(pending) and panels < 1 << MAX_PANEL_DOUBLINGS:
        panels *= 2
        current = evaluate(panels, pending)
        gap = op_norm(current - previous)
        gaps[pending], reached[pending] = gap, panels
        live = ~(gap < TARGET_TOL / 2.0)
        result[pending[~live]] = current[~live]
        scale = op_norm(current[live])
        live[live] = ~(gap[live] <= 64 * np.finfo(float).eps * scale)  # stalled at round-off
        pending, previous = pending[live], current[live]
    failed = np.flatnonzero(~(gaps < TARGET_TOL / 2.0))
    if len(failed):
        row = failed[0]
        raise ToleranceNotReached(
            f"duhamel_error: gap {gaps[row]:.1e} at {reached[row]} panels did not reach "
            f"target_tol {TARGET_TOL!r}", tuple(map(int, np.unravel_index(row, shape)))
        )
    return result


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


def _eigenbasis_levels(p1, p2, p3, k1, k2, times):
    """``_refined``'s evaluate for (k, n, n) skew-Hermitian stacks at m times,
    row r being triple r // m at time r % m.

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
    k1_t = u1.conj().swapaxes(-1, -2) @ k1 @ u1
    k2_t = u2.conj().swapaxes(-1, -2) @ k2 @ u2
    c12 = u1.conj().swapaxes(-1, -2) @ u2
    cl1 = u_l.conj().swapaxes(-1, -2) @ u1
    c23 = u2.conj().swapaxes(-1, -2) @ u3
    gap1 = lam1[:, :, None] - lam1[:, None, :]
    gap2 = lam2[:, :, None] - lam2[:, None, :]

    def level(i, t, nodes, weights):  # triples i at times t, axes (row, node, n, n)
        tau, t = nodes[:, :, None, None], t[:, None, None, None]
        r1, r2, r3 = (lam[i, None, None, :] for lam in (lam1, lam2, lam3))
        c1, c2, c_l = (lam[i, None, :, None] for lam in (lam1, lam2, lam_l))
        a = k1_t[i, None] * tau**2 * np.exp(1j * tau * r1) * _psi(tau * gap1[i, None])
        h = k2_t[i, None] * tau**2 * np.exp(1j * tau * c2) * _psi(-tau * gap2[i, None])
        x = a @ (c12[i, None] * np.exp(1j * tau * r2)) + (np.exp(1j * tau * c1) * c12[i, None]) @ h
        y = cl1[i, None] @ x @ c23[i, None]
        left = weights[:, :, None, None] * np.exp(1j * (t - tau) * c_l)
        return (left * y * np.exp(1j * tau * r3)).sum(axis=1)

    def once(panels, rows):
        i, j = np.divmod(rows, len(times))
        rules = zip(*(_panel_nodes(t, panels) for t in times.tolist()))
        nodes, weights = (np.stack(rule)[j] for rule in rules)
        # a pass holds whole rows, or blocks of one row's nodes, as one call does
        step = max(1, _STACK_ENTRIES // lam1.shape[-1] ** 2)
        group = max(1, step // min(step, nodes.shape[1]))
        passes = ((slice(r, r + group), slice(q, q + step)) for r in range(0, len(rows), group)
                  for q in range(0, nodes.shape[1], step))
        total = np.zeros_like(u_l[i])
        for g, q in passes:
            total[g] += level(i[g], times[j[g]], nodes[g, q], weights[g, q])
        return u_l[i] @ total @ u3[i].conj().swapaxes(-1, -2)

    return once


def duhamel_error(p1, p2, p3, t) -> np.ndarray:
    """The exact error representation E(t): Gauss-Legendre over tau of the
    forward-flow integrand, whose inner integrals V1 and V2 are exact.

    Broadcasting as in ``error_bound``, with (k, m, n, n) for (k, m); each
    row equals the call on its triple and t alone.

    Requires the second-order condition: without it the representation misses
    the surviving single-commutator term and cannot match the measured error.
    Skew-Hermitian stacks take the eigenbasis path, other input the block path
    row by row.  The inputs are validated once, here.
    """
    p1, p2, p3 = triple_operator_set(p1, p2, p3).bindings.values()
    times = as_times(t)
    shape, n = p1.shape[:-2] + times.shape, p1.shape[-1]
    p1, p2, p3, times = *(p.reshape(-1, n, n) for p in (p1, p2, p3)), times.ravel()
    ok, residual = _second_order(p1, p2, p3)
    if not ok.all():
        raise ConditionViolated(
            f"second-order condition residual {residual.max():.3e} exceeds its gate; "
            "the integral representation does not apply"
        )
    _, k1, k2 = _double_commutators(p1, p2, p3)
    if all(_is_skew(p) for p in (p1, p2, p3)):
        levels = _eigenbasis_levels(p1, p2, p3, k1, k2, times)
    else:
        generators = np.stack((p1, p2, p3, p1 + p2 + p3), axis=1)

        def levels(panels, rows):  # one row at a time
            out = np.zeros((len(rows), n, n), dtype=np.complex128)
            for total, (i, j) in zip(out, zip(*np.divmod(rows, len(times)))):
                for tau, w in zip(*_panel_nodes(times[j], panels)):
                    e1, e2, e3, e_l = expm(generators[i], (tau, tau, tau, times[j] - tau))
                    kernel = _forward_kernel(tau, p1[i], p2[i], k1[i], k2[i], e1, e2)
                    total += w * (e_l @ kernel @ e3)
            return out

    return _refined(levels, shape).reshape(shape + (n, n))


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
    norms = op_norm(k1) + op_norm(k2)
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

