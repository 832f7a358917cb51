"""Periodic 1D split-step Fourier solver for i u_t = (1/2) u_xx - V u.

Writing the equation as u_t = (A + B) u with A = -(i/2) d^2/dx^2 and B = i V,
both sub-flows have closed forms on a periodic grid: e^{tA} is the Fourier
multiplier e^{i t k^2 / 2} and e^{tB} is the pointwise phase e^{i t V(x)}.
Splitting schemes over the references {A, B} therefore apply exactly
(sub-flow-wise); the only approximation is the splitting itself.
``evolve_runs`` is the one place the sub-flows are applied: it makes one run
per requested step count from one initial state, advanced as the rows of one
(k, N) stack so that every FFT call serves all the runs still going.  It
checks its inputs once, merges neighbouring sub-flows of one reference (first
same as last across steps; McLachlan and Quispel, "Splitting methods", Acta
Numerica 2002), builds each merged flow's multipliers once per call, copies
the samples once and steps that copy in place.  ``evolve`` is its one-run
case.

The commutators that drive the splitting error are also applied here,
spectrally and pointwise, without using their closed forms:
    [A,B]u     = (1/2) V'' u + V' u'   (first order, unbounded),
    [B,[A,B]]u = -i (V')^2 u           (multiplication, bounded).
The tests and acceptance criterion 8 compare both applications with these
closed forms, whose coefficients come from the derivation and are not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from trisplit.matrix_core import InputError
from trisplit.splitting import SplittingScheme


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with power-of-two resolution."""

    half_width: float
    points: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise InputError("half_width must be positive")
        n = self.points
        if n < 16 or n & (n - 1):
            raise InputError("points must be a power of two, at least 16")
        k = np.pi * n / (2 * self.half_width)  # pi/dx; float * and / give inf where ** raises
        if not np.isfinite(self.half_width * self.half_width + k * k):
            raise InputError(f"half_width {self.half_width!r}, points {n}: x^2 or k^2 overflows")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def x(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.points)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)


@dataclass(frozen=True)
class WaveFunction:
    samples: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.points,):
            raise ValueError(
                f"expected {self.grid.points} samples, got shape {samples.shape}"
            )
        if not np.isfinite(samples).all():
            raise ValueError("wavefunction has non-finite samples")
        object.__setattr__(self, "samples", samples)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.samples) ** 2)))


@dataclass(frozen=True)
class Potential:
    """Real potential samples with analytic first/second derivatives.

    The named constructors take the derivative arrays from the generating
    formula; a caller of the four-field constructor supplies them.
    """

    samples: np.ndarray
    deriv1: np.ndarray
    deriv2: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        for field_name in ("samples", "deriv1", "deriv2"):
            arr = np.asarray(getattr(self, field_name), dtype=np.float64)
            if arr.shape != (self.grid.points,):
                raise ValueError(f"{field_name} has shape {arr.shape}")
            if not np.isfinite(arr).all():  # a harmonic V overflows on a wide enough grid
                raise InputError(f"potential has non-finite {field_name}")
            object.__setattr__(self, field_name, arr)

    @classmethod
    def harmonic(cls, grid: Grid1D) -> "Potential":
        x = grid.x
        return cls(x**2 / 2.0, x, np.ones_like(x), grid)

    @classmethod
    def cosine(cls, grid: Grid1D) -> "Potential":
        k = np.pi / grid.half_width
        x = grid.x
        return cls(np.cos(k * x), -k * np.sin(k * x), -k * k * np.cos(k * x), grid)

    @classmethod
    def gaussian_well(cls, grid: Grid1D) -> "Potential":
        x = grid.x
        bump = np.exp(-(x**2) / 2.0)
        return cls(-bump, x * bump, (1.0 - x**2) * bump, grid)

    @classmethod
    def linear(cls, grid: Grid1D) -> "Potential":
        x = grid.x
        return cls(x.copy(), np.ones_like(x), np.zeros_like(x), grid)


POTENTIALS = {
    "harmonic": Potential.harmonic,
    "cosine": Potential.cosine,
    "gaussian-well": Potential.gaussian_well,
    "linear": Potential.linear,
}


def potential_by_name(name: str, grid: Grid1D) -> Potential:
    try:
        return POTENTIALS[name](grid)
    except KeyError:
        raise InputError(f"unknown potential {name!r}; known: {tuple(POTENTIALS)}") from None


def spectral_derivative(samples: np.ndarray, grid: Grid1D, order: int = 1) -> np.ndarray:
    k = grid.wavenumbers
    return np.fft.ifft((1j * k) ** order * np.fft.fft(samples))


def gaussian_packet(
    grid: Grid1D, sigma: float = 1.0, center: float = 0.0, momentum: float = 0.0
) -> WaveFunction:
    x = grid.x
    samples = np.exp(-((x - center) ** 2) / (2.0 * sigma**2) + 1j * momentum * x)
    return WaveFunction(samples, grid)


def free_gaussian_evolution(grid: Grid1D, sigma: float, t: float) -> WaveFunction:
    """Closed form of the free flow of exp(-x^2 / (2 sigma^2)).

    The width parameter picks up an imaginary part:
        u(x, t) = sigma (sigma^2 - i t)^{-1/2} exp(-x^2 / (2 (sigma^2 - i t))).
    """
    a = sigma**2 - 1j * t
    samples = sigma / np.sqrt(a) * np.exp(-(grid.x**2) / (2.0 * a))
    return WaveFunction(samples, grid)


# --- split-step evolution ----------------------------------------------------


def evolve(
    u: WaveFunction, v: Potential, horizon: float, steps: int, scheme: SplittingScheme
) -> WaveFunction:
    """``steps`` steps of ``scheme`` with step size h = horizon / steps: the
    one run of ``evolve_runs``."""
    return evolve_runs(u, v, horizon, (steps,), scheme)[0]


def evolve_runs(
    u: WaveFunction, v: Potential, horizon: float, steps: Sequence[int], scheme: SplittingScheme
) -> Tuple[WaveFunction, ...]:
    """One run of ``scheme`` from ``u`` per entry n of ``steps``, each taking
    n steps of size h = horizon / n, returned in the order of ``steps``.

    Operands are listed in operator-product order (leftmost acts last on the
    state), so each step applies them right-to-left: an A operand with
    coefficient c is the Fourier multiplier e^{i c h k^2 / 2}, a B operand the
    pointwise phase e^{i c h V}.  Sub-flows of one reference commute, so
    neighbours in application order merge into one flow with the summed
    coefficient, inside a step and across the step boundary: when a step
    starts and ends with the same reference, a run is the first flow once,
    n - 1 bodies whose last flow carries both coefficients, and one step
    without its first flow.  Strang (A/2, B, A/2) thus takes n + 1 FFT pairs
    for n steps, not 2n.

    The runs are the rows of one (k, N) stack, largest n first, and each
    merged flow has one multiplier row per run, built once per call.  The
    first flow (or step) and the last step act on all rows, each body in
    place on the leading rows that still take it, so the longest n sets the
    FFT calls and each row is bitwise what it would be alone.  The samples
    are copied once, so the caller's array is never written.
    """
    if not steps or min(steps) < 1:
        raise ValueError("steps must be positive")
    if not scheme.canonical or set(scheme.references) - {"A", "B"}:
        raise InputError(f"scheme {scheme.name!r} is not canonical over the references A, B")
    if v.grid != u.grid:
        raise ValueError("wavefunction and potential live on different grids")
    flows = []  # (reference, coefficient) in application order, neighbours merged
    for ref, c in reversed(scheme.operands):
        if flows and flows[-1][0] == ref:
            flows[-1] = (ref, flows[-1][1] + c)
        else:
            flows.append((ref, c))
    order = sorted(range(len(steps)), key=lambda j: -steps[j])
    # one reference: every run is one flow over the whole horizon
    n = [1 if len(flows) == 1 else steps[j] for j in order]
    h = (horizon / np.array(n, dtype=np.float64))[:, None]
    k = u.grid.wavenumbers

    def multiplier(ref, c):
        if ref == "A":
            return True, np.exp(0.5j * (c * h) * k * k)
        return False, np.exp(1j * (c * h) * v.samples)

    step = [multiplier(ref, c) for ref, c in flows]
    if n[0] > 1 and flows[0][0] == flows[-1][0]:
        (ref, last), (_, first) = flows[-1], flows[0]
        head, body, tail = step[:1], step[1:-1] + [multiplier(ref, last + first)], step[1:]
    else:
        head, body, tail = step, step, []
    x = np.repeat(u.samples[None, :], len(n), axis=0)
    _advance(x, head)
    for rows, (longer, shorter) in enumerate(zip(n, n[1:] + [1]), 1):
        run = [(spectral, m[:rows]) for spectral, m in body]
        for _ in range(longer - shorter):  # the bodies that the rows below do not take
            _advance(x[:rows], run)
    _advance(x, tail)
    return tuple(WaveFunction(x[order.index(j)], u.grid) for j in range(len(n)))


def _advance(x: np.ndarray, flows) -> None:
    """Apply ``flows`` (spectral flag, multiplier) in order to ``x`` in place."""
    for spectral, m in flows:
        if spectral:
            np.fft.fft(x, out=x)
            x *= m
            np.fft.ifft(x, out=x)
        else:
            x *= m


# --- commutator structure ----------------------------------------------------


def commutator_apply(u: WaveFunction, v: Potential) -> WaveFunction:
    """[A, B] u = A(iVu) - iV(Au), all pieces computed spectrally/pointwise.

    On the harmonic and linear potentials, not periodic on the grid, it equals
    (1/2) V''u + V'u' only where u has decayed to rounding at the grid edge."""
    if v.grid != u.grid:
        raise ValueError("wavefunction and potential live on different grids")
    bu = 1j * v.samples * u.samples
    abu = -0.5j * spectral_derivative(bu, u.grid, order=2)
    au = -0.5j * spectral_derivative(u.samples, u.grid, order=2)
    return WaveFunction(abu - 1j * v.samples * au, u.grid)


def double_commutator_apply(u: WaveFunction, v: Potential) -> WaveFunction:
    """[B, [A, B]] u = iV ([A,B]u) - [A,B](iVu); -i (V')^2 u under the same
    edge condition as ``commutator_apply``."""
    inner_u = commutator_apply(u, v)
    vu = WaveFunction(1j * v.samples * u.samples, u.grid)
    inner_vu = commutator_apply(vu, v)
    return WaveFunction(1j * v.samples * inner_u.samples - inner_vu.samples, u.grid)


def norm_defect(initial: WaveFunction, final: WaveFunction) -> float:
    return abs(final.l2_norm() - initial.l2_norm())
