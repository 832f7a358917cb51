"""Periodic 1D split-step Fourier solver for i u_t = (1/2) u_xx - V u.

Writing the equation as u_t = (A + B) u with A = -(i/2) d^2/dx^2 and B = i V,
both sub-flows have closed forms on a periodic grid: e^{tA} is the Fourier
multiplier e^{i t k^2 / 2} and e^{tB} is the pointwise phase e^{i t V(x)}.
Splitting schemes over the references {A, B} therefore apply exactly
(sub-flow-wise); the only approximation is the splitting itself.  ``evolve``
is the one place the sub-flows are applied: it checks its inputs once, builds
each operand's multiplier once per call and steps the raw samples.

The commutator structure that drives the splitting error is also computed
here, numerically: [A,B]u is a first-order differential operator applied to u
(a combination of V''u and V'u'), and [B,[A,B]]u is plain multiplication by a
function proportional to (V')^2.  Fits recover the coefficients; the module
asserts the structure and reports the fitted values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from trisplit.splitting import SplittingScheme

_DROP_COLUMN_TOL = 1e-12
_DEPENDENCE_TOL = 1e-8
_VANISH_TOL = 1e-8


class IllConditionedFit(RuntimeError):
    """The candidate columns cannot support a meaningful least-squares fit."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with power-of-two resolution."""

    half_width: float
    points: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        n = self.points
        if n < 16 or n & (n - 1):
            raise ValueError("points must be a power of two, at least 16")

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
        if not np.all(np.isfinite(samples.real)) or not np.all(np.isfinite(samples.imag)):
            raise ValueError("wavefunction has non-finite samples")
        object.__setattr__(self, "samples", samples)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.samples) ** 2)))


@dataclass(frozen=True)
class Potential:
    """Real potential samples with analytic first/second derivatives.

    Derivative arrays come from the generating formula when the potential is
    built by a named constructor, and from spectral differentiation when only
    samples are available.
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

    @classmethod
    def from_samples(cls, grid: Grid1D, samples) -> "Potential":
        samples = np.asarray(samples, dtype=np.float64)
        d1 = spectral_derivative(samples.astype(np.complex128), grid, order=1)
        d2 = spectral_derivative(samples.astype(np.complex128), grid, order=2)
        return cls(samples, d1.real, d2.real, grid)


POTENTIALS = ("harmonic", "cosine", "gaussian-well", "linear")


def potential_by_name(name: str, grid: Grid1D) -> Potential:
    makers = {
        "harmonic": Potential.harmonic,
        "cosine": Potential.cosine,
        "gaussian-well": Potential.gaussian_well,
        "linear": Potential.linear,
    }
    try:
        return makers[name](grid)
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; known: {POTENTIALS}") from None


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
    """``steps`` steps of ``scheme`` with step size h = horizon / steps.

    Operands are listed in operator-product order (leftmost acts last on the
    state), so each step applies them right-to-left: an A operand with
    coefficient c is the Fourier multiplier e^{i c h k^2 / 2}, a B operand the
    pointwise phase e^{i c h V}.  Both are built once per call.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if not scheme.canonical or set(scheme.references) - {"A", "B"}:
        raise ValueError(
            f"scheme {scheme.name!r} is not canonical over the references A, B"
        )
    if v.grid != u.grid:
        raise ValueError("wavefunction and potential live on different grids")
    h = horizon / steps
    k = u.grid.wavenumbers
    flows = []
    for ref, c in reversed(scheme.operands):
        if ref == "A":
            flows.append((True, np.exp(0.5j * (c * h) * k * k)))
        else:
            flows.append((False, np.exp(1j * (c * h) * v.samples)))
    samples = u.samples
    for _ in range(steps):
        for spectral, multiplier in flows:
            if spectral:
                samples = np.fft.ifft(multiplier * np.fft.fft(samples))
            else:
                samples = multiplier * samples
    return WaveFunction(samples, u.grid)


# --- commutator structure ----------------------------------------------------


def commutator_apply(u: WaveFunction, v: Potential) -> WaveFunction:
    """[A, B] u = A(iVu) - iV(Au), all pieces computed spectrally/pointwise."""
    if v.grid != u.grid:
        raise ValueError("wavefunction and potential live on different grids")
    bu = 1j * v.samples * u.samples
    abu = -0.5j * spectral_derivative(bu, u.grid, order=2)
    au = -0.5j * spectral_derivative(u.samples, u.grid, order=2)
    return WaveFunction(abu - 1j * v.samples * au, u.grid)


def double_commutator_apply(u: WaveFunction, v: Potential) -> WaveFunction:
    """[B, [A, B]] u = iV ([A,B]u) - [A,B](iVu)."""
    inner_u = commutator_apply(u, v)
    vu = WaveFunction(1j * v.samples * u.samples, u.grid)
    inner_vu = commutator_apply(vu, v)
    return WaveFunction(1j * v.samples * inner_u.samples - inner_vu.samples, u.grid)


@dataclass(frozen=True)
class FirstOrderFit:
    """Least-squares expansion of [A,B]u over {V''u, V'u'}."""

    c1: complex
    c2: complex
    residual: float


def first_order_fit(u: WaveFunction, v: Potential) -> FirstOrderFit:
    """Fit [A,B]u = c1 (V'' u) + c2 (V' u') and report the relative residual.

    Columns that are negligible relative to the larger one are dropped (their
    coefficient is reported as 0); if the remaining columns are numerically
    dependent — or there is nothing left to fit against — the fit is refused.
    """
    rhs = commutator_apply(u, v).samples
    du = spectral_derivative(u.samples, u.grid)
    columns = [v.deriv2 * u.samples, v.deriv1 * du]
    norms = [np.linalg.norm(c) for c in columns]
    scale = max(norms)
    if scale <= _DROP_COLUMN_TOL * max(np.linalg.norm(rhs), np.linalg.norm(u.samples)):
        raise IllConditionedFit("both candidate columns are numerically zero")
    keep = [i for i, n in enumerate(norms) if n > _DROP_COLUMN_TOL * scale]
    design = np.column_stack([columns[i] for i in keep])
    normalized = design / np.linalg.norm(design, axis=0)
    singular_values = np.linalg.svd(normalized, compute_uv=False)
    if len(keep) > 1 and singular_values[-1] < _DEPENDENCE_TOL * singular_values[0]:
        raise IllConditionedFit(
            "candidate columns are numerically linearly dependent"
        )
    solution, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    coeffs = [0j, 0j]
    for i, c in zip(keep, solution):
        coeffs[i] = complex(c)
    fitted = design @ solution
    rhs_norm = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(fitted - rhs) / rhs_norm) if rhs_norm else 0.0
    return FirstOrderFit(coeffs[0], coeffs[1], residual)


def multiplication_ratio(u: WaveFunction, v: Potential) -> np.ndarray:
    """Pointwise ([B,[A,B]]u) / u — defined only for nowhere-vanishing u."""
    moduli = np.abs(u.samples)
    peak = moduli.max()
    if peak == 0 or moduli.min() < _VANISH_TOL * peak:
        raise ValueError("u vanishes on the grid; the pointwise ratio is undefined")
    return double_commutator_apply(u, v).samples / u.samples


def ratio_constant_fit(u: WaveFunction, v: Potential) -> Tuple[complex, float]:
    """Fit ([B,[A,B]]u)/u = constant * (V')^2; return (constant, sup residual).

    The residual is relative to the peak ratio magnitude, so nodes where V'
    crosses zero do not inflate it artificially.
    """
    ratio = multiplication_ratio(u, v)
    basis = v.deriv1**2
    denom = np.dot(basis, basis)
    if denom == 0:
        raise IllConditionedFit("(V')^2 vanishes identically; nothing to fit")
    constant = complex(np.dot(basis, ratio) / denom)
    scale = np.abs(ratio).max()
    residual = float(np.abs(ratio - constant * basis).max() / scale) if scale else 0.0
    return constant, residual


def norm_defect(initial: WaveFunction, final: WaveFunction) -> float:
    return abs(final.l2_norm() - initial.l2_norm())
