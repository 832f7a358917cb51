import numpy as np
import pytest

from trisplit.schrodinger import (
    Grid1D,
    IllConditionedFit,
    POTENTIALS,
    Potential,
    WaveFunction,
    commutator_apply,
    double_commutator_apply,
    evolve,
    first_order_fit,
    free_gaussian_evolution,
    gaussian_packet,
    multiplication_ratio,
    norm_defect,
    potential_by_name,
    ratio_constant_fit,
    spectral_derivative,
)
from trisplit.splitting import SplittingScheme, make_lie_trotter, make_strang

GRID = Grid1D(half_width=10.0, points=256)


def zero_potential(grid):
    return Potential.from_samples(grid, np.zeros(grid.points))


def plane_wave(grid, mode):
    # grid-commensurate wavenumber k = mode * pi / L
    k = mode * np.pi / grid.half_width
    return WaveFunction(np.exp(1j * k * grid.x), grid), k


# --- grids, states, potentials -------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(half_width=0.0, points=64)
    with pytest.raises(ValueError):
        Grid1D(half_width=5.0, points=48)  # not a power of two
    with pytest.raises(ValueError):
        Grid1D(half_width=5.0, points=8)  # too coarse
    g = Grid1D(half_width=5.0, points=32)
    assert g.dx == pytest.approx(10.0 / 32)
    assert g.x[0] == -5.0
    assert g.x[-1] == pytest.approx(5.0 - g.dx)


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        WaveFunction(np.zeros(100), GRID)
    bad = np.zeros(GRID.points)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(bad, GRID)


def test_potential_catalog():
    assert set(POTENTIALS) == {"harmonic", "cosine", "gaussian-well", "linear"}
    for name in POTENTIALS:
        v = potential_by_name(name, GRID)
        assert v.samples.shape == (GRID.points,)
    with pytest.raises(ValueError):
        potential_by_name("square-well", GRID)


def test_potential_derivatives_match_spectral_route():
    # analytic derivative fields against pure FFT differentiation (cosine is
    # periodic, so the two routes agree to spectral accuracy)
    v = Potential.cosine(GRID)
    d1 = spectral_derivative(v.samples.astype(complex), GRID, order=1)
    d2 = spectral_derivative(v.samples.astype(complex), GRID, order=2)
    assert np.allclose(v.deriv1, d1.real, atol=1e-10)
    assert np.allclose(v.deriv2, d2.real, atol=1e-10)


def test_spectral_derivative_of_sine():
    k = 3 * np.pi / GRID.half_width
    u = np.sin(k * GRID.x).astype(complex)
    du = spectral_derivative(u, GRID)
    assert np.allclose(du, k * np.cos(k * GRID.x), atol=1e-12)


# --- sub-flows, each applied by evolve as a one-operand scheme ---------------------

KINETIC = SplittingScheme("kinetic", (("A", 1.0),), canonical=True)
POTENTIAL = SplittingScheme("potential", (("B", 1.0),), canonical=True)


def test_laplacian_propagator_phase_on_plane_wave():
    u, k = plane_wave(GRID, mode=3)
    out = evolve(u, Potential.harmonic(GRID), 0.37, 1, KINETIC)
    expected = np.exp(0.5j * 0.37 * k * k) * u.samples
    assert np.allclose(out.samples, expected, atol=1e-13)


def test_laplacian_propagator_time_zero():
    u = gaussian_packet(GRID)
    out = evolve(u, Potential.harmonic(GRID), 0.0, 1, KINETIC)
    assert np.allclose(out.samples, u.samples, atol=1e-14)


def test_potential_propagator_is_pointwise_phase():
    u = gaussian_packet(GRID, sigma=1.4)
    v = Potential.harmonic(GRID)
    out = evolve(u, v, 0.21, 1, POTENTIAL)
    assert np.allclose(out.samples, np.exp(1j * 0.21 * v.samples) * u.samples, atol=1e-15)
    # pointwise modulus is exactly preserved
    assert np.allclose(np.abs(out.samples), np.abs(u.samples), atol=1e-15)


def test_potential_propagator_grid_mismatch():
    other = Grid1D(half_width=10.0, points=128)
    with pytest.raises(ValueError):
        evolve(gaussian_packet(GRID), Potential.harmonic(other), 0.1, 1, POTENTIAL)


def test_split_step_requires_canonical_ab_scheme():
    u = gaussian_packet(GRID)
    v = Potential.harmonic(GRID)
    non_canonical = SplittingScheme("frac", (("A", 0.5), ("B", 0.5)), canonical=False)
    with pytest.raises(ValueError):
        evolve(u, v, 0.1, 1, non_canonical)
    triple_refs = SplittingScheme(
        "trip", (("P1", 1.0), ("P2", 1.0), ("P3", 1.0)), canonical=True
    )
    with pytest.raises(ValueError):
        evolve(u, v, 0.1, 1, triple_refs)


def test_split_step_with_zero_potential_is_free_flow():
    u = gaussian_packet(GRID)
    v = zero_potential(GRID)
    out = evolve(u, v, 0.2, 1, make_strang())
    assert np.allclose(out.samples, evolve(u, v, 0.2, 1, KINETIC).samples, atol=1e-13)


def test_free_gaussian_closed_form():
    u0 = free_gaussian_evolution(GRID, sigma=1.0, t=0.0)
    assert np.allclose(u0.samples, gaussian_packet(GRID, sigma=1.0).samples, atol=1e-14)
    t = 0.1
    numeric = evolve(gaussian_packet(GRID), zero_potential(GRID), t, 4, make_strang())
    exact = free_gaussian_evolution(GRID, sigma=1.0, t=t)
    gap = WaveFunction(numeric.samples - exact.samples, GRID).l2_norm()
    assert gap <= 1e-8


def test_evolve_rejects_nonpositive_steps():
    with pytest.raises(ValueError):
        evolve(gaussian_packet(GRID), zero_potential(GRID), 1.0, 0, make_strang())


def test_evolution_conserves_mass():
    u = gaussian_packet(GRID, sigma=1.2, momentum=0.5)
    v = Potential.harmonic(GRID)
    for scheme in (make_lie_trotter(), make_strang()):
        out = evolve(u, v, 1.0, 64, scheme)
        assert norm_defect(u, out) <= 1e-13


@pytest.mark.parametrize(
    "factory,ratio", [(make_lie_trotter, 2.0), (make_strang, 4.0)]
)
def test_self_convergence_ratio(factory, ratio):
    # global error halves (LT) / quarters (Strang) when h is halved; the
    # reference uses the same spatial grid so only time order is measured
    grid = Grid1D(half_width=8.0, points=64)
    u = gaussian_packet(grid)
    v = Potential.harmonic(grid)
    scheme = factory()
    horizon = 0.5
    ref = evolve(u, v, horizon, 512, scheme)

    def err(steps):
        out = evolve(u, v, horizon, steps, scheme)
        return WaveFunction(out.samples - ref.samples, grid).l2_norm()

    assert err(8) / err(16) == pytest.approx(ratio, rel=0.1)


# --- commutator structure ----------------------------------------------------------


def test_commutator_apply_analytic_oracle():
    # with V = x^2/2 and u a unit Gaussian: [A,B]u = (1/2) V'' u + V' u'
    # = (1/2) u + x (-x u) = (1/2 - x^2) u, derived by hand
    u = gaussian_packet(GRID, sigma=1.0)
    v = Potential.harmonic(GRID)
    got = commutator_apply(u, v).samples
    expected = (0.5 - GRID.x**2) * u.samples
    peak = np.abs(expected).max()
    assert np.max(np.abs(got - expected)) <= 1e-10 * peak


def test_double_commutator_apply_analytic_oracle():
    # same setup: [B,[A,B]]u = -i (V')^2 u = -i x^2 u; compare where the
    # Gaussian carries its mass
    u = gaussian_packet(GRID, sigma=1.0)
    v = Potential.harmonic(GRID)
    got = double_commutator_apply(u, v).samples
    expected = -1j * GRID.x**2 * u.samples
    mask = np.abs(GRID.x) <= 5.0
    peak = np.abs(expected[mask]).max()
    assert np.max(np.abs(got[mask] - expected[mask])) <= 1e-9 * peak


def test_first_order_fit_recovers_half_and_one():
    u = gaussian_packet(GRID, sigma=1.0)
    fit = first_order_fit(u, Potential.harmonic(GRID))
    assert fit.residual <= 1e-6
    assert fit.c1 == pytest.approx(0.5, abs=1e-8)
    assert fit.c2 == pytest.approx(1.0, abs=1e-8)


def test_first_order_fit_is_state_independent():
    v = Potential.gaussian_well(GRID)
    fits = [
        first_order_fit(gaussian_packet(GRID, sigma=0.8, center=0.5), v),
        first_order_fit(gaussian_packet(GRID, sigma=1.3, momentum=1.0), v),
    ]
    assert abs(fits[0].c1 - fits[1].c1) <= 1e-6
    assert abs(fits[0].c2 - fits[1].c2) <= 1e-6


def test_first_order_fit_is_resolution_stable():
    coarse = Grid1D(half_width=10.0, points=128)
    fine = Grid1D(half_width=10.0, points=256)
    fit_c = first_order_fit(gaussian_packet(coarse), Potential.harmonic(coarse))
    fit_f = first_order_fit(gaussian_packet(fine), Potential.harmonic(fine))
    assert abs(fit_c.c1 - fit_f.c1) <= 1e-8
    assert abs(fit_c.c2 - fit_f.c2) <= 1e-8


def test_first_order_fit_drops_vanishing_column():
    # linear potential: V'' = 0, so the first column is dropped and reported 0
    fit = first_order_fit(gaussian_packet(GRID), Potential.linear(GRID))
    assert fit.c1 == 0j
    assert fit.c2 == pytest.approx(1.0, abs=1e-8)
    assert fit.residual <= 1e-6


def test_first_order_fit_refuses_constant_potential():
    flat = Potential.from_samples(GRID, np.full(GRID.points, 2.0))
    with pytest.raises(IllConditionedFit):
        first_order_fit(gaussian_packet(GRID), flat)


def test_multiplication_ratio_needs_nowhere_vanishing_state():
    # a Gaussian underflows at the grid edge, so the pointwise ratio is refused
    with pytest.raises(ValueError):
        multiplication_ratio(gaussian_packet(GRID), Potential.cosine(GRID))
    u, _ = plane_wave(GRID, mode=2)  # |u| = 1 everywhere
    ratio = multiplication_ratio(u, Potential.cosine(GRID))
    assert ratio.shape == (GRID.points,)


def test_ratio_constant_fit_cosine_potential():
    v = Potential.cosine(GRID)
    u1, _ = plane_wave(GRID, mode=2)
    k = np.pi / GRID.half_width
    u2 = WaveFunction(2.0 + np.cos(k * GRID.x), GRID)  # real, min value 1
    c1, r1 = ratio_constant_fit(u1, v)
    c2, r2 = ratio_constant_fit(u2, v)
    assert r1 <= 1e-6 and r2 <= 1e-6
    assert c1 == pytest.approx(-1j, abs=1e-8)
    assert abs(c1 - c2) <= 1e-6  # the constant does not depend on the state


def test_ratio_constant_fit_refuses_flat_potential():
    flat = Potential.from_samples(GRID, np.zeros(GRID.points))
    u, _ = plane_wave(GRID, mode=1)
    with pytest.raises(IllConditionedFit):
        ratio_constant_fit(u, flat)
