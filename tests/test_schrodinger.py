import numpy as np
import pytest

from exact_flow import grid_flow
from trisplit.matrix_core import InputError
from trisplit.schrodinger import (
    Grid1D,
    POTENTIALS,
    Potential,
    WaveFunction,
    commutator_apply,
    double_commutator_apply,
    evolve,
    evolve_runs,
    free_gaussian_evolution,
    gaussian_packet,
    norm_defect,
    potential_by_name,
    spectral_derivative,
)
from trisplit.splitting import SplittingScheme, make_lie_trotter, make_strang, parse_scheme

GRID = Grid1D(half_width=10.0, points=256)


def zero_potential(grid):
    zero = np.zeros(grid.points)
    return Potential(zero, zero, zero, grid)


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
    # at 256 points, (pi/dx)^2 overflows a double at the narrow widths, x^2 at the wide ones
    for half_width in (5e-324, 1e-200, 1e-152, 1e155, 1e300):
        with pytest.raises(ValueError, match=r"points 256: x\^2 or k\^2 overflows$"):
            Grid1D(half_width=half_width, points=256)
    for half_width in (3e-152, 1e154):
        Grid1D(half_width=half_width, points=256)


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        WaveFunction(np.zeros(100), GRID)
    bad = np.zeros(GRID.points)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(bad, GRID)
    bad = np.zeros(GRID.points, dtype=complex)
    bad[0] = complex(0, np.nan)
    with pytest.raises(ValueError):
        WaveFunction(bad, GRID)


def test_potential_catalog():
    assert set(POTENTIALS) == {"harmonic", "cosine", "gaussian-well", "linear"}
    for name in POTENTIALS:
        v = potential_by_name(name, GRID)
        assert v.samples.shape == (GRID.points,)
    with pytest.raises(ValueError):
        potential_by_name("square-well", GRID)


def test_potential_checks_its_arrays():
    zero = np.zeros(GRID.points)
    with pytest.raises(ValueError, match=r"deriv1 has shape \(128,\)"):
        Potential(zero, zero[:128], zero, GRID)
    spiked = zero.copy()
    spiked[3] = np.inf
    with pytest.raises(InputError, match="non-finite deriv2"):
        Potential(zero, zero, spiked, GRID)


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

KINETIC = SplittingScheme("kinetic", (("A", 1.0),))
POTENTIAL = SplittingScheme("potential", (("B", 1.0),))


def test_laplacian_propagator_phase_on_plane_wave():
    u, k = plane_wave(GRID, mode=3)
    out = evolve(u, Potential.harmonic(GRID), 0.37, 1, KINETIC)
    expected = np.exp(0.5j * 0.37 * k * k) * u.samples
    assert np.allclose(out.samples, expected, atol=1e-13)


def test_gaussian_packet_sits_at_its_center_and_momentum():
    # the position mean is the center and the spectral mean the momentum: a
    # packet built about -center, or with its phase reversed, misses one of them
    grid = Grid1D(10, 256)
    u = gaussian_packet(grid, center=1.5, momentum=2.0)
    density, spectrum = np.abs(u.samples) ** 2, np.abs(np.fft.fft(u.samples)) ** 2
    assert abs(np.sum(grid.x * density) / np.sum(density) - 1.5) <= 1e-10
    assert abs(np.sum(grid.wavenumbers * spectrum) / np.sum(spectrum) - 2.0) <= 1e-10


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
    non_canonical = SplittingScheme("frac", (("A", 0.5), ("B", 0.5)))
    with pytest.raises(ValueError):
        evolve(u, v, 0.1, 1, non_canonical)
    triple_refs = SplittingScheme("trip", (("P1", 1.0), ("P2", 1.0), ("P3", 1.0)))
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


# --- merged sub-flows, against a plain one-operand-at-a-time loop -------------

MERGE_SCHEMES = {
    "strang": make_strang(),
    "lie-trotter": make_lie_trotter(),
    "b-a-b": SplittingScheme("b-a-b", (("B", 0.5), ("A", 1.0), ("B", 0.5))),
    "a-a-b-a": SplittingScheme("a-a-b-a", (("A", 0.25), ("A", 0.25), ("B", 1.0), ("A", 0.5))),
    "kinetic": KINETIC,
}


def plain_evolve(u, v, horizon, steps, scheme):
    # every operand of every step on its own, rightmost first, as written
    h = horizon / steps
    k = u.grid.wavenumbers
    samples = np.array(u.samples)
    for _ in range(steps):
        for ref, c in reversed(scheme.operands):
            if ref == "A":
                samples = np.fft.ifft(np.exp(0.5j * c * h * k**2) * np.fft.fft(samples))
            else:
                samples = np.exp(1j * c * h * v.samples) * samples
    return samples


@pytest.mark.parametrize("steps", [1, 2, 64])
@pytest.mark.parametrize("name", sorted(MERGE_SCHEMES))
def test_merged_evolve_matches_the_plain_loop(name, steps):
    scheme = MERGE_SCHEMES[name]
    u = gaussian_packet(GRID, sigma=1.3, center=0.4, momentum=0.7)
    v = Potential.gaussian_well(GRID)
    before = u.samples.copy()
    out = evolve(u, v, 0.8, steps, scheme)
    assert np.array_equal(u.samples, before)  # the caller's array is not written
    expected = plain_evolve(u, v, 0.8, steps, scheme)
    assert np.linalg.norm(out.samples - expected) <= 1e-12 * np.linalg.norm(expected)


#: forward FFTs in n steps: one per A flow left once neighbours merge, within
#: a step and across the step boundary (first same as last)
MERGED_FFTS = {
    "strang": lambda n: n + 1,
    "lie-trotter": lambda n: n,
    "b-a-b": lambda n: n,
    "a-a-b-a": lambda n: n + 1,
    "kinetic": lambda n: 1,
}


@pytest.mark.parametrize("steps", [1, 2, 64])
@pytest.mark.parametrize("name", sorted(MERGED_FFTS))
def test_merged_evolve_fft_count(monkeypatch, name, steps):
    calls = []
    original = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(1) or original(*a, **kw))
    evolve(gaussian_packet(GRID), Potential.harmonic(GRID), 1.0, steps, MERGE_SCHEMES[name])
    assert len(calls) == MERGED_FFTS[name](steps)


# --- stacked runs, against lone evolve calls ----------------------------------------

RUN_STEPS = (64, 1, 2, 64, 17)


@pytest.mark.parametrize("name", sorted(MERGE_SCHEMES))
def test_evolve_runs_rows_equal_lone_evolve(name):
    scheme = MERGE_SCHEMES[name]
    u = gaussian_packet(GRID, sigma=1.3, center=0.4, momentum=0.7)
    v = Potential.gaussian_well(GRID)
    before = u.samples.copy()
    runs = evolve_runs(u, v, 0.8, RUN_STEPS, scheme)
    assert np.array_equal(u.samples, before)  # the caller's array is not written
    assert len(runs) == len(RUN_STEPS)
    for n, run in zip(RUN_STEPS, runs):
        assert run.grid == GRID
        assert np.array_equal(run.samples, evolve(u, v, 0.8, n, scheme).samples)


def test_evolve_runs_of_one_reference_are_identical():
    runs = evolve_runs(gaussian_packet(GRID), Potential.harmonic(GRID), 1.0, RUN_STEPS, KINETIC)
    for run in runs[1:]:
        assert np.array_equal(run.samples, runs[0].samples)


@pytest.mark.parametrize("steps", [(), (4, 0, 2), (0,)])
def test_evolve_runs_rejects_empty_or_nonpositive_steps(steps):
    with pytest.raises(ValueError):
        evolve_runs(gaussian_packet(GRID), zero_potential(GRID), 1.0, steps, make_strang())


def test_evolve_runs_rejects_a_grid_mismatch():
    other = Grid1D(half_width=10.0, points=128)
    with pytest.raises(ValueError):
        evolve_runs(gaussian_packet(GRID), zero_potential(other), 1.0, (4, 8), make_strang())


@pytest.mark.parametrize("name,ffts", [("strang", 513), ("lie-trotter", 512)])
def test_evolve_runs_share_their_ffts(monkeypatch, name, ffts):
    # the rows of one stack share each FFT call, so the longest run's n sets
    # the count; run one at a time, 16 .. 512 took 1,014 (Strang) and 1,008
    calls = []
    original = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(1) or original(*a, **kw))
    steps = tuple(2**j for j in range(4, 10))
    evolve_runs(gaussian_packet(GRID), Potential.harmonic(GRID), 1.0, steps, MERGE_SCHEMES[name])
    assert len(calls) == ffts


def test_evolve_runs_of_many_schemes_equal_their_lone_calls():
    # scheme by scheme, each in the order of the steps; B 1 / A 1 has the
    # body (A, B), so it shares no stack with Strang's or Lie-Trotter's (B, A)
    b_then_a = parse_scheme("name b-then-a\nB 1\nA 1\n")
    schemes = (*MERGE_SCHEMES.values(), b_then_a)
    u = gaussian_packet(GRID, sigma=1.3, center=0.4, momentum=0.7)
    v = Potential.gaussian_well(GRID)
    runs = evolve_runs(u, v, 0.8, RUN_STEPS, *schemes)
    lone = [run for scheme in schemes for run in evolve_runs(u, v, 0.8, RUN_STEPS, scheme)]
    assert len(runs) == len(lone) == len(schemes) * len(RUN_STEPS)
    for run, alone in zip(runs, lone):
        assert np.array_equal(run.samples, alone.samples)


def test_schemes_of_one_body_share_each_fft(monkeypatch):
    # Lie-Trotter's body (B, A) and Strang's (B, merged A) are one stack: at
    # 16 .. 512 one call takes Strang's 513 FFTs, where a call each takes 1,025
    calls = []
    original = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(1) or original(*a, **kw))
    steps = tuple(2**j for j in range(4, 10))
    u, v = gaussian_packet(GRID), Potential.harmonic(GRID)
    evolve_runs(u, v, 1.0, steps, make_lie_trotter(), make_strang())
    assert len(calls) == 513
    calls.clear()
    for scheme in (make_lie_trotter(), make_strang()):
        evolve_runs(u, v, 1.0, steps, scheme)
    assert len(calls) == 1025


def test_evolve_runs_needs_a_scheme():
    with pytest.raises(ValueError):
        evolve_runs(gaussian_packet(GRID), zero_potential(GRID), 1.0, (4, 8))


@pytest.mark.parametrize("points", [16, 256, 2048])
def test_one_strang_step_is_the_plain_fft_product_bitwise(points):
    # the kinetic multiplier carries the inverse FFT's 1/N, which is exact
    # only because N is a power of two: built as evolve_runs builds them, the
    # multipliers with numpy's default normalization give the same bits.  The
    # state is the left factor of each product, as in evolve_runs: numpy's
    # complex product does not commute bitwise
    grid = Grid1D(half_width=8.0, points=points)
    u = gaussian_packet(grid, sigma=1.3, center=0.4, momentum=0.7)
    v = Potential.gaussian_well(grid)
    h, k = 0.1, grid.wavenumbers
    m_a = np.exp(0.5j * (0.5 * h) * k * k)
    m_b = np.exp(1j * (1.0 * h) * v.samples)
    fft, ifft = np.fft.fft, np.fft.ifft
    expected = ifft(fft(ifft(fft(u.samples) * m_a) * m_b) * m_a)
    assert np.array_equal(evolve(u, v, h, 1, make_strang()).samples, expected)


@pytest.mark.parametrize("potential", ["gaussian-well", "cosine"])
def test_extrapolated_strang_follows_a_moving_packet(potential):
    # a packet that is not stationary, so a wrong phase of the potential flow
    # shows (e^{-ichV} sits 2 to 2.5 away); Romberg's
    # (64 S_512 - 20 S_256 + S_128)/45 is the wave reference's form, and the
    # exact flow is an eigh of the grid Hamiltonian
    initial = gaussian_packet(GRID, sigma=1.3, center=0.4, momentum=0.7)
    v = potential_by_name(potential, GRID)
    fine, mid, coarse = evolve_runs(initial, v, 1.0, (512, 256, 128), make_strang())
    extrapolated = (64 * fine.samples - 20 * mid.samples + coarse.samples) / 45
    exact = grid_flow(initial.samples, v.samples, 1.0, GRID.half_width)
    assert np.sqrt(GRID.dx) * np.linalg.norm(extrapolated - exact) <= 1e-10


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
#
# Oracles: the closed forms derived by hand for A = -(i/2) d^2/dx^2, B = iV,
#     [A,B]u     = (1/2) V'' u + V' u',
#     [B,[A,B]]u = -i (V')^2 u.
# Their coefficients 1/2, 1 and -i are fixed by the derivation, not fitted.


def test_commutator_applies_reject_a_grid_mismatch():
    other = Grid1D(half_width=10.0, points=128)
    for apply in (commutator_apply, double_commutator_apply):
        with pytest.raises(ValueError, match="different grids"):
            apply(gaussian_packet(GRID), Potential.harmonic(other))


def constant_potential(grid):
    # both commutators vanish identically
    zero = np.zeros(grid.points)
    return Potential(np.full(grid.points, 2.0), zero, zero, grid)


# The harmonic and linear potentials are not periodic, so V u is smooth on the
# periodic grid only when u has decayed to rounding level at its edge.  They
# are paired with the two Gaussians alone; the nowhere-vanishing states go with
# the potentials that are periodic on the grid.
STATE_MAKERS = {
    "gaussian": gaussian_packet,
    "moving-gaussian": lambda grid: gaussian_packet(grid, sigma=1.0, center=0.5, momentum=1.0),
    "plane-wave": lambda grid: plane_wave(grid, mode=2)[0],
    "two-plus-cos": lambda grid: WaveFunction(
        2.0 + np.cos(np.pi / grid.half_width * grid.x), grid
    ),
}
PERIODIC_POTENTIALS = ("cosine", "gaussian-well", "constant")
COMMUTATOR_CASES = [
    (state, potential)
    for state in STATE_MAKERS
    for potential in tuple(POTENTIALS) + ("constant",)
    if state in ("gaussian", "moving-gaussian") or potential in PERIODIC_POTENTIALS
]


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
    # least squares of [A,B]u on the columns V'' u and V' u' must land on the
    # derived coefficients 1/2 and 1 with a rounding-level residual
    u = gaussian_packet(GRID, sigma=1.0)
    v = Potential.harmonic(GRID)
    got = commutator_apply(u, v).samples
    columns = np.column_stack(
        [v.deriv2 * u.samples, v.deriv1 * spectral_derivative(u.samples, GRID)]
    )
    (c1, c2), *_ = np.linalg.lstsq(columns, got, rcond=None)
    residual = np.linalg.norm(columns @ [c1, c2] - got) / np.linalg.norm(got)
    assert residual <= 1e-6
    assert c1 == pytest.approx(0.5, abs=1e-8)
    assert c2 == pytest.approx(1.0, abs=1e-8)


def closed_form_case(state, potential, points):
    grid = Grid1D(half_width=10.0, points=points)
    if potential == "constant":
        return STATE_MAKERS[state](grid), constant_potential(grid)
    return STATE_MAKERS[state](grid), potential_by_name(potential, grid)


def relative_sup_gap(got, expected, u):
    # where the closed form vanishes identically, measure against the state
    scale = np.abs(expected).max() or np.abs(u.samples).max()
    return np.abs(got - expected).max() / scale


@pytest.mark.parametrize("points", [128, 256])
@pytest.mark.parametrize("state,potential", COMMUTATOR_CASES)
def test_commutator_apply_closed_form(state, potential, points):
    u, v = closed_form_case(state, potential, points)
    got = commutator_apply(u, v).samples
    expected = 0.5 * v.deriv2 * u.samples + v.deriv1 * spectral_derivative(u.samples, u.grid)
    assert relative_sup_gap(got, expected, u) <= 1e-10


@pytest.mark.parametrize("points", [128, 256])
@pytest.mark.parametrize("state,potential", COMMUTATOR_CASES)
def test_double_commutator_apply_closed_form(state, potential, points):
    u, v = closed_form_case(state, potential, points)
    got = double_commutator_apply(u, v).samples
    expected = -1j * v.deriv1**2 * u.samples
    assert relative_sup_gap(got, expected, u) <= 1e-9
