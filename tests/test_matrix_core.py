import math

import numpy as np
import pytest
import scipy.linalg

from counting import forbid_solve
from triples import constrained_triple
from trisplit import matrix_core
from trisplit.harness import derive_seeds, sample_constrained_triple
from trisplit.matrix_core import (
    ConditionViolated,
    as_complex_matrix,
    as_complex_stack,
    as_times,
    check_second_order,
    commutator,
    expm,
    is_skew_hermitian,
    op_norm,
    random_skew_hermitian,
    solve_second_order_constraint,
)


def eig_expm(m, t):
    """Reference exponential of a skew-Hermitian matrix via eigh of -i*M."""
    lam, vec = np.linalg.eigh(-1j * np.asarray(m, dtype=complex))
    return (vec * np.exp(1j * t * lam)) @ vec.conj().T


def test_as_complex_matrix_validation():
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[complex(0, np.nan), 0], [0, 0]]))
    out = as_complex_matrix([[1, 0], [0, 1]])
    assert out.dtype == np.complex128


def test_as_complex_stack_validation():
    stack = np.zeros((3, 2, 2))
    assert as_complex_stack(stack).shape == (3, 2, 2)
    assert as_complex_stack(stack).dtype == np.complex128
    assert as_complex_stack(np.eye(2)).shape == (2, 2)
    stack[1, 0, 1] = np.nan  # one matrix of the stack
    with pytest.raises(ValueError, match="non-finite"):
        as_complex_stack(stack)
    for shape in ((3, 2, 3), (2, 3), (2, 2, 2, 2), (4,)):
        with pytest.raises(ValueError):
            as_complex_stack(np.zeros(shape))


def test_as_times_takes_a_scalar_or_one_axis_of_finite_values():
    assert as_times(0.5).shape == ()
    assert as_times([0.1, 0.5]).shape == (2,)
    with pytest.raises(ValueError):
        as_times([[0.1, 0.5]])
    with pytest.raises(ValueError, match="t must be finite"):
        as_times([0.1, math.inf])
    with pytest.raises(ValueError, match="t must hold at least one value"):
        as_times([])


def test_is_skew_hermitian():
    assert is_skew_hermitian(np.array([[1j, 1], [-1, 2j]]))
    assert not is_skew_hermitian(np.array([[1.0, 0], [0, 1.0]]))
    # tolerance is relative to the matrix scale
    m = random_skew_hermitian(5, seed=3)
    assert is_skew_hermitian(m * 1e8)
    assert not is_skew_hermitian(m + 1e-6 * np.eye(5))


def test_expm_zero_matrix_is_identity():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_diagonal_phase():
    m = np.diag([1j * np.pi, -1j * np.pi])
    assert np.allclose(expm(m), -np.eye(2), atol=1e-13)
    # t enters linearly in the exponent
    assert np.allclose(expm(m, 0.5), np.diag([1j, -1j]), atol=1e-13)


def test_expm_matches_eigendecomposition_reference():
    m = random_skew_hermitian(6, seed=11)
    for t in (0.1, 1.0, -2.3):
        got = expm(m, t)
        ref = eig_expm(m, t)
        assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


def test_expm_semigroup_property():
    m = random_skew_hermitian(5, seed=4)
    lhs = expm(m, 0.7) @ expm(m, 0.3)
    assert np.linalg.norm(lhs - expm(m, 1.0), 2) <= 1e-11


def test_expm_of_skew_hermitian_is_unitary():
    m = random_skew_hermitian(8, seed=42)
    u = expm(m, 1.0)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8), 2) <= 1e-12


def test_expm_overflow_guard():
    m = np.diag([800.0, 0.0])
    with pytest.raises(OverflowError):
        expm(m)
    # scaled down by t the same matrix is fine
    expm(m, 1e-3)


@pytest.mark.parametrize("t", [1.0, 1e306])
def test_expm_overflow_of_one_entry(t):
    # at t = 1 the norm 800 is finite and the squarings overflow; at 1e306
    # t M itself overflows, before any scaling is chosen
    with pytest.raises(OverflowError):
        expm(np.array([[800.0]]), t)


def test_expm_of_large_skew_hermitian_is_unitary():
    # t * ||M||_1 far above 700, yet e^{tM} is unitary and finite
    m = random_skew_hermitian(16, seed=43)
    t = 100.0
    assert t * np.linalg.norm(m, 1) > 700
    u = expm(m, t)
    assert np.linalg.norm(u.conj().T @ u - np.eye(16), 2) <= 1e-10


@pytest.mark.parametrize("t", [1e10, 1e14, 1e17])
def test_lone_skew_expm_stays_unitary_at_any_t(t):
    # a lone skew matrix at a scalar t takes eigh, unitary at any t
    u = expm(random_skew_hermitian(6, 1), t)
    assert np.linalg.norm(u.conj().T @ u - np.eye(6), 2) <= 1e-13


# --- the Pade exponential against scipy.linalg.expm ------------------------

#: Higham (2005), Table 2.3: the 1-norm up to which degree 3, 5, 7, 9, 13 serves;
#: expm takes degree 13 only, and either side of each stays an accuracy probe
HIGHAM_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                 2.097847961257068e0, 5.371920351148152e0)


def gaussian_with_norm(n, norm1, seed):
    """Complex Gaussian (non-normal) matrix scaled to a given 1-norm."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x * (norm1 / np.linalg.norm(x, 1))


def rel_gap(got, ref):
    return np.linalg.norm(got - ref, 2) / np.linalg.norm(ref, 2)


@pytest.mark.parametrize("theta", HIGHAM_THETAS)
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_expm_matches_scipy_either_side_of_each_theta(theta, factor):
    m = gaussian_with_norm(8, factor * theta, seed=int(1e6 * theta))
    assert rel_gap(expm(m), scipy.linalg.expm(m)) <= 1e-14


@pytest.mark.parametrize("factor", [3.0, 40.0])
def test_expm_matches_scipy_above_theta13(factor):
    # degree 13 with s > 0 squarings, on a non-normal input
    m = gaussian_with_norm(8, factor * HIGHAM_THETAS[-1], seed=7)
    assert rel_gap(expm(m), scipy.linalg.expm(m)) <= 1e-13


def test_expm_of_jordan_block_matches_scipy_and_closed_form():
    # e^{lam I + c N} = e^lam sum_k (c N)^k / k!, N the nilpotent shift
    n, lam, c = 6, -1.0 + 0.5j, 3.0
    shift = np.diag(np.ones(n - 1), 1)
    m = lam * np.eye(n) + c * shift
    exact = np.exp(lam) * sum(
        np.linalg.matrix_power(c * shift, k) / math.factorial(k) for k in range(n)
    )
    got = expm(m)
    assert rel_gap(got, exact) <= 1e-14
    assert rel_gap(got, scipy.linalg.expm(m)) <= 1e-14


def test_expm_of_zero_and_tiny_norm_matches_scipy():
    assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))
    m = gaussian_with_norm(5, 1e-12, seed=3)
    got = expm(m)
    assert rel_gap(got, scipy.linalg.expm(m)) <= 1e-15
    off = ~np.eye(5, dtype=bool)  # e^M = I + M + O(|M|^2) off the diagonal too
    assert np.max(np.abs(got[off] - m[off])) <= 1e-23


def test_expm_of_skew_hermitian_at_huge_norm_matches_scipy():
    m = random_skew_hermitian(12, seed=44)
    t = 1000.0
    assert t * np.linalg.norm(m, 1) > 1e4
    got = expm(m, t)
    assert rel_gap(got, scipy.linalg.expm(t * m)) <= 1e-10
    assert rel_gap(got, eig_expm(m, t)) <= 1e-10
    assert np.linalg.norm(got.conj().T @ got - np.eye(12), 2) <= 1e-10


def test_expm_overflow_where_scipy_gives_inf():
    m = np.diag([800.0, 0.0])
    with np.errstate(over="ignore"):
        assert not np.isfinite(scipy.linalg.expm(m)).all()
    with pytest.raises(OverflowError):
        expm(m)


def test_stacked_expm_equals_per_matrix_calls():
    # mixed norms: one Pade stack takes s from 0 to 7; a lone skew
    # matrix takes eigh, 7.7e-14 from its Pade row at t = 40
    ms = [random_skew_hermitian(6, seed=s) for s in range(4)]
    ms.append(gaussian_with_norm(6, 1e-3, seed=9))
    ts = [0.01, 0.3, 2.0, 40.0, 1.0]
    stacked = expm(np.stack(ms), ts)
    assert stacked.shape == (5, 6, 6)
    for m, t, got in zip(ms, ts, stacked):
        assert rel_gap(got, scipy.linalg.expm(t * m)) <= 1e-13
        assert rel_gap(got, expm(m, t)) <= (1e-13 if is_skew_hermitian(m) else 1e-14)
    # a scalar t applies to every matrix
    for m, got in zip(ms, expm(np.stack(ms), 0.5)):
        assert rel_gap(got, expm(m, 0.5)) <= 1e-14


def test_expm_validation():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3, 3, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        expm(np.zeros((3, 2, 2)), [1.0, 2.0])  # neither one t nor three
    with pytest.raises(ValueError):
        expm(np.zeros((2, 2)), [1.0, 2.0])
    with pytest.raises(ValueError):
        expm(np.zeros((3, 2, 2)), np.zeros((2, 4)))  # a grid row per matrix
    for t in (np.zeros((1, 4)), np.zeros((3, 1, 1))):
        with pytest.raises(ValueError, match="expected one t, 3 values or a"):
            expm(np.zeros((3, 2, 2)), t)
    assert expm(np.zeros((3, 2, 2)), [[0.5]]).shape == (3, 1, 2, 2)  # one t


# --- one eigh per matrix of a skew-Hermitian stack at any t, else Pade -------

#: zero, tiny, moderate and far-out times of one grid row
GRID_TIMES = (0.0, 1e-8, 0.5, 200.0, 1e14)


def pade_grid(a, grid):
    """A grid as one call on the stack repeated along it: k m values of t."""
    grid = np.asarray(grid, dtype=float)
    repeated = np.repeat(a, grid.shape[1], axis=0)
    return expm(repeated, grid.ravel()).reshape(grid.shape + a.shape[1:])


def test_skew_grid_is_exactly_identity_at_zero_and_unitary_at_every_time():
    ms = np.stack([random_skew_hermitian(6, seed=s) for s in (71, 72, 73)])
    grid = np.multiply.outer((1.0, -0.5, 3.0), GRID_TIMES)
    got = expm(ms, grid)
    assert got.shape == (3, len(GRID_TIMES), 6, 6)
    for m, times, row in zip(ms, grid, got):
        assert np.array_equal(row[0], np.eye(6))
        for t, u in zip(times, row):
            assert np.linalg.norm(u.conj().T @ u - np.eye(6), 2) <= 1e-13
            if abs(t) <= 1.0:
                assert rel_gap(u, scipy.linalg.expm(t * m)) <= 1e-13
            assert np.array_equal(u, expm(m, t))  # a lone call at a scalar t is its row


def test_skew_grid_on_zero_degenerate_and_barely_skew_matrices(monkeypatch):
    n = 5
    base = random_skew_hermitian(n, seed=81)
    _, vec = np.linalg.eigh(-1j * base)
    commuting = 1j * (vec * np.arange(n) ** 2) @ vec.conj().T  # base's eigenvectors
    repeated = 1j * (vec * (1.0, 1.0, 1.0, -2.0, 0.0)) @ vec.conj().T
    barely = base.copy()
    barely[0, 1] += 5e-14  # M + M* is 5e-14 there: skew only to the gate
    assert is_skew_hermitian(barely) and not np.array_equal(barely, -barely.conj().T)
    ms = np.stack([np.zeros((n, n)), base, commuting, 0.7j * np.eye(n), repeated, barely])
    grid = np.tile((0.0, 0.3, -1.2, 7.0), (len(ms), 1))
    with monkeypatch.context() as patch:  # the eigenvector path runs: no LU solve
        forbid_solve(patch)
        got = expm(ms, grid)
    assert np.array_equal(got[0], np.broadcast_to(np.eye(n), (4, n, n)))
    for m, times, row in zip(ms, grid, got):
        assert np.array_equal(row[0], np.eye(n))
        for t, u in zip(times, row):
            assert rel_gap(u, scipy.linalg.expm(t * m)) <= 1e-12
    # the flows of a commuting pair commute and compose to the flow of the sum
    assert rel_gap(got[1, 2] @ got[2, 2], scipy.linalg.expm(-1.2 * (base + commuting))) <= 1e-12
    assert rel_gap(got[1, 2] @ got[2, 2], got[2, 2] @ got[1, 2]) <= 1e-13


def test_a_skew_stack_takes_eigh_at_any_t_and_any_other_stack_pade(monkeypatch):
    skew = np.stack([random_skew_hermitian(4, seed=s) for s in (91, 92)])
    dissipative = skew - 0.3 * np.eye(4)  # a contraction, not skew-Hermitian
    mixed = np.stack((skew[0], dissipative[1]))  # one matrix off the gate sends all
    times, column = [[0.1, 0.5, 2.0], [0.0, 1.0, 3.0]], [[0.5], [2.0]]
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: eighs.append(x.shape) or eigh(x))
    for a in (dissipative, mixed):
        for grid in (times, column):
            assert np.array_equal(expm(a, grid), pade_grid(a, grid))
        assert np.array_equal(expm(a, 0.5), expm(a, [0.5, 0.5]))
    assert eighs == []
    # a scalar t, k values and a grid, m = 1 included: one eigh of the stack each
    assert np.array_equal(expm(skew, 0.5), expm(skew, [0.5, 0.5]))
    assert np.array_equal(expm(skew, [0.5, 2.0]), expm(skew, column)[:, 0])
    expm(skew, times)
    assert eighs == [skew.shape] * 5


def test_grid_rows_equal_each_matrix_own_call():
    ms = np.stack([random_skew_hermitian(7, seed=s) for s in range(101, 105)])
    grid = np.multiply.outer((0.2, 1.0, -3.0, 40.0), (0.0, 0.25, 1.0))
    got = expm(ms, grid)
    for i in range(len(ms)):
        assert np.array_equal(got[i], expm(ms[i : i + 1], grid[i : i + 1])[0])


def test_skew_grid_raises_where_its_phases_overflow():
    m = random_skew_hermitian(3, seed=5)
    assert np.array_equal(expm(m[None], [[0.0, 1e300]])[0, 0], np.eye(3))
    with pytest.raises(OverflowError):
        expm(m[None], [[0.0, 1e308]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expm_rejects_a_non_finite_t(bad):
    # a non-finite t is an input error, not an overflow, even for the zero
    # matrix, where inf * 0 is nan
    m = random_skew_hermitian(3, seed=5)
    for a, t in ((m, bad), (np.zeros((3, 3)), bad), (np.stack((m, m)), [0.5, bad])):
        with pytest.raises(ValueError, match="t must be finite"):
            expm(a, t)


def test_commutator_basics():
    a = random_skew_hermitian(5, seed=1)
    b = random_skew_hermitian(5, seed=2)
    c = commutator(a, b)
    assert np.allclose(c, -(commutator(b, a)), atol=1e-15)
    assert abs(np.trace(c)) <= 1e-13 * (op_norm(a) * op_norm(b))
    assert np.allclose(commutator(a, a), 0, atol=1e-15)
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_op_norm_values():
    assert op_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-14)
    assert op_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-14)
    m = random_skew_hermitian(6, seed=5)
    assert op_norm(m) <= np.linalg.norm(m) + 1e-14
    assert np.linalg.norm(m) <= np.sqrt(6) * op_norm(m) + 1e-14


def test_random_skew_hermitian_contract():
    m = random_skew_hermitian(6, seed=123)
    assert m.shape == (6, 6)
    assert np.allclose(m, -m.conj().T, atol=1e-16)
    assert np.array_equal(m, random_skew_hermitian(6, seed=123))  # deterministic
    assert not np.array_equal(m, random_skew_hermitian(6, seed=124))
    one = random_skew_hermitian(1, seed=0)
    assert abs(one[0, 0].real) <= 1e-16  # 1x1 case is purely imaginary
    with pytest.raises(ValueError):
        random_skew_hermitian(0, seed=1)


def test_random_skew_hermitian_keeps_its_two_call_stream():
    # one standard_normal((2, n, n)) draws the same numbers as two (n, n) calls
    rng = np.random.default_rng(123)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.array_equal(random_skew_hermitian(6, seed=123), (x - x.conj().T) / 2.0)


def jordan_block(n, lam):
    return lam * np.eye(n) + np.eye(n, k=1)


GAUSSIAN = np.random.default_rng(3).standard_normal((2, 5, 5))

NORM_CASES = (
    ("random", GAUSSIAN[0] + 1j * GAUSSIAN[1]),
    ("jordan", jordan_block(6, 0.5 - 1j)),
    ("nilpotent jordan", jordan_block(7, 0.0)),
    ("rank one", np.outer(np.arange(1.0, 7.0), np.arange(6.0, 0.0, -1.0) * 1j)),
    ("skew-hermitian", random_skew_hermitian(8, seed=9)),
    ("zero", np.zeros((4, 4))),
    ("one by one", np.array([[3.0 - 4.0j]])),
)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
@pytest.mark.parametrize("name,m", NORM_CASES)
def test_op_norm_matches_the_svd_norm(name, m, scale):
    m = scale * m
    want = np.linalg.norm(m, 2)
    assert np.isfinite(want)
    got = op_norm(m)
    assert type(got) is float
    assert abs(got - want) <= 1e-14 * want  # the zero matrix gives exactly 0
    # a stack row is the lone call bit for bit
    n = len(m)
    stack = np.stack([m, scale * random_skew_hermitian(n, seed=1), -m, np.zeros((n, n))])
    norms = op_norm(stack)
    assert norms.shape == (4,)
    assert norms.tolist() == [op_norm(x) for x in stack]
    assert np.all(np.abs(norms - np.linalg.norm(stack, 2, axis=(-2, -1))) <= 1e-14 * norms)
    assert op_norm(stack.reshape(2, 2, n, n)).tolist() == norms.reshape(2, 2).tolist()


@pytest.mark.parametrize("entry", [5e-310, 5e-324])
def test_op_norm_of_a_subnormal_matrix_is_its_largest_entry(entry):
    # 1/s overflows for a subnormal largest entry s: the norm must stay finite
    assert op_norm(np.diag([entry, entry / 2])) == entry
    assert op_norm(np.diag([1j * entry, 0.0])) == entry


def test_op_norm_validation():
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3)), np.array([[1.0, np.nan], [0, 1]])):
        with pytest.raises(ValueError):
            op_norm(bad)
    assert op_norm(np.zeros((0, 3, 3))).shape == (0,)


# --- the second-order constraint solver --------------------------------------


def kron_lstsq_reference(p1, p2):
    """Independent route: assemble ad_{P1+P2} column by column and use
    scipy's lstsq instead of numpy's.  The rank cutoff is numpy's default,
    eps * n^2 relative to the largest singular value; scipy's own default,
    eps, keeps rounding-level singular values of the null space from dim 8 on."""
    s = p1 + p2
    n = s.shape[0]
    ad = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        for l in range(n):
            basis = np.zeros((n, n), dtype=complex)
            basis[k, l] = 1.0
            ad[:, l * n + k] = (s @ basis - basis @ s).reshape(-1, order="F")
    rhs = (-(p1 @ p2 - p2 @ p1)).reshape(-1, order="F")
    cond = np.finfo(float).eps * n * n
    sol, *_ = scipy.linalg.lstsq(ad, rhs, cond=cond, lapack_driver="gelsd")
    return sol.reshape((n, n), order="F")


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u


def with_spectrum(p2, lam, seed):
    """P1 such that P1 + P2 = U diag(i lam) U* for a random unitary U."""
    u = random_unitary(len(lam), seed)
    m = u @ np.diag(1j * np.asarray(lam)) @ u.conj().T
    return (m - m.conj().T) / 2.0 - p2, u


def assert_matches_reference(p1, p2):
    got = solve_second_order_constraint(p1, p2)
    ref = kron_lstsq_reference(p1, p2)
    assert op_norm(got - ref) <= 1e-10 * max(1.0, op_norm(ref))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_matches_independent_least_squares(seed):
    for dim in (4, 8, 16):
        p1 = random_skew_hermitian(dim, seed=2 * seed)
        p2 = random_skew_hermitian(dim, seed=2 * seed + 1)
        assert_matches_reference(p1, p2)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_solver_matches_least_squares_with_a_triple_eigenvalue(dim):
    # the two routes make the same rank decision on the repeated eigenvalue
    lam = np.linspace(-2.0, 2.0, dim)
    lam[1:3] = lam[0]
    p2 = random_skew_hermitian(dim, seed=dim)
    p1, _ = with_spectrum(p2, lam, seed=dim + 1)
    assert_matches_reference(p1, p2)


def test_solver_residual_and_skewness():
    p1 = random_skew_hermitian(6, seed=31)
    p2 = random_skew_hermitian(6, seed=32)
    p3 = solve_second_order_constraint(p1, p2)
    defect = commutator(p1, p2) + commutator(p1, p3) + commutator(p2, p3)
    assert op_norm(defect) <= 1e-10 * (1.0 + op_norm(commutator(p1, p2)))
    # minimum-norm solution inherits skew-Hermitian structure from the data
    assert is_skew_hermitian(p3)


def test_solver_commuting_pair_gives_zero():
    p1 = np.diag([1j, 2j, 3j])
    p2 = np.diag([-1j, 1j, 0.5j])
    p3 = solve_second_order_constraint(p1, p2)
    assert op_norm(p3) <= 1e-12


def test_solver_is_minimum_norm():
    # P3 = P1 always satisfies the constraint exactly, so the minimum-norm
    # answer can never be larger than P1 itself
    p1 = random_skew_hermitian(5, seed=8)
    p2 = random_skew_hermitian(5, seed=9)
    p3 = solve_second_order_constraint(p1, p2)
    assert np.linalg.norm(p3) <= np.linalg.norm(p1) + 1e-12
    residual_direct = commutator(p1 + p2, p1) + commutator(p1, p2)
    assert op_norm(residual_direct) <= 1e-14


def test_solver_residual_gate(monkeypatch):
    # the solver gates its own P3 through check_second_order at CONDITION_TOL
    monkeypatch.setattr(matrix_core, "CONDITION_TOL", 1e-300)
    p1 = random_skew_hermitian(4, seed=13)
    p2 = random_skew_hermitian(4, seed=14)
    with pytest.raises(ConditionViolated):
        solve_second_order_constraint(p1, p2)


def test_solver_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_second_order_constraint(np.eye(2) * 1j, np.eye(3) * 1j)


@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_solver_on_clustered_spectra(gap):
    dim = 8
    rng = np.random.default_rng(17)
    lam = rng.standard_normal(dim)
    lam[1], lam[2], lam[4] = lam[0] + gap, lam[0] + 2 * gap, lam[3] + gap
    p2 = random_skew_hermitian(dim, seed=18)
    p1, u = with_spectrum(p2, lam, seed=19)
    p3 = solve_second_order_constraint(p1, p2)
    defect = commutator(p1, p2) + commutator(p1, p3) + commutator(p2, p3)
    assert op_norm(defect) <= 1e-10 * (1.0 + op_norm(commutator(p1, p2)))
    assert is_skew_hermitian(p3)
    # the minimum-norm solution for the M that was built, to the accuracy a
    # rounding of M leaves in the eigenvectors of a cluster, eps ||M|| / gap
    q = u.conj().T @ p2 @ u
    built = -(p2 - u @ np.diag(np.diag(q)) @ u.conj().T)
    shift = np.finfo(float).eps * op_norm(p1 + p2) / gap
    assert op_norm(p3 - built) <= 20 * shift * op_norm(p2)
    # P3 is orthogonal to the commutant of M: Z = U diag(i r) U* from the
    # eigenbasis of the M handed over, and, in the basis M was built from,
    # Z constant on each cluster (the part of the commutant that a rounding
    # of M cannot rotate)
    _, v = np.linalg.eigh(-1j * (p1 + p2))
    r = rng.standard_normal(dim)
    clustered = r.copy()
    clustered[1:3], clustered[4] = r[0], r[3]
    for basis, diag in ((v, r), (u, clustered)):
        z = basis @ np.diag(1j * diag) @ basis.conj().T
        assert op_norm(commutator(p1 + p2, z)) <= 1e-12
        inner = abs(np.vdot(p3, z))
        assert inner <= 1e-10 * np.linalg.norm(p3) * np.linalg.norm(z)


def test_solver_trivial_cases_give_zero():
    one = random_skew_hermitian(1, seed=5)
    assert np.array_equal(solve_second_order_constraint(one, 2 * one), np.zeros((1, 1)))
    p = random_skew_hermitian(6, seed=6)
    assert np.array_equal(solve_second_order_constraint(p, -p), np.zeros((6, 6)))


@pytest.mark.parametrize("dim", [1, 2, 6])
def test_stacked_solver_rows_equal_lone_solves(dim):
    # random pairs, a zero-gap pair (P2 = -P1, so M = 0 and P3 = 0) and a pair
    # scaled by 1e14: each row keeps its own rank cutoff; one taken over the
    # whole stack, eps n^2 times its largest gap, would zero the unit-scale
    # rows' gaps
    pairs = [
        (random_skew_hermitian(dim, 2 * s), random_skew_hermitian(dim, 2 * s + 1)) for s in range(4)
    ]
    p = random_skew_hermitian(dim, 9)
    pairs[1:1] = [(p, -p), (1e14 * p, 1e14 * random_skew_hermitian(dim, 10))]
    p1, p2 = (np.stack(x) for x in zip(*pairs))
    stacked = solve_second_order_constraint(p1, p2)
    assert stacked.shape == (len(pairs), dim, dim)
    for row, (a, b) in zip(stacked, pairs):
        assert np.array_equal(row, solve_second_order_constraint(a, b))
    assert not stacked[1].any()


def test_stacked_solver_locates_the_failing_pair(monkeypatch):
    # a commuting diagonal pair gets P3 = 0 and a defect of exactly 0, so it
    # passes even a 1e-300 gate; the random pairs after it do not, and the
    # stack's ConditionViolated locates the first of them; one pair, none
    monkeypatch.setattr(matrix_core, "CONDITION_TOL", 1e-300)
    diagonal = (np.diag(1j * np.arange(4.0)), np.diag(1j * np.arange(4.0) ** 2))
    pairs = [diagonal]
    pairs += [(random_skew_hermitian(4, s), random_skew_hermitian(4, s + 1)) for s in (13, 15)]
    p1, p2 = (np.stack(x) for x in zip(*pairs))
    with pytest.raises(ConditionViolated) as raised:
        solve_second_order_constraint(p1, p2)
    assert raised.value.index == (1,)
    assert not solve_second_order_constraint(*diagonal).any()
    with pytest.raises(ConditionViolated, match="^constraint defect [^ ]+ exceeds") as raised:
        solve_second_order_constraint(*pairs[1])
    assert raised.value.index == ()


def test_solver_accepts_large_skew_hermitian_input():
    # rounding in U diag(i lam) U* grows with the norm; the domain check
    # must not mistake it for a Hermitian part
    p2 = random_skew_hermitian(16, seed=22)
    u = random_unitary(16, seed=23)
    p1 = u @ np.diag(1e4j * np.random.default_rng(24).standard_normal(16)) @ u.conj().T
    assert np.max(np.abs(p1 + p1.conj().T)) > 1e-13
    solve_second_order_constraint(p1, p2)


def test_solver_rejects_non_skew_hermitian_input():
    p2 = random_skew_hermitian(4, seed=21)
    jordan = np.diag(np.ones(3), k=1) + np.diag(1j * np.arange(4.0))
    with pytest.raises(ValueError, match="skew-Hermitian"):
        solve_second_order_constraint(jordan, p2)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        solve_second_order_constraint(p2, jordan)


# --- the second-order condition ---------------------------------------------------


def test_check_second_order_exact_for_symmetrized_pair():
    # P1 = A/2, P2 = B, P3 = A/2 satisfies the condition identically
    a = random_skew_hermitian(5, seed=71)
    b = random_skew_hermitian(5, seed=72)
    ok, residual = check_second_order(a / 2, b, a / 2)
    assert ok
    assert residual <= 1e-14 * (1 + op_norm(a) * op_norm(b))


def test_check_second_order_generic_triple_fails():
    p1, p2, p3 = (random_skew_hermitian(4, seed=s) for s in (81, 82, 83))
    ok, residual = check_second_order(p1, p2, p3)
    assert not ok
    # rejected at any gate up to 1e-10, not only at CONDITION_TOL
    assert residual > 1e-10 * frobenius_scale(p1, p2, p3)
    defect = commutator(p1, p2) + commutator(p1, p3) + commutator(p2, p3)
    assert residual == pytest.approx(op_norm(defect), rel=1e-12)


def test_check_second_order_accepts_constructed_triple():
    p1, p2, p3 = constrained_triple(6, seed=90)
    ok, _ = check_second_order(p1, p2, p3)
    assert ok


def test_check_second_order_takes_no_tolerance():
    # the gate is CONDITION_TOL for every caller; none can loosen it
    with pytest.raises(TypeError):
        check_second_order(np.eye(2), np.eye(2), np.eye(2), tol=1e-6)


def frobenius_scale(*ps):
    return 1.0 + sum(np.linalg.norm(p) ** 2 for p in ps)


@pytest.mark.parametrize("size", [1e3, 1e4])
def test_solver_accepts_its_answer_for_large_nearly_commuting_pairs(size):
    # P1, P2 share an eigenbasis up to a 1e-3 perturbation; rounding leaves a
    # defect of order eps ||P1|| ||P2||, far above 1e-10 (1 + ||[P1,P2]||), the
    # scale the solver once gated on, which rejected these correct answers
    rng = np.random.default_rng(0)
    _, u = np.linalg.eigh(-1j * random_skew_hermitian(8, seed=0))

    def near_diagonal(seed):
        lam = size * rng.standard_normal(8)
        return u @ np.diag(1j * lam) @ u.conj().T + 1e-3 * random_skew_hermitian(8, seed=seed)

    p1, p2 = near_diagonal(1), near_diagonal(2)
    p3 = solve_second_order_constraint(p1, p2)
    ok, residual = check_second_order(p1, p2, p3)
    assert ok
    assert residual > 1e-10 * (1.0 + op_norm(commutator(p1, p2)))
    assert residual <= 1e-10 * frobenius_scale(p1, p2, p3)


def test_gate_rejects_p3_moved_off_the_condition():
    # the triples of the default verify-bound campaign: each solved P3 passes,
    # and P3 + 1e-6 ||P3|| Z/||Z|| fails by a wide margin (at least 87,000x
    # the gate over these 100 triples)
    for child in derive_seeds(7, 100):
        p1, p2, p3 = sample_constrained_triple(6, child)
        assert check_second_order(p1, p2, p3)[0]
        z = random_skew_hermitian(6, seed=child)
        moved = p3 + 1e-6 * op_norm(p3) * z / op_norm(z)
        ok, residual = check_second_order(p1, p2, moved)
        assert not ok
        assert residual >= 500 * matrix_core.CONDITION_TOL * frobenius_scale(p1, p2, moved)


def test_gate_rejects_p3_moved_off_the_condition_by_1e_9():
    # solved P3 leave a defect of at most 6.2e-16 of the scale on these
    # triples; moved by 1e-9 ||P3||, every one reads at least 87x the gate
    for child in derive_seeds(7, 100):
        p1, p2, p3 = sample_constrained_triple(6, child)
        z = random_skew_hermitian(6, seed=child)
        moved = p3 + 1e-9 * op_norm(p3) * z / op_norm(z)
        assert not check_second_order(p1, p2, moved)[0]


def test_solver_validates_its_inputs_once(monkeypatch):
    # one as_complex_matrix scan per argument; the skewness check, the
    # condition gate and its commutators take the checked arrays
    calls = []
    original = matrix_core.as_complex_matrix
    monkeypatch.setattr(matrix_core, "as_complex_matrix", lambda m: calls.append(1) or original(m))
    p1 = random_skew_hermitian(6, seed=21)
    p2 = random_skew_hermitian(6, seed=22)
    solve_second_order_constraint(p1, p2)
    assert len(calls) == 2
