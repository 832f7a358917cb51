import numpy as np
import pytest
import scipy.linalg

from trisplit.matrix_core import (
    ResidualTooLarge,
    as_complex_matrix,
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
    out = as_complex_matrix([[1, 0], [0, 1]])
    assert out.dtype == np.complex128


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


def test_expm_of_large_skew_hermitian_is_unitary():
    # t * ||M||_1 far above 700, yet e^{tM} is unitary and finite
    m = random_skew_hermitian(16, seed=43)
    t = 100.0
    assert t * np.linalg.norm(m, 1) > 700
    u = expm(m, t)
    assert np.linalg.norm(u.conj().T @ u - np.eye(16), 2) <= 1e-10


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


# --- the second-order constraint solver --------------------------------------


def kron_lstsq_reference(p1, p2):
    """Independent route: assemble ad_{P1+P2} column by column and use
    scipy's lstsq instead of numpy's."""
    s = p1 + p2
    n = s.shape[0]
    ad = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        for l in range(n):
            basis = np.zeros((n, n), dtype=complex)
            basis[k, l] = 1.0
            ad[:, l * n + k] = (s @ basis - basis @ s).reshape(-1, order="F")
    rhs = (-(p1 @ p2 - p2 @ p1)).reshape(-1, order="F")
    sol, *_ = scipy.linalg.lstsq(ad, rhs, lapack_driver="gelsd")
    return sol.reshape((n, n), order="F")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_matches_independent_least_squares(seed):
    p1 = random_skew_hermitian(4, seed=2 * seed)
    p2 = random_skew_hermitian(4, seed=2 * seed + 1)
    got = solve_second_order_constraint(p1, p2)
    ref = kron_lstsq_reference(p1, p2)
    scale = max(1.0, op_norm(ref))
    assert op_norm(got - ref) <= 1e-10 * scale


def test_solver_residual_and_skewness():
    p1 = random_skew_hermitian(6, seed=31)
    p2 = random_skew_hermitian(6, seed=32)
    p3 = solve_second_order_constraint(p1, p2)
    defect = commutator(p1, p2) + commutator(p1, p3) + commutator(p2, p3)
    assert op_norm(defect) <= 1e-10 * (1.0 + op_norm(commutator(p1, p2)))
    # minimum-norm solution inherits skew-Hermitian structure from the data
    assert is_skew_hermitian(p3, tol=1e-12)


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


def test_solver_residual_gate():
    p1 = random_skew_hermitian(4, seed=13)
    p2 = random_skew_hermitian(4, seed=14)
    with pytest.raises(ResidualTooLarge):
        solve_second_order_constraint(p1, p2, residual_tol=0.0)


def test_solver_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_second_order_constraint(np.eye(2) * 1j, np.eye(3) * 1j)

