import re

import numpy as np
import pytest

from counting import count_calls, record_levels
from triples import constrained_triple
from trisplit import duhamel, harness, matrix_core
from trisplit.duhamel import (
    ConditionViolated,
    ToleranceNotReached,
    duhamel_error,
    error_bound,
    z_integral,
)
from trisplit.harness import sample_constrained_triple, verify_duhamel
from trisplit.matrix_core import (
    commutator,
    expm,
    op_norm,
    random_skew_hermitian,
    solve_second_order_constraint,
)
from trisplit.splitting import triple_splitting_error


def non_normal(dim, seed):
    """A Jordan block plus a random complex diagonal: not diagonalizable
    by a unitary, so no spectral shortcut applies."""
    rng = np.random.default_rng(seed)
    jordan = np.diag(np.ones(dim - 1), k=1)
    return jordan + np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def with_eigenvalues(lam, seed):
    """U diag(i lam) U*, skew-Hermitian to the last bit, U a random unitary."""
    _, u = np.linalg.eigh(-1j * random_skew_hermitian(len(lam), seed=seed))
    m = (u * 1j * np.asarray(lam)) @ u.conj().T
    return (m - m.conj().T) / 2.0


def off_minimum_norm_triple(dim, seed):
    """P3 = -P2 + Z, Z = U diag(i r) U* commuting with P1 + P2: a solution of
    the condition away from the minimum-norm point the solver returns."""
    q1 = random_skew_hermitian(dim, seed=seed)
    q2 = random_skew_hermitian(dim, seed=seed + 1)
    _, u = np.linalg.eigh(-1j * (q1 + q2))
    r = np.random.default_rng(seed + 2).standard_normal(dim)
    return q1, q2, -q2 + (u * 1j * r) @ u.conj().T


def clustered_triple(dim, seed, gap, size):
    """P1 and P2 each with `size` eigenvalues `gap` apart, P3 from the solver."""
    lam = np.random.default_rng(seed).standard_normal((2, dim))
    lam[:, 1:size] = lam[:, :1] + gap * np.arange(1, size)
    p1 = with_eigenvalues(lam[0], seed + 1)
    p2 = with_eigenvalues(lam[1], seed + 2)
    return p1, p2, solve_second_order_constraint(p1, p2)


def commuting_pair_triple(dim, seed):
    """(P1, P2, P1): P1 and P3 commute, and the condition reduces to
    [P1,P2] + [P2,P1] = 0."""
    p1 = random_skew_hermitian(dim, seed=seed)
    return p1, random_skew_hermitian(dim, seed=seed + 1), p1


def non_normal_triple(dim, seed):
    """(N, -N, Q): [N,-N] = 0 and [N,Q] + [-N,Q] = 0 hold exactly in floating
    point, so the condition holds for non-normal N and Q."""
    n = non_normal(dim, seed)
    return n, -n, non_normal(dim, seed + 1)


def dissipative(dim, strength, rng):
    """S/(2 sqrt(dim)) - strength GG*/dim: S random skew-Hermitian, G complex
    Gaussian.  Its Hermitian part is negative semidefinite, so every forward
    flow is a contraction; for large strength the backward flows blow up."""
    x, g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(2))
    return (x - x.conj().T) / (4 * np.sqrt(dim)) - strength * (g @ g.conj().T) / dim


def contractive_triple(dim, strength, seed):
    """(P1, P2, aP1 + (a-1)P2), a in [1, 3]: the condition's defect is
    (1 + (a-1) - a)[P1,P2] = 0, and P3 and L stay dissipative."""
    rng = np.random.default_rng(seed)
    p1 = dissipative(dim, strength, rng)
    p2 = dissipative(dim, strength, rng)
    a = rng.uniform(1, 3)
    return p1, p2, a * p1 + (a - 1) * p2


def block_expm_error(monkeypatch, p1, p2, p3, t):
    """duhamel_error through the per-node block-expm loop, and the number of
    expm calls it made: none means the loop did not run."""
    calls = {"expm": 0}
    with monkeypatch.context() as patched:
        patched.setattr(duhamel, "_is_skew", lambda p: False)
        count_calls(patched, duhamel, "expm", calls)
        return duhamel_error(p1, p2, p3, t), calls["expm"]


def direct_bracket(p, q, t):
    """[e^{tP}, Q] evaluated directly, no quadrature."""
    u = expm(p, t)
    return u @ q - q @ u


# --- the commutator-with-exponential integral ---------------------------------


def test_z_integral_matches_direct_commutator():
    q = random_skew_hermitian(4, seed=51)
    for p in (random_skew_hermitian(4, seed=50), non_normal(4, seed=57)):
        for t in (0.1, 1.0):
            direct = direct_bracket(p, q, t)
            z = z_integral(p, q, t)
            assert op_norm(z - direct) <= 1e-12 * max(1.0, op_norm(direct))


def test_z_integral_zero_cases():
    p = random_skew_hermitian(4, seed=52)
    q = random_skew_hermitian(4, seed=53)
    assert op_norm(z_integral(p, q, 0.0)) == 0.0
    # commuting pair: the bracket kernel vanishes identically
    d1 = np.diag([1j, 2j, -1j])
    d2 = np.diag([0.5j, 0.5j, 1j])
    assert op_norm(z_integral(d1, d2, 0.7)) <= 1e-14


# --- the forward kernel ---------------------------------------------------------


def defining_kernel(p1, p2, p3, tau):
    """The forward kernel from K23 = [P2,P3] alone, with forward flows only:
    e^{tau P1} [e^{tau P2}, P3] - (int_0^tau e^{(tau-s)P1} K23 e^{sP1} ds) e^{tau P2}."""
    e2 = expm(p2, tau)
    k23 = commutator(p2, p3)
    return expm(p1, tau) @ z_integral(p2, p3, tau) - duhamel._van_loan(tau, p1, k23, p1) @ e2


def forward_kernel(p1, p2, p3, tau):
    k1 = commutator(p1, commutator(p2, p3))
    k2 = commutator(p2, commutator(p2, p3))
    e1, e2 = expm(np.stack((p1, p2)), tau)
    return duhamel._forward_kernel(tau, p1, p2, k1, k2, e1, e2)


def test_forward_kernel_matches_the_defining_form_for_any_triple():
    # an unconditional variation-of-constants identity: unconstrained
    # skew-Hermitian and non-normal triples, either sign of tau
    skew = [tuple(random_skew_hermitian(4, seed=s + i) for i in range(3)) for s in (60, 63)]
    general = [tuple(non_normal(4, seed=s + i) for i in range(3)) for s in (67, 70)]
    for p1, p2, p3 in skew + general:
        for tau in (0.2, 0.9, -0.5):
            a = forward_kernel(p1, p2, p3, tau)
            b = defining_kernel(p1, p2, p3, tau)
            assert op_norm(a) > 0.0
            assert op_norm(a - b) <= 1e-12 * max(1.0, op_norm(a))


def test_forward_kernel_zero_cases():
    p1, p2, p3 = (random_skew_hermitian(3, seed=s) for s in (63, 64, 65))
    assert op_norm(forward_kernel(p1, p2, p3, 0.0)) == 0.0
    # [P2,P3] = 0 kills both forms
    d2 = np.diag([1j, -1j, 2j])
    d3 = np.diag([2j, 1j, 1j])
    for kernel in (forward_kernel, defining_kernel):
        assert op_norm(kernel(p1, d2, d3, 0.5)) <= 1e-13


# --- the exact error representation ---------------------------------------------


def test_duhamel_error_requires_the_condition():
    p1, p2, p3 = (random_skew_hermitian(4, seed=s) for s in (70, 71, 72))
    with pytest.raises(ConditionViolated):
        duhamel_error(p1, p2, p3, 0.5)


def test_duhamel_error_reproduces_measured_error():
    # the minimum-norm P3, an off-minimum-norm P3 and a non-normal triple,
    # which takes the block-expm path
    triples = (
        constrained_triple(4, seed=73),
        off_minimum_norm_triple(16, seed=76),
        non_normal_triple(4, seed=79),
    )
    for p1, p2, p3 in triples:
        for t in (0.25, 0.5):
            represented = duhamel_error(p1, p2, p3, t)
            measured = triple_splitting_error(p1, p2, p3, t)
            assert op_norm(represented - measured) <= 1e-8


def test_duhamel_error_unconverged_quadrature_raises():
    # at t = 300 the shipped rule is still 6.6e-3 from converged at its cap
    p1, p2, p3 = constrained_triple(4, seed=55)
    with pytest.raises(ToleranceNotReached, match=r"gap \S+ at 256 panels did not reach"):
        duhamel_error(p1, p2, p3, 300.0)


def test_duhamel_error_stops_doubling_at_round_off(monkeypatch):
    # the gap between successive estimates is at round-off by 8 panels; no
    # further doubling can reach 1e-30, so refinement stops there rather than
    # at the 256-panel cap
    p1, p2, p3 = constrained_triple(4, seed=55)
    monkeypatch.setattr(duhamel, "TARGET_TOL", 1e-30)
    with pytest.raises(ToleranceNotReached, match=r"gap \S+ at 8 panels"):
        duhamel_error(p1, p2, p3, 1.0)


def test_cached_gauss_rule_is_read_only():
    # every duhamel_error shares the cached nodes and weights, so a write must fail
    for array in duhamel._gauss_rule(duhamel.GAUSS_ORDER):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def count_nodes(monkeypatch, calls):
    panel_nodes = duhamel._panel_nodes

    def counted_nodes(*args, **kwargs):
        nodes, weights = panel_nodes(*args, **kwargs)
        calls["nodes"] += len(nodes)
        return nodes, weights

    monkeypatch.setattr(duhamel, "_panel_nodes", counted_nodes)


def test_duhamel_error_makes_three_exponential_calls_per_node(monkeypatch):
    # non-normal input keeps the block-expm loop: inputs validated and
    # commutators formed once per call; each tau node makes one stacked call
    # for e^{tau P1}, e^{tau P2}, e^{tau P3} and e^{(t - tau)L} plus the two
    # Van Loan blocks
    p1, p2, p3 = non_normal_triple(4, seed=75)
    calls = {"expm": 0, "nodes": 0}
    count_calls(monkeypatch, duhamel, "expm", calls)
    count_nodes(monkeypatch, calls)
    represented = duhamel_error(p1, p2, p3, 0.5)
    assert calls["nodes"] >= 16  # at least one panel doubling
    assert calls["expm"] == 3 * calls["nodes"]
    measured = triple_splitting_error(p1, p2, p3, 0.5)
    assert op_norm(represented - measured) <= 1e-8


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_duhamel_error_reproduces_stiff_contractive_error(seed, t):
    # strongly dissipative, non-normal triples: the backward flows e^{-tP1}
    # and e^{-tP2} reach norms of 1e11 to 1e32 on these rows, so an evaluation
    # through them does not converge; the forward form must match the
    # measured error in absolute and relative terms
    p1, p2, p3 = contractive_triple(6, 10.0, seed)
    represented = duhamel_error(p1, p2, p3, t)
    measured = triple_splitting_error(p1, p2, p3, t)
    gap = op_norm(represented - measured)
    assert gap <= 1e-9
    assert gap <= 1e-5 * op_norm(measured)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_duhamel_error_eigenbasis_path_makes_four_eigendecompositions(monkeypatch, t):
    # a skew-Hermitian triple makes one eigh each of P1, P2, P3 and L per
    # call, however many panel levels refinement visits, and no exponential
    p1, p2, p3 = constrained_triple(4, seed=75)
    calls = {"expm": 0, "eigh": 0, "nodes": 0}
    count_calls(monkeypatch, duhamel, "expm", calls)
    count_calls(monkeypatch, np.linalg, "eigh", calls)
    count_nodes(monkeypatch, calls)
    represented = duhamel_error(p1, p2, p3, t)
    assert calls["nodes"] >= 24  # at least two panel levels
    assert calls["expm"] == 0
    assert calls["eigh"] == 4
    measured = triple_splitting_error(p1, p2, p3, t)
    assert op_norm(represented - measured) <= 1e-8


def norm_one(triple, dim):
    """A random triple scaled to spectral norms O(1) at every dim; the
    condition is homogeneous, so it still holds."""
    return tuple(p / np.sqrt(dim) for p in triple)


TRIPLES = {
    "minimum_norm": lambda dim: norm_one(constrained_triple(dim, seed=90), dim),
    "off_minimum_norm": lambda dim: norm_one(off_minimum_norm_triple(dim, seed=91), dim),
    "gap_1e-9": lambda dim: clustered_triple(dim, seed=94, gap=1e-9, size=2),
    "gap_1e-12": lambda dim: clustered_triple(dim, seed=97, gap=1e-12, size=2),
    "triple_eigenvalue": lambda dim: clustered_triple(dim, seed=100, gap=0.0, size=3),
    "commuting_pair": lambda dim: norm_one(commuting_pair_triple(dim, seed=103), dim),
}


@pytest.mark.parametrize("dim", [4, 8, 16])
@pytest.mark.parametrize("kind", sorted(TRIPLES))
def test_eigenbasis_path_matches_block_expm_path(monkeypatch, kind, dim):
    p1, p2, p3 = TRIPLES[kind](dim)
    for t in (0.0, 1e-8, 0.25, 1.0, -0.5):
        fast = duhamel_error(p1, p2, p3, t)
        reference, expm_calls = block_expm_error(monkeypatch, p1, p2, p3, t)
        assert expm_calls > 0
        if t == 0.0:
            assert not fast.any() and not reference.any()
        else:
            assert op_norm(reference) > 0.0
            assert op_norm(fast - reference) <= 1e-12 * op_norm(reference)


@pytest.mark.parametrize(
    "triple",
    [sample_constrained_triple(6, 3), non_normal_triple(4, seed=75)],
    ids=["eigenbasis", "block_expm"],
)
def test_duhamel_error_validates_its_inputs_once(monkeypatch, triple):
    # one as_complex_matrix scan per argument on either path: the condition
    # gate, the double commutators, the skewness test and the refinement
    # norms all take the checked arrays
    calls = {"as_complex_matrix": 0}
    for module in (matrix_core, duhamel):
        count_calls(monkeypatch, module, "as_complex_matrix", calls)
    duhamel_error(*triple, 0.5)
    assert calls["as_complex_matrix"] == 3


def test_z_integral_validates_its_inputs_once(monkeypatch):
    p, q, _ = sample_constrained_triple(6, 3)
    calls = {"as_complex_matrix": 0}
    for module in (matrix_core, duhamel):
        count_calls(monkeypatch, module, "as_complex_matrix", calls)
    z_integral(p, q, 0.5)
    assert calls["as_complex_matrix"] == 2


def test_eigenbasis_path_splits_large_levels_into_blocks(monkeypatch):
    # levels larger than _STACK_ENTRIES are summed block by block; 8-node
    # blocks at dim 4 split every level past the first
    p1, p2, p3 = constrained_triple(4, seed=87)
    whole = duhamel_error(p1, p2, p3, 1.0)
    monkeypatch.setattr(duhamel, "_STACK_ENTRIES", 8 * 4 * 4)
    blocked = duhamel_error(p1, p2, p3, 1.0)
    assert op_norm(blocked - whole) <= 1e-14 * op_norm(whole)


def stacked(triples):
    return tuple(np.stack(p) for p in zip(*triples))


def psi_rows(monkeypatch):
    """The (rows, nodes, n, n) shapes of the first _psi call of every pass."""
    shapes = []
    psi = duhamel._psi

    def recorded(theta):
        shapes.append(theta.shape)
        return psi(theta)

    monkeypatch.setattr(duhamel, "_psi", recorded)
    return shapes


def assert_rows_are_lone_calls(p1, p2, p3, times, stack):
    for i, j in np.ndindex(stack.shape[:2]):
        lone = duhamel_error(p1[i], p2[i], p3[i], times[j])
        assert np.array_equal(stack[i, j], lone)


def test_duhamel_error_broadcasts_over_triples_and_t():
    triples = [constrained_triple(4, seed=s) for s in (110, 111, 112)]
    p1, p2, p3 = stacked(triples)
    times = (0.25, 0.5)
    assert duhamel_error(*triples[0], 0.25).shape == (4, 4)
    assert duhamel_error(*triples[0], times).shape == (2, 4, 4)
    assert duhamel_error(p1, p2, p3, 0.25).shape == (3, 4, 4)
    stack = duhamel_error(p1, p2, p3, times)
    assert stack.shape == (3, 2, 4, 4)
    assert_rows_are_lone_calls(p1, p2, p3, times, stack)
    assert np.array_equal(duhamel_error(*triples[1], times), stack[1])
    assert np.array_equal(duhamel_error(p1, p2, p3, 0.5), stack[:, 1])


def test_stacked_rows_stop_at_their_own_panel_counts(monkeypatch):
    # the t = 0.05 rows converge at 2 panels and the t = 4.0 rows at 16 and
    # 8; each level evaluates only the rows whose lone call reaches it, and
    # every row is bitwise its lone call
    p1, p2, p3 = stacked([constrained_triple(4, seed=s) for s in (113, 114)])
    times = (0.05, 4.0)
    shapes = psi_rows(monkeypatch)
    levels = {}
    for i, j in np.ndindex(2, 2):
        shapes.clear()
        duhamel_error(p1[i], p2[i], p3[i], times[j])
        levels[i, j] = len(shapes) // 2
    assert levels == {(0, 0): 2, (0, 1): 5, (1, 0): 2, (1, 1): 4}
    shapes.clear()
    stack = duhamel_error(p1, p2, p3, times)
    assert [shape[0] for shape in shapes[::2]] == [4, 4, 2, 2, 1]
    assert_rows_are_lone_calls(p1, p2, p3, times, stack)


def test_non_normal_stack_takes_the_block_path(monkeypatch):
    p1, p2, p3 = stacked([non_normal_triple(4, seed=s) for s in (75, 77)])
    times = (0.25, 0.5)
    calls = {"expm": 0}
    count_calls(monkeypatch, duhamel, "expm", calls)
    stack = duhamel_error(p1, p2, p3, times)
    assert calls["expm"] > 0
    assert_rows_are_lone_calls(p1, p2, p3, times, stack)
    measured = triple_splitting_error(p1, p2, p3, times)
    assert np.linalg.norm(stack - measured, 2, axis=(-2, -1)).max() <= 1e-8


def test_stacked_levels_split_across_rows(monkeypatch):
    # 256 entries hold two rows of 8 nodes at dim 4: the first level runs in
    # passes of two rows, later ones one row, or one row's node blocks, at a
    # time; rows stay bitwise their lone calls under the same split
    p1, p2, p3 = stacked([constrained_triple(4, seed=s) for s in (115, 116, 117)])
    times = (0.25, 0.5)
    whole = duhamel_error(p1, p2, p3, times)
    monkeypatch.setattr(duhamel, "_STACK_ENTRIES", 2 * 8 * 4 * 4)
    shapes = psi_rows(monkeypatch)
    split = duhamel_error(p1, p2, p3, times)
    passes = shapes[::2]
    assert max(np.prod(shape) for shape in passes) <= duhamel._STACK_ENTRIES
    assert passes[:3] == [(2, 8, 4, 4)] * 3
    assert any(shape[:2] == (1, 16) for shape in passes)
    assert_rows_are_lone_calls(p1, p2, p3, times, split)
    gaps = np.linalg.norm(split - whole, 2, axis=(-2, -1))
    assert (gaps <= 1e-14 * np.linalg.norm(whole, 2, axis=(-2, -1))).all()


def test_stacked_condition_gate_rejects_one_bad_triple():
    good = constrained_triple(4, seed=118)
    bad = tuple(random_skew_hermitian(4, seed=s) for s in (70, 71, 72))
    with pytest.raises(ConditionViolated):
        duhamel_error(*stacked([good, bad]), 0.5)


def test_duhamel_error_cubic_scaling():
    p1, p2, p3 = constrained_triple(4, seed=74)
    norms = [op_norm(duhamel_error(p1, p2, p3, t)) for t in (0.2, 0.1, 0.05)]
    assert norms[0] / norms[1] == pytest.approx(8.0, rel=0.1)
    assert norms[1] / norms[2] == pytest.approx(8.0, rel=0.1)


def test_panel_doubling_reduces_discrepancy(monkeypatch):
    # a deliberately coarse rule, order 2, improves as refinement doubles its
    # panels, takes at least 3 doublings and still ends within 1e-8
    p1, p2, p3 = constrained_triple(4, seed=75)
    t = 0.5
    measured = triple_splitting_error(p1, p2, p3, t)
    monkeypatch.setattr(duhamel, "GAUSS_ORDER", 2)
    levels = record_levels(monkeypatch)
    rep = duhamel_error(p1, p2, p3, t)
    assert [panels for panels, _ in levels[:4]] == [1, 2, 4, 8]
    gaps = [op_norm(estimates[0] - measured) for _, estimates in levels]
    assert gaps[1] < gaps[0] or gaps[0] <= 1e-11
    assert gaps[2] < gaps[1] or gaps[1] <= 1e-11
    assert op_norm(rep - measured) <= 1e-8


# --- the a-priori bound -----------------------------------------------------------


def test_error_bound_value():
    p1, p2, p3 = (random_skew_hermitian(5, seed=s) for s in (80, 81, 82))
    t = 0.7
    k1 = commutator(p1, commutator(p2, p3))
    k2 = commutator(p2, commutator(p2, p3))
    expected = abs(t) ** 3 / 6.0 * (op_norm(k1) + op_norm(k2))
    assert error_bound(p1, p2, p3, t) == pytest.approx(expected, rel=1e-12)
    # doubling t scales the bound by exactly 8
    assert error_bound(p1, p2, p3, 2 * t) == pytest.approx(8 * expected, rel=1e-12)


def test_error_bound_zero_for_commuting_family():
    d = [np.diag([1j, 2j]), np.diag([-1j, 1j]), np.diag([0.5j, 0.5j])]
    assert error_bound(*d, 1.0) == 0.0


def test_bound_dominates_measured_error():
    for seed in (83, 84, 85):
        p1, p2, p3 = constrained_triple(5, seed=seed)
        for t in (0.1, 0.5):
            measured = op_norm(triple_splitting_error(p1, p2, p3, t))
            assert measured <= error_bound(p1, p2, p3, t) + 1e-9


@pytest.mark.parametrize("strength", [0.1, 1.0])
def test_bound_dominates_error_of_contractive_triples(strength):
    # the bound needs contractions, not isometries: dissipative non-normal
    # triples over 20 seeds, t up to 3
    times = (0.25, 0.5, 1.0, 2.0, 3.0)
    p1, p2, p3 = (np.stack(p) for p in zip(*(contractive_triple(6, strength, s) for s in range(20))))
    measured = np.linalg.norm(triple_splitting_error(p1, p2, p3, times), 2, axis=(-2, -1))
    bound = error_bound(p1, p2, p3, times)
    assert measured.shape == bound.shape == (20, 5)
    assert (measured > 0.0).all()
    assert (measured <= bound).all()


def test_stacked_error_bound_matches_scalar_calls():
    triples = [constrained_triple(5, seed=s) for s in (88, 89, 90)]
    triples.append(tuple(np.diag(np.diag(p)) for p in triples[0]))  # a commuting triple
    p1, p2, p3 = (np.stack(p) for p in zip(*triples))
    times = (0.0, 0.1, 1.0, -2.0)
    stacked = error_bound(p1, p2, p3, times)
    assert stacked.shape == (4, 4)
    for i, triple in enumerate(triples):
        for j, t in enumerate(times):
            scalar = error_bound(*triple, t)
            assert type(scalar) is float
            assert stacked[i, j] == pytest.approx(scalar, rel=1e-14, abs=0.0)
    assert not stacked[3].any()
    assert error_bound(*triples[0], times).shape == (4,)
    assert error_bound(p1, p2, p3, 0.5).shape == (4,)


def test_scalar_error_bound_keeps_its_value_bit_for_bit():
    for p1, p2, p3 in (
        constrained_triple(4, seed=61),
        tuple(random_skew_hermitian(5, seed=s) for s in (80, 81, 82)),
    ):
        k1 = commutator(p1, commutator(p2, p3))
        k2 = commutator(p2, commutator(p2, p3))
        for t in (0.0, 0.1, 0.5, 0.7, 1.0, -0.3, 200.0):
            expected = (abs(t) ** 3 / 6.0) * (op_norm(k1) + op_norm(k2))
            got = error_bound(p1, p2, p3, t)
            assert type(got) is float and got == expected


def test_stacked_error_bound_validation():
    p1, p2, p3 = (np.stack(p) for p in zip(*(constrained_triple(4, seed=s) for s in (91, 92))))
    bad = p3.copy()
    bad[0, 1, 1] = np.nan
    wide = np.zeros((2, 4, 3))
    for case in (
        (p1, p2, bad, 0.5),
        (wide, p2, p3, 0.5),
        (p1, p2[:1], p3, 0.5),
        (p1[0], p2, p3, 0.5),
        (p1, p2, p3, [[0.5]]),
        (p1, p2, p3, [0.5, np.nan]),
    ):
        with pytest.raises(ValueError):
            error_bound(*case)


@pytest.mark.parametrize("t", [1e103, -5e102])
def test_error_bound_names_a_t_too_large_for_the_bound(t):
    # |t|^3 leaves double precision near |t| = 5.6e102; on this triple the
    # bound, |t|^3/6 times the commutator norms, already leaves it near 4e102
    with pytest.raises(OverflowError, match=re.escape(f"t = {t!r}: the cubic bound")):
        error_bound(*sample_constrained_triple(4, 1), t)


def test_an_empty_t_axis_is_refused_with_one_message():
    p1, p2, p3 = constrained_triple(4, seed=3)
    for call in (triple_splitting_error, duhamel_error, error_bound):
        with pytest.raises(ValueError, match="^t must hold at least one value$"):
            call(p1, p2, p3, [])
    with pytest.raises(ValueError, match="^t must hold at least one value$"):
        expm(p1, [])


# --- report objects -----------------------------------------------------------------


def test_build_error_report_end_to_end():
    # one row of verify_duhamel assembled from the public pieces: measured
    # error, its representation and the bound, all plain floats
    p1, p2, p3 = constrained_triple(4, seed=86)
    error = triple_splitting_error(p1, p2, p3, 0.25)
    represented = duhamel_error(p1, p2, p3, 0.25)
    row = harness.DuhamelCampaignRow(
        instance=0,
        t=0.25,
        measured_error_norm=op_norm(error),
        duhamel_norm=op_norm(represented),
        bound_value=error_bound(p1, p2, p3, 0.25),
        sign_factor=1,
        discrepancy=op_norm(error - represented),
    )
    assert row.sign_factor == 1
    assert row.discrepancy <= 1e-8
    assert row.measured_error_norm <= row.bound_value + 1e-9


def test_sign_error_in_the_representation_is_reported(monkeypatch):
    # a negated representation leaves |error - represented| near twice the
    # error norm in every row, and the campaign fails
    original = harness.duhamel_error
    monkeypatch.setattr(
        harness, "duhamel_error", lambda *args, **kwargs: -original(*args, **kwargs)
    )
    campaign = verify_duhamel(count=1, dim=4, t_list=(0.25,), seed=11)
    for row in campaign.rows:
        assert row.discrepancy == pytest.approx(2 * row.duhamel_norm, rel=1e-6)
        assert row.discrepancy == pytest.approx(2 * row.measured_error_norm, rel=1e-6)
    assert not campaign.passed
