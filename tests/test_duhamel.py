import numpy as np
import pytest

from trisplit import duhamel, harness, matrix_core
from trisplit.duhamel import (
    ConditionViolated,
    ErrorReport,
    QuadratureSpec,
    ToleranceNotReached,
    duhamel_error,
    error_bound,
    w_integral,
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


def constrained_triple(dim, seed):
    p1 = random_skew_hermitian(dim, seed=seed)
    p2 = random_skew_hermitian(dim, seed=seed + 1000)
    return p1, p2, solve_second_order_constraint(p1, p2)


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


# --- quadrature plumbing ------------------------------------------------------


def test_quadrature_spec_validation():
    QuadratureSpec()  # defaults are legal
    with pytest.raises(ValueError):
        QuadratureSpec(gauss_order=1)
    with pytest.raises(ValueError):
        QuadratureSpec(panels=0)
    with pytest.raises(ValueError):
        QuadratureSpec(target_tol=0.0)


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


# --- the W kernel ---------------------------------------------------------------


def test_w_integral_forms_agree_for_any_triple():
    # the two forms are an unconditional identity; use unconstrained triples
    skew = tuple(random_skew_hermitian(4, seed=s) for s in (60, 61, 62))
    general = tuple(non_normal(4, seed=s) for s in (67, 68, 69))
    for p1, p2, p3 in (skew, general):
        for tau in (0.2, 0.9):
            a = w_integral(p1, p2, p3, tau, form="double_integral")
            b = w_integral(p1, p2, p3, tau, form="defining")
            assert op_norm(a - b) <= 1e-10 * max(1.0, op_norm(a))


def test_w_integral_zero_cases():
    p1, p2, p3 = (random_skew_hermitian(3, seed=s) for s in (63, 64, 65))
    assert op_norm(w_integral(p1, p2, p3, 0.0)) == 0.0
    # [P2,P3] = 0 kills both kernels
    d2 = np.diag([1j, -1j, 2j])
    d3 = np.diag([2j, 1j, 1j])
    for form in ("double_integral", "defining"):
        assert op_norm(w_integral(p1, d2, d3, 0.5, form=form)) <= 1e-13


def test_w_integral_form_validation():
    p = random_skew_hermitian(2, seed=66)
    with pytest.raises(ValueError):
        w_integral(p, p, p, 0.5, form="triple_integral")


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
    p1, p2, p3 = constrained_triple(4, seed=55)
    with pytest.raises(ToleranceNotReached):
        duhamel_error(p1, p2, p3, 1.0, quad=QuadratureSpec(gauss_order=2, target_tol=1e-30))


def test_duhamel_error_stops_doubling_at_round_off():
    # at gauss order 8 the gap between successive estimates is at round-off by
    # 8 panels; no further doubling can reach 1e-30, so refinement stops there
    # rather than at the 256-panel cap
    p1, p2, p3 = constrained_triple(4, seed=55)
    quad = QuadratureSpec(gauss_order=8, target_tol=1e-30)
    with pytest.raises(ToleranceNotReached, match=r"gap \S+ at 8 panels"):
        duhamel_error(p1, p2, p3, 1.0, quad=quad)


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


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
    # Van Loan blocks, and does not go through the public w_integral
    p1, p2, p3 = non_normal_triple(4, seed=75)
    calls = {"expm": 0, "nodes": 0}
    count_calls(monkeypatch, duhamel, "expm", calls)
    count_nodes(monkeypatch, calls)

    def forbidden(*args, **kwargs):
        raise AssertionError("duhamel_error called w_integral")

    monkeypatch.setattr(duhamel, "w_integral", forbidden)
    represented = duhamel_error(p1, p2, p3, 0.5)
    assert calls["nodes"] >= 16  # at least one panel doubling
    assert calls["expm"] == 3 * calls["nodes"]
    measured = triple_splitting_error(p1, p2, p3, 0.5)
    assert op_norm(represented - measured) <= 1e-8


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


def test_duhamel_error_cubic_scaling():
    p1, p2, p3 = constrained_triple(4, seed=74)
    norms = [op_norm(duhamel_error(p1, p2, p3, t)) for t in (0.2, 0.1, 0.05)]
    assert norms[0] / norms[1] == pytest.approx(8.0, rel=0.1)
    assert norms[1] / norms[2] == pytest.approx(8.0, rel=0.1)


def test_panel_doubling_reduces_discrepancy():
    # with refinement disabled, a deliberately coarse rule improves as the
    # panel count is doubled by hand
    p1, p2, p3 = constrained_triple(4, seed=75)
    t = 0.5
    measured = triple_splitting_error(p1, p2, p3, t)
    gaps = []
    for panels in (1, 2, 4):
        quad = QuadratureSpec(gauss_order=2, panels=panels)
        rep = duhamel_error(p1, p2, p3, t, quad=quad, refine=False)
        gaps.append(op_norm(rep - measured))
    assert gaps[1] < gaps[0] or gaps[0] <= 1e-11
    assert gaps[2] < gaps[1] or gaps[1] <= 1e-11


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
            expected = (abs(t) ** 3 / 6.0) * float(np.linalg.norm(k1, 2) + np.linalg.norm(k2, 2))
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


# --- report objects -----------------------------------------------------------------


def test_error_report_sign_validation():
    with pytest.raises(ValueError):
        ErrorReport(0.1, 0.1, 0.2, sign_factor=0, discrepancy=0.0)


def test_build_error_report_end_to_end():
    # one ErrorReport assembled from the public pieces, as a row of
    # verify_duhamel is: measured error, its representation and the bound
    p1, p2, p3 = constrained_triple(4, seed=86)
    error = triple_splitting_error(p1, p2, p3, 0.25)
    represented = duhamel_error(p1, p2, p3, 0.25)
    report = ErrorReport(
        measured_error_norm=op_norm(error),
        duhamel_norm=op_norm(represented),
        bound_value=error_bound(p1, p2, p3, 0.25),
        sign_factor=1,
        discrepancy=op_norm(error - represented),
    )
    assert report.sign_factor == 1
    assert report.discrepancy <= 1e-8
    assert report.measured_error_norm <= report.bound_value + 1e-9


def test_sign_error_in_the_representation_is_reported(monkeypatch):
    # a negated representation leaves |error - represented| near twice the
    # error norm in every row, and the campaign fails
    original = harness.duhamel_error
    monkeypatch.setattr(
        harness, "duhamel_error", lambda *args, **kwargs: -original(*args, **kwargs)
    )
    campaign = verify_duhamel(count=1, dim=4, t_list=(0.25,), seed=11)
    for row in campaign.rows:
        assert row.report.discrepancy == pytest.approx(2 * row.report.duhamel_norm, rel=1e-6)
        assert row.report.discrepancy == pytest.approx(2 * row.report.measured_error_norm, rel=1e-6)
    assert not campaign.passed
