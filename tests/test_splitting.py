import numpy as np
import pytest

from counting import count_calls
from triples import constrained_triple
from trisplit import matrix_core, splitting
from trisplit.harness import sample_constrained_triple
from trisplit.matrix_core import (
    InputError,
    commutator,
    expm,
    op_norm,
    random_skew_hermitian,
)
from trisplit.splitting import (
    E3_FORMS,
    OperatorSet,
    SplittingScheme,
    apply_splitting,
    generator_matrix,
    leading_error_E3,
    load_scheme,
    make_lie_trotter,
    make_strang,
    make_triple,
    pair_operator_set,
    parse_scheme,
    scheme_by_name,
    splitting_error,
    triple_operator_set,
    triple_splitting_error,
)


# --- scheme and operator-set contracts ---------------------------------------


def test_builtin_scheme_shapes():
    lt = make_lie_trotter()
    assert lt.operands == (("A", 1.0), ("B", 1.0))
    assert lt.canonical
    assert lt.references == ("A", "B")
    st = make_strang()
    assert st.operands == (("A", 0.5), ("B", 1.0), ("A", 0.5))
    tr = make_triple()
    assert tr.references == ("P1", "P2", "P3")


def test_canonical_is_computed_from_the_operands():
    # per distinct reference the coefficients sum to 1, within 1e-12; no
    # argument can declare it, and a scheme that is not canonical still builds
    assert all(s.canonical for s in (make_lie_trotter(), make_strang(), make_triple()))
    assert SplittingScheme("a-b-a", (("A", 0.4), ("B", 1.0), ("A", 0.6))).canonical
    assert SplittingScheme("near", (("A", 1.0 + 1e-13), ("B", 1.0))).canonical
    assert not SplittingScheme("far", (("A", 1.0 + 1e-11), ("B", 1.0))).canonical
    half = SplittingScheme("half", (("A", 0.5), ("B", 1.0)))
    assert half.references == ("A", "B")
    assert not half.canonical
    with pytest.raises(AttributeError):
        half.canonical = True
    with pytest.raises(TypeError):
        SplittingScheme("flagged", (("A", 1.0),), canonical=True)


def test_scheme_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        SplittingScheme("bad", (("A", float("nan")),))


def test_scheme_needs_operands_with_references():
    with pytest.raises(InputError, match="at least one operand"):
        SplittingScheme("none", ())
    with pytest.raises(InputError, match="empty operator reference"):
        SplittingScheme("blank", (("A", 0.5), ("", 1.0), ("A", 0.5)))


def test_operator_set_needs_a_binding():
    with pytest.raises(ValueError, match="operator set is empty"):
        OperatorSet({})


def test_operator_set_contracts():
    ops = pair_operator_set(np.eye(3) * 1j, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        OperatorSet({"A": np.eye(2), "B": np.eye(3)})
    with pytest.raises(KeyError):
        ops["C"]


def test_generator_matrix_sums_coefficients():
    a = random_skew_hermitian(4, seed=0)
    b = random_skew_hermitian(4, seed=1)
    ops = pair_operator_set(a, b)
    assert np.allclose(generator_matrix(make_lie_trotter(), ops), a + b, atol=1e-15)
    # Strang visits A twice with weight 1/2 each
    assert np.allclose(generator_matrix(make_strang(), ops), a + b, atol=1e-15)


# --- applying schemes ---------------------------------------------------------


def test_apply_single_factor_is_plain_exponential():
    a = random_skew_hermitian(5, seed=7)
    scheme = SplittingScheme("solo", (("A", 1.0),))
    ops = OperatorSet({"A": a})
    assert np.allclose(apply_splitting(scheme, ops, 0.8), expm(a, 0.8), atol=1e-14)


def test_apply_at_time_zero_is_identity():
    a = random_skew_hermitian(4, seed=2)
    b = random_skew_hermitian(4, seed=3)
    ops = pair_operator_set(a, b)
    for scheme in (make_lie_trotter(), make_strang()):
        assert np.allclose(apply_splitting(scheme, ops, 0.0), np.eye(4), atol=1e-15)


def test_apply_multiplies_the_factors_in_operand_order():
    # the reversed product keeps every order and only flips the sign of the
    # leading error: a scheme that is no palindrome, non-commuting operands
    # and t > 0 tell the two apart
    ops = pair_operator_set(random_skew_hermitian(4, 1), random_skew_hermitian(4, 2))
    quarter = SplittingScheme("quarter", (("A", 0.25), ("B", 1.0), ("A", 0.75)))
    for scheme in (make_lie_trotter(), quarter):
        factors = [expm(ops[ref], 0.5 * coeff) for ref, coeff in scheme.operands]
        applied = apply_splitting(scheme, ops, 0.5)
        assert op_norm(applied - np.linalg.multi_dot(factors)) <= 1e-14
        assert op_norm(applied - np.linalg.multi_dot(factors[::-1])) >= 0.1


def test_splitting_exact_for_commuting_operators():
    a = np.diag([1j, -2j, 0.5j])
    b = np.diag([0.25j, 1j, -1j])
    ops = pair_operator_set(a, b)
    target = expm(a + b, 1.3)
    for scheme in (make_lie_trotter(), make_strang()):
        assert op_norm(apply_splitting(scheme, ops, 1.3) - target) <= 1e-12


def test_splitting_is_unitary_for_skew_inputs():
    ops = pair_operator_set(
        random_skew_hermitian(6, seed=21), random_skew_hermitian(6, seed=22)
    )
    u = apply_splitting(make_strang(), ops, 0.7)
    assert op_norm(u.conj().T @ u - np.eye(6)) <= 1e-12


@pytest.mark.parametrize(
    "factory,ratio",
    [(make_lie_trotter, 4.0), (make_strang, 8.0)],
)
def test_local_error_scaling(factory, ratio):
    # halving t divides the local error by 2^(p+1)
    a = random_skew_hermitian(5, seed=51)
    b = random_skew_hermitian(5, seed=52)
    ops = pair_operator_set(a, b)
    t = 2.0**-6
    e_coarse = op_norm(splitting_error(factory(), ops, t))
    e_fine = op_norm(splitting_error(factory(), ops, t / 2))
    assert e_coarse / e_fine == pytest.approx(ratio, rel=0.05)


def test_triple_splitting_error_definition():
    p1, p2, p3 = (random_skew_hermitian(4, seed=s) for s in (61, 62, 63))
    t = 0.3
    direct = expm(p1, t) @ expm(p2, t) @ expm(p3, t) - expm(p1 + p2 + p3, t)
    assert np.allclose(triple_splitting_error(p1, p2, p3, t), direct, atol=1e-14)


def test_splitting_error_is_one_stacked_expm(monkeypatch):
    # the factors and e^{tG} come from one expm call on the operator set's
    # already validated matrices, and agree with the per-factor product
    import trisplit.matrix_core as mc
    import trisplit.splitting as sp

    a = random_skew_hermitian(5, seed=31)
    b = random_skew_hermitian(5, seed=32)
    ops = pair_operator_set(a, b)
    scheme = make_strang()
    t = 0.4
    direct = expm(a, 0.2) @ expm(b, 0.4) @ expm(a, 0.2) - expm(a + b, 0.4)
    calls = {"expm": 0, "scan": 0}

    def counted_expm(*args):
        calls["expm"] += 1
        return mc.expm(*args)

    def counted_scan(m):
        calls["scan"] += 1
        return mc.as_complex_matrix(m)

    monkeypatch.setattr(sp, "expm", counted_expm)
    monkeypatch.setattr(sp, "as_complex_matrix", counted_scan)
    got = splitting_error(scheme, ops, t)
    assert calls == {"expm": 1, "scan": 0}
    assert op_norm(got - direct) <= 1e-14
    apply_splitting(scheme, ops, t)
    assert calls == {"expm": 2, "scan": 0}


# --- stacks of triples ----------------------------------------------------------


def stacked_triples(dim, seeds):
    """(P1, P2, P3) as three (k, n, n) stacks of constrained triples."""
    return tuple(np.stack(p) for p in zip(*(constrained_triple(dim, s) for s in seeds)))


def test_stacked_triple_splitting_error_matches_scalar_calls():
    p1, p2, p3 = stacked_triples(5, (11, 12, 13))
    times = (0.0, 0.3, 2.0, -0.7)
    stacked = triple_splitting_error(p1, p2, p3, times)
    assert stacked.shape == (3, 4, 5, 5)
    for i in range(3):
        for j, t in enumerate(times):
            scalar = triple_splitting_error(p1[i], p2[i], p3[i], t)
            assert op_norm(stacked[i, j] - scalar) <= 1e-14 * max(1.0, op_norm(scalar))
    # one axis at a time: matrices over m times, or a stack at one time
    assert triple_splitting_error(p1[0], p2[0], p3[0], times).shape == (4, 5, 5)
    assert triple_splitting_error(p1, p2, p3, 0.3).shape == (3, 5, 5)
    assert np.array_equal(
        triple_splitting_error(p1[0], p2[0], p3[0], times)[2], stacked[0, 2]
    )


def test_stacked_splitting_error_is_one_expm(monkeypatch):
    import trisplit.splitting as sp

    p1, p2, p3 = stacked_triples(4, (21, 22))
    calls = []
    original = sp.expm
    monkeypatch.setattr(
        sp, "expm", lambda m, t: calls.append((m.shape, np.shape(t))) or original(m, t)
    )
    triple_splitting_error(p1, p2, p3, (0.1, 0.5, 1.0))
    # 4 exponentials x 2 triples, each generator once, on its grid of 3 times
    assert calls == [((4 * 2, 4, 4), (4 * 2, 3))]


def test_stacked_splitting_error_validation():
    p1, p2, p3 = stacked_triples(4, (31, 32, 33))
    bad = p2.copy()
    bad[1, 2, 3] = np.inf  # one entry of one triple of the stack
    wide = np.zeros((3, 4, 5))
    cases = (
        (p1, bad, p3, 0.5),
        (p1, p2, wide, 0.5),
        (wide, wide, wide, 0.5),
        (p1, p2[:2], p3, 0.5),
        (p1, p2[0], p3, 0.5),
        (p1, p2, p3, [[0.1, 0.5]]),
    )
    for case in cases:
        with pytest.raises(ValueError):
            triple_splitting_error(*case)
    for t in (np.nan, [0.1, np.inf]):
        with pytest.raises(ValueError, match="t must be finite"):
            triple_splitting_error(p1, p2, p3, t)


def test_scalar_splitting_error_keeps_its_values_bit_for_bit():
    # matrices at a scalar t: the stacked expm of the three factors and
    # e^{tL}, and the product of the factors, exactly as before stacks
    for p1, p2, p3 in (
        constrained_triple(4, seed=61),
        tuple(random_skew_hermitian(5, seed=s) for s in (61, 62, 63)),
    ):
        for t in (0.0, 0.1, 0.5, 1.0, -0.3, 200.0):
            e1, e2, e3, e_l = expm(np.stack((p1, p2, p3, p1 + p2 + p3)), np.multiply((1.0,) * 4, t))
            got = triple_splitting_error(p1, p2, p3, t)
            assert got.shape == (p1.shape[0],) * 2
            assert np.array_equal(got, e1 @ e2 @ e3 - e_l)


# --- the cubic error coefficient ----------------------------------------------


def test_e3_forms_agree_on_condition_satisfying_triples():
    for seed in (5, 6, 7):
        p1, p2, p3 = constrained_triple(5, seed=seed)
        scale = 1.0 + max(op_norm(p) for p in (p1, p2, p3)) ** 3
        series = leading_error_E3(p1, p2, p3, form="series")
        integral = leading_error_E3(p1, p2, p3, form="integral")
        assert op_norm(series - integral) <= 1e-10 * scale


def test_e3_forms_differ_without_the_condition():
    p1, p2, p3 = (random_skew_hermitian(4, seed=s) for s in (91, 92, 93))
    series = leading_error_E3(p1, p2, p3, form="series")
    integral = leading_error_E3(p1, p2, p3, form="integral")
    assert op_norm(series - integral) > 1e-3


def test_e3_vanishes_for_commuting_triple():
    p1 = np.diag([1j, 2j, 3j])
    p2 = np.diag([-1j, 0j, 1j])
    p3 = np.diag([2j, 2j, -1j])
    for form in E3_FORMS:
        assert op_norm(leading_error_E3(p1, p2, p3, form=form)) <= 1e-15


@pytest.mark.parametrize("form", E3_FORMS)
def test_e3_validates_its_inputs_once(monkeypatch, form):
    # one as_complex_matrix scan per argument: the commutators take the
    # checked arrays
    triple = sample_constrained_triple(6, 3)
    calls = {"as_complex_matrix": 0}
    for module in (matrix_core, splitting):
        count_calls(monkeypatch, module, "as_complex_matrix", calls)
    leading_error_E3(*triple, form=form)
    assert calls["as_complex_matrix"] == 3


def test_e3_unknown_form():
    m = np.eye(2)
    with pytest.raises(ValueError):
        leading_error_E3(m, m, m, form="mixed")


def test_e3_against_measured_error_for_symmetrized_pair():
    # A/2, B, A/2 satisfies the condition exactly, so the measured error is
    # t^3 E3 + O(t^4); one Richardson step removes the t^4 term.
    a = random_skew_hermitian(4, seed=101)
    b = random_skew_hermitian(4, seed=102)
    p1, p2, p3 = a / 2, b, a / 2

    def scaled_error(t):
        return triple_splitting_error(p1, p2, p3, t) / t**3

    t0 = 2.0**-5
    extrapolated = 2 * scaled_error(t0 / 2) - scaled_error(t0)
    e3 = leading_error_E3(p1, p2, p3, form="series")
    assert op_norm(extrapolated - e3) <= 1e-2 * op_norm(e3)
    # and it reproduces the classic symmetric-splitting coefficients
    classic = -commutator(a, commutator(a, b)) / 24 - commutator(b, commutator(a, b)) / 12
    assert np.allclose(e3, classic, atol=1e-14)


# --- scheme text files ----------------------------------------------------------


def test_scheme_roundtrip(tmp_path):
    texts = (
        "name lie-trotter\nA 1\nB 1\n",
        "name strang\nA 1/2\nB 1\nA 1/2\n",
        "name triple\nP1 1\nP2 1\nP3 1\n",
    )
    for text, scheme in zip(texts, (make_lie_trotter(), make_strang(), make_triple())):
        back = parse_scheme(text)
        assert back == scheme
    custom = SplittingScheme("halfway", (("A", 0.5), ("B", 0.25)))
    path = tmp_path / "halfway.scheme"
    path.write_text("name halfway\nA 1/2\nB 0.25\n")
    assert load_scheme(path) == custom


def test_parse_scheme_accepts_fractions_and_comments():
    text = "\n".join(
        [
            "# a symmetric composition",
            "name custom",
            "A 1/2",
            "B 1",
            "A 1/2",
            "",
        ]
    )
    scheme = parse_scheme(text)
    assert scheme.name == "custom"
    assert scheme.canonical
    assert scheme.operands == (("A", 0.5), ("B", 1.0), ("A", 0.5))


def test_parse_scheme_rejects_malformed_input():
    with pytest.raises(ValueError, match="no canonical line"):
        parse_scheme("name x\ncanonical 1\nA 1")  # computed, never declared
    with pytest.raises(ValueError):
        parse_scheme("name x\nA")  # missing coefficient
    with pytest.raises(ValueError):
        parse_scheme("A 1")  # missing name
    with pytest.raises(ValueError, match="'1/0'"):
        parse_scheme("name x\nA 1/0")  # a ValueError, not Fraction's ZeroDivisionError


def test_scheme_by_name():
    assert scheme_by_name("strang") == make_strang()
    assert scheme_by_name("lie-trotter") == make_lie_trotter()
    # triple is over P1, P2, P3, which no study runs, so it is no built-in
    for name in ("triple", "yoshida"):
        with pytest.raises(ValueError, match=f"unknown scheme '{name}'"):
            scheme_by_name(name)
