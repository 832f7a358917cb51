"""Exact-arithmetic tests for the free-algebra layer.

Everything here is integer/rational arithmetic, so comparisons are exact
(``==`` on Fraction-valued coefficient maps), never floating tolerances.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from trisplit.lie_symbolic import (
    GENERATORS,
    FreeElement,
    bracket,
    format_element,
    reduce_mod_condition,
    second_order_defect,
    splitting_taylor,
    third_order_integral_form,
    third_order_mixed_form,
    third_order_pre_jacobi_form,
    third_order_series_form,
)

#: The degree-3 generators u*C*v of the condition ideal, |u| + |v| = 1.
IDEAL_GENERATOR_LABELS = ("C*P1", "C*P2", "C*P3", "P1*C", "P2*C", "P3*C")


def _ideal_generator_elements():
    c = second_order_defect()
    gens = {}
    for j in GENERATORS:
        pj = FreeElement.generator(j)
        gens[f"C*P{j}"] = c.mul_truncated(pj, None)
        gens[f"P{j}*C"] = pj.mul_truncated(c, None)
    return gens


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return FreeElement.generator(rng.choice(GENERATORS))
    return bracket(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


# --- FreeElement basics -----------------------------------------------------


def test_zero_and_unit():
    assert FreeElement.zero().is_zero()
    assert not FreeElement.unit().is_zero()
    assert FreeElement.unit().coeff(()) == 1
    assert FreeElement.generator(2).coeff((2,)) == 1
    assert FreeElement.generator(2).coeff((1,)) == 0


def test_generator_index_validation():
    with pytest.raises(ValueError):
        FreeElement.generator(0)
    with pytest.raises(ValueError):
        FreeElement.generator(4)


def test_arithmetic_is_exact():
    p1 = FreeElement.generator(1)
    p2 = FreeElement.generator(2)
    e = p1.scale(Fraction(1, 3)) + p1.scale(Fraction(2, 3)) - p1
    assert e.is_zero()
    prod = (p1 + p2) * (p1 - p2)
    # (P1+P2)(P1-P2) = P1P1 - P1P2 + P2P1 - P2P2
    assert prod.coeff((1, 1)) == 1
    assert prod.coeff((1, 2)) == -1
    assert prod.coeff((2, 1)) == 1
    assert prod.coeff((2, 2)) == -1


def test_repeated_words_merge():
    p1, p2 = FreeElement.generator(1), FreeElement.generator(2)
    assert FreeElement([((1,), 1), ((1,), 2)]) == p1.scale(3)
    # (P1 + P1P2)(P2 + 1) = P1P2 + P1 + P1P2P2 + P1P2: two products land on P1P2
    product = (p1 + p1 * p2).mul_truncated(p2 + FreeElement.unit(), None)
    assert product == FreeElement({(1, 2): 2, (1,): 1, (1, 2, 2): 1})


def test_equality_hash_and_repr():
    assert FreeElement.unit() != 1
    e = bracket(1, 2).scale(Fraction(1, 2))
    same = FreeElement({(2, 1): Fraction(-1, 2), (1, 2): Fraction(1, 2)})
    assert e == same and hash(e) == hash(same)
    assert repr(FreeElement.zero()) == "FreeElement(0)"
    assert repr(e + FreeElement.unit()) == "FreeElement(1*1 + 1/2*12 + -1/2*21)"


def test_mul_truncated_drops_high_words():
    p1 = FreeElement.generator(1)
    sq = p1 * p1
    assert sq.mul_truncated(sq, 3).is_zero()
    assert sq.mul_truncated(sq, 4).coeff((1, 1, 1, 1)) == 1


def test_homogeneous_parts():
    p1 = FreeElement.generator(1)
    e = FreeElement.unit() + p1 + p1 * p1
    assert e.degrees() == {0, 1, 2}
    assert not e.is_homogeneous(1)
    assert (p1 * p1).is_homogeneous(2)
    assert e.homogeneous_part(1) == p1
    assert e.homogeneous_part(3).is_zero()
    assert e.max_degree() == 2


def test_format_element_is_deterministic():
    e = FreeElement(
        {(1, 2): Fraction(-1, 6), (3,): Fraction(2), (): Fraction(1, 2)}
    )
    # sorted by (degree, lexicographic), one "num/den * word" line each
    assert format_element(e) == "1/2 * 1\n2/1 * P3\n-1/6 * P1 P2"
    assert format_element(FreeElement.zero()) == "0"


# --- commutators ------------------------------------------------------------


def test_expand_simple_bracket():
    e = bracket(1, 2)
    assert e.coeff((1, 2)) == 1
    assert e.coeff((2, 1)) == -1
    assert len(e.terms) == 2


def test_bracket_self_is_zero():
    assert bracket(1, 1).is_zero()


def test_antisymmetry_and_jacobi_on_random_trees():
    rng = random.Random(1302)
    for _ in range(40):
        x = _random_tree(rng, 2)
        y = _random_tree(rng, 2)
        z = _random_tree(rng, 2)
        lhs = bracket(x, y)
        assert lhs == x * y - y * x
        assert (lhs + bracket(y, x)).is_zero()
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jac.is_zero()


# --- Taylor defect of the three-factor product ------------------------------


def test_taylor_degrees_zero_and_one_vanish():
    coeffs = splitting_taylor(3)
    assert coeffs[0].is_zero()
    assert coeffs[1].is_zero()


def test_taylor_degree_bounds():
    with pytest.raises(ValueError):
        splitting_taylor(1)
    with pytest.raises(ValueError):
        splitting_taylor(7)


def test_taylor_degree2_is_half_the_condition():
    coeffs = splitting_taylor(2)
    assert coeffs[2] == second_order_defect().scale(Fraction(1, 2))


def test_taylor_degree3_matches_mixed_form():
    coeffs = splitting_taylor(3)
    assert coeffs[3] == third_order_mixed_form()


def test_taylor_degree3_word_coefficients():
    # hand expansion: word (a,b,c) gets 1/(i!j!k!) summed over the ways the
    # ordered product e^{tP1}e^{tP2}e^{tP3} can emit it, minus 1/3! from
    # e^{t(P1+P2+P3)}.  E.g. P1P2P3 appears once with weight 1 -> 1 - 1/6.
    t3 = splitting_taylor(3)[3]
    assert t3.coeff((1, 2, 3)) == Fraction(5, 6)
    assert t3.coeff((1, 1, 2)) == Fraction(1, 3)  # 1/2! - 1/6
    assert t3.coeff((1, 1, 1)) == 0  # 1/3! - 1/3!
    assert t3.coeff((1, 2, 1)) == Fraction(-1, 6)  # not emittable in order
    assert t3.coeff((3, 2, 1)) == Fraction(-1, 6)
    assert t3.coeff((2, 1, 1)) == Fraction(-1, 6)
    assert t3.coeff((1, 3, 2)) == Fraction(-1, 6)


def test_taylor_higher_degrees_are_populated():
    coeffs = splitting_taylor(5)
    assert len(coeffs) == 6
    assert not coeffs[4].is_zero()
    assert not coeffs[5].is_zero()
    for j, part in enumerate(coeffs):
        if not part.is_zero():
            assert part.degrees() == {j}


# --- closed forms and the condition ideal -----------------------------------


def test_second_order_defect_words():
    c = second_order_defect()
    assert c.coeff((1, 2)) == 1
    assert c.coeff((2, 1)) == -1
    assert c.coeff((1, 3)) == 1
    assert c.coeff((2, 3)) == 1
    assert c.coeff((1, 1)) == 0


def test_jacobi_rearrangement_of_nested_brackets():
    # [P2,[P1,P3]] = [P1,[P2,P3]] + [P3,[P1,P2]]
    lhs = bracket(2, bracket(1, 3))
    rhs = bracket(1, bracket(2, 3)) + bracket(3, bracket(1, 2))
    assert lhs == rhs


def test_series_and_integral_forms_differ_as_plain_elements():
    # equal only modulo the condition ideal, not as raw coefficient maps
    assert third_order_series_form() != third_order_integral_form()


def test_mixed_form_reduces_to_series_form():
    diff = splitting_taylor(3)[3] - third_order_series_form()
    red = reduce_mod_condition(diff)
    assert red.in_ideal
    assert red.residual.is_zero()


def test_series_integral_and_pre_jacobi_forms_share_a_coset():
    series = third_order_series_form()
    integral = third_order_integral_form()
    pre = third_order_pre_jacobi_form()
    assert reduce_mod_condition(series - integral).in_ideal
    assert reduce_mod_condition(series - pre).in_ideal
    r1 = reduce_mod_condition(series)
    r2 = reduce_mod_condition(integral)
    r3 = reduce_mod_condition(pre)
    assert r1.residual == r2.residual
    assert r1.residual == r3.residual


def test_reduction_certificate_reconstructs_target():
    target = splitting_taylor(3)[3] - third_order_series_form()
    red = reduce_mod_condition(target)
    assert red.in_ideal
    combo = red.combination
    assert set(combo) <= set(IDEAL_GENERATOR_LABELS)
    gens = _ideal_generator_elements()
    acc = FreeElement.zero()
    for label, coeff in combo.items():
        acc = acc + gens[label].scale(coeff)
    assert acc == target


def test_reduction_certificate_frozen_coefficients():
    # the six generators C*Pj and Pj*C are linearly independent, so an ideal
    # element has exactly one combination; pin it so a wrong certificate
    # shows
    target = splitting_taylor(3)[3] - third_order_series_form()
    red = reduce_mod_condition(target)
    assert red.in_ideal
    assert red.combination == {
        "C*P1": Fraction(1, 6),
        "C*P2": Fraction(1, 6),
        "C*P3": Fraction(1, 3),
        "P1*C": Fraction(1, 3),
        "P2*C": Fraction(1, 3),
        "P3*C": Fraction(1, 6),
    }


def test_ideal_generators_are_reducible_to_zero():
    for label, element in _ideal_generator_elements().items():
        red = reduce_mod_condition(element)
        assert red.in_ideal, label
        assert red.combination.get(label) == 1


def test_word_outside_ideal_raises():
    lone_word = FreeElement({(1, 2, 3): Fraction(1)})
    red = reduce_mod_condition(lone_word)
    assert not red.in_ideal
    assert not red.residual.is_zero()


def test_nested_commutator_outside_ideal():
    # the fault-injection path in the certification harness relies on this
    elem = bracket(2, bracket(1, 2))
    assert not reduce_mod_condition(elem).in_ideal


def test_reduce_rejects_inhomogeneous_input():
    # a lone generator is homogeneous of degree 1: it reduces to itself and
    # lies outside the ideal, which starts in degree 2
    red = reduce_mod_condition(FreeElement.generator(1))
    assert red.residual == FreeElement.generator(1)
    assert not red.in_ideal
    with pytest.raises(ValueError):
        reduce_mod_condition(FreeElement.unit() + FreeElement.generator(1) * FreeElement.generator(2) * FreeElement.generator(3))


def test_reduce_of_zero():
    zero3 = FreeElement.zero()
    red = reduce_mod_condition(zero3)
    assert red.in_ideal
    assert red.residual.is_zero()


def test_ideal_membership_against_sympy_rank():
    # independent route: membership in span{C*Pj, Pj*C} over the rationals is
    # a rank question on the 27-dimensional degree-3 word space
    words = sorted(itertools.product(GENERATORS, repeat=3))
    gens = _ideal_generator_elements()
    basis = sympy.Matrix(
        [[sympy.Rational(gens[label].coeff(w)) for w in words] for label in IDEAL_GENERATOR_LABELS]
    ).T

    def member(element):
        vec = sympy.Matrix([sympy.Rational(element.coeff(w)) for w in words])
        return basis.rank() == basis.row_join(vec).rank()

    inside = splitting_taylor(3)[3] - third_order_series_form()
    outside = FreeElement({(1, 2, 3): Fraction(1)})
    nested = bracket(2, bracket(1, 2))
    assert member(inside)
    assert not member(outside)
    assert not member(nested)
    assert member(inside) == reduce_mod_condition(inside).in_ideal
    assert member(outside) == reduce_mod_condition(outside).in_ideal
    assert member(nested) == reduce_mod_condition(nested).in_ideal


def test_random_degree3_elements_agree_with_sympy():
    words = sorted(itertools.product(GENERATORS, repeat=3))
    gens = _ideal_generator_elements()
    basis = sympy.Matrix(
        [[sympy.Rational(gens[label].coeff(w)) for w in words] for label in IDEAL_GENERATOR_LABELS]
    ).T
    base_rank = basis.rank()
    rng = random.Random(77)
    for _ in range(12):
        coeffs = {
            w: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            for w in rng.sample(words, 6)
        }
        element = FreeElement(coeffs)
        if element.is_zero():
            continue
        vec = sympy.Matrix([sympy.Rational(element.coeff(w)) for w in words])
        expected = base_rank == basis.row_join(vec).rank()
        got = reduce_mod_condition(element)
        assert got.in_ideal == expected
        # residual must itself reduce to itself (idempotence of the reduction)
        again = reduce_mod_condition(got.residual)
        assert again.residual == got.residual


def test_normal_form_of_each_word_against_sympy():
    # the rewriting rule P3P2 -> P1P2 - P2P1 + P1P3 - P3P1 + P2P3 leaves no
    # factor P3P2, and what it removes from a word lies in the sympy span of
    # C*Pj and Pj*C; 27 - 6 words are already normal
    words = sorted(itertools.product(GENERATORS, repeat=3))
    gens = _ideal_generator_elements()
    basis = sympy.Matrix(
        [[sympy.Rational(gens[label].coeff(w)) for w in words] for label in IDEAL_GENERATOR_LABELS]
    ).T
    assert basis.rank() == 6
    normal = 0
    for word in words:
        element = FreeElement({word: 1})
        residual = reduce_mod_condition(element).residual
        assert all((3, 2) not in zip(w, w[1:]) for w in residual.terms), word
        removed = element - residual
        vec = sympy.Matrix([sympy.Rational(removed.coeff(w)) for w in words])
        assert basis.row_join(vec).rank() == 6, word
        normal += residual == element
    assert normal == 21


def _degree4_ideal_generators():
    # every u*C*v with |u| + |v| = 2, keyed by its certificate label
    c = second_order_defect()
    gens = {}
    for left in range(3):
        for u in itertools.product(GENERATORS, repeat=left):
            for v in itertools.product(GENERATORS, repeat=2 - left):
                label = "*".join([f"P{ell}" for ell in u] + ["C"] + [f"P{ell}" for ell in v])
                gens[label] = FreeElement({u: 1}) * c * FreeElement({v: 1})
    return gens


def test_degree4_ideal_generators_reduce_to_zero():
    # the 27 generators obey one relation, sum_w c_w (w*C) = sum_w c_w (C*w)
    # over the words w of C, and a certificate is linear in its input, so
    # not all 27 can come back as {label: 1}.  All but P3*P2*C do; that one,
    # whose u is the leading word P3P2, is rewritten from its left and gets
    # a certificate that still rebuilds it exactly
    gens = _degree4_ideal_generators()
    assert len(gens) == 27
    others = []
    for label, element in gens.items():
        red = reduce_mod_condition(element)
        assert red.in_ideal, label
        rebuilt = FreeElement.zero()
        for name, coeff in red.combination.items():
            rebuilt = rebuilt + gens[name].scale(coeff)
        assert rebuilt == element, label
        if red.combination != {label: 1}:
            others.append(label)
    assert others == ["P3*P2*C"]


def test_normal_form_of_each_degree4_word_against_sympy():
    # the degree-4 slice of the ideal has sympy rank 26 in the 81-word
    # space, so 81 - 26 = 55 words, those free of P3P2, are already normal
    words = sorted(itertools.product(GENERATORS, repeat=4))
    gens = _degree4_ideal_generators()
    basis = sympy.Matrix(
        [[sympy.Rational(element.coeff(w)) for w in words] for element in gens.values()]
    ).T
    assert basis.rank() == 26
    normal = 0
    for word in words:
        element = FreeElement({word: 1})
        red = reduce_mod_condition(element)
        assert all((3, 2) not in zip(w, w[1:]) for w in red.residual.terms), word
        removed = element - red.residual
        rebuilt = FreeElement.zero()
        for label, coeff in red.combination.items():
            rebuilt = rebuilt + gens[label].scale(coeff)
        assert rebuilt == removed, word
        normal += red.residual == element
    assert normal == 55


def test_certificate_drops_labels_that_cancel():
    # reducing P1P3P2P2 - P3P2P3P2, the rewrites of the word P1P2P3P2 sum
    # to zero, so its label P1*P2*C is left out of the certificate
    target = FreeElement({(1, 3, 2, 2): 1, (3, 2, 3, 2): -1})
    red = reduce_mod_condition(target)
    assert red.combination and all(red.combination.values())
    assert "P1*P2*C" not in red.combination
    gens = _degree4_ideal_generators()
    rebuilt = FreeElement.zero()
    for label, coeff in red.combination.items():
        rebuilt = rebuilt + gens[label].scale(coeff)
    assert rebuilt == target - red.residual
