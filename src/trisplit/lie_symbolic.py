"""Exact algebra over words in three noncommuting generators P1, P2, P3.

Everything here runs on arbitrary-precision rationals (`fractions.Fraction`);
no floating point enters this module.  The engine expands commutators into
the free associative algebra, computes the Taylor coefficients of the
defect

    exp(t*P1) exp(t*P2) exp(t*P3) - exp(t*(P1 + P2 + P3)),

and decides membership of homogeneous elements in the two-sided ideal
generated by the second-order defect

    C = [P1,P2] + [P1,P3] + [P2,P3]

by rewriting to a normal form, which is how the commutator closed forms of
the leading error term are certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

GENERATORS = (1, 2, 3)

#: A word is a tuple of generator indices; the empty tuple is the algebra unit.
Word = tuple


def _validated_word(letters) -> Word:
    word = tuple(int(ell) for ell in letters)
    for ell in word:
        if ell not in GENERATORS:
            raise ValueError(f"generator index {ell} outside {GENERATORS}")
    return word


class FreeElement:
    """Finite rational linear combination of words, kept free of zero terms.

    Instances are immutable by convention: every operation returns a fresh
    element and arithmetic is exact.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Word, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for letters, coeff in items:
                word = _validated_word(letters)
                coeff = Fraction(coeff)
                if word in data:
                    data[word] += coeff
                else:
                    data[word] = coeff
        self._terms = {w: c for w, c in data.items() if c != 0}

    @classmethod
    def _trusted(cls, data: dict) -> "FreeElement":
        """Element from a map of checked words to Fractions, dropping zeros only."""
        element = object.__new__(cls)
        element._terms = {w: c for w, c in data.items() if c}
        return element

    @classmethod
    def zero(cls) -> "FreeElement":
        return cls()

    @classmethod
    def unit(cls) -> "FreeElement":
        return cls({(): Fraction(1)})

    @classmethod
    def generator(cls, index: int) -> "FreeElement":
        return cls._trusted({_validated_word((index,)): Fraction(1)})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coeff(self, letters) -> Fraction:
        return self._terms.get(tuple(letters), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> set:
        return {len(w) for w in self._terms}

    def is_homogeneous(self, degree: int) -> bool:
        return self.is_zero() or self.degrees() == {degree}

    def homogeneous_part(self, degree: int) -> "FreeElement":
        return FreeElement._trusted({w: c for w, c in self._terms.items() if len(w) == degree})

    def max_degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        merged = dict(self._terms)
        for w, c in other._terms.items():
            merged[w] = merged[w] + c if w in merged else c
        return FreeElement._trusted(merged)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def __neg__(self) -> "FreeElement":
        return FreeElement._trusted({w: -c for w, c in self._terms.items()})

    def scale(self, scalar) -> "FreeElement":
        scalar = Fraction(scalar)
        return FreeElement._trusted({w: scalar * c for w, c in self._terms.items()})

    def __mul__(self, other: "FreeElement") -> "FreeElement":
        return self.mul_truncated(other, None)

    def mul_truncated(self, other: "FreeElement", max_degree) -> "FreeElement":
        """Concatenation product, optionally discarding words above max_degree."""
        out: dict[Word, Fraction] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                if max_degree is not None and len(wa) + len(wb) > max_degree:
                    continue
                w = wa + wb
                c = ca * cb
                if w in out:
                    out[w] += c
                else:
                    out[w] = c
        return FreeElement._trusted(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def sorted_terms(self) -> list:
        """Terms in the canonical (degree, lexicographic) word order."""
        return sorted(self._terms.items(), key=lambda item: (len(item[0]), item[0]))

    def __repr__(self) -> str:
        if self.is_zero():
            return "FreeElement(0)"
        parts = [f"{c}*{''.join(map(str, w)) or '1'}" for w, c in self.sorted_terms()]
        return "FreeElement(" + " + ".join(parts) + ")"


def format_element(element: FreeElement) -> str:
    """Deterministic text form: one ``num/den * P_i P_j ...`` line per word."""
    if element.is_zero():
        return "0"
    lines = []
    for word, coeff in element.sorted_terms():
        monomial = " ".join(f"P{ell}" for ell in word) if word else "1"
        lines.append(f"{coeff.numerator}/{coeff.denominator} * {monomial}")
    return "\n".join(lines)


def bracket(left, right) -> FreeElement:
    """[left, right] = left*right - right*left; plain ints are promoted to generators."""
    if isinstance(left, int):
        left = FreeElement.generator(left)
    if isinstance(right, int):
        right = FreeElement.generator(right)
    return left * right - right * left


def _exp_series(x: FreeElement, max_degree: int) -> FreeElement:
    """Truncated exponential series of an element with no constant term."""
    total = FreeElement.unit()
    power = FreeElement.unit()
    factorial = 1
    for k in range(1, max_degree + 1):
        power = power.mul_truncated(x, max_degree)
        factorial *= k
        total = total + power.scale(Fraction(1, factorial))
    return total


def splitting_taylor(max_degree: int) -> list:
    """Degree-j coefficients of exp(tP1)exp(tP2)exp(tP3) - exp(t(P1+P2+P3)).

    Returns a list indexed by degree j = 0..max_degree.  Degrees 0 and 1
    vanish by consistency; degree 2 is half the second-order defect C and
    degree 3 is the mixed commutator/word form of the leading error term.
    """
    if not 2 <= max_degree <= 6:
        raise ValueError("max_degree must lie in 2..6")
    p1, p2, p3 = (FreeElement.generator(i) for i in GENERATORS)
    product = _exp_series(p1, max_degree)
    product = product.mul_truncated(_exp_series(p2, max_degree), max_degree)
    product = product.mul_truncated(_exp_series(p3, max_degree), max_degree)
    defect = product - _exp_series(p1 + p2 + p3, max_degree)
    return [defect.homogeneous_part(j) for j in range(max_degree + 1)]


# --- closed forms of the low-order defect coefficients ---------------------


def second_order_defect() -> FreeElement:
    """C = [P1,P2] + [P1,P3] + [P2,P3], whose vanishing kills the t^2 term."""
    return (
        bracket(1, 2)
        + bracket(1, 3)
        + bracket(2, 3)
    )


def third_order_mixed_form() -> FreeElement:
    """Closed form of the degree-3 coefficient before any commutator reduction.

    A linear combination of nested commutators, commutator-times-word terms
    and the word pair P1 P2 P3 - P3 P2 P1; equals splitting_taylor(3)[3].
    """
    sixth = Fraction(1, 6)
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    e = (
        bracket(1, bracket(1, 2)).scale(third)
        + bracket(2, bracket(1, 2)).scale(sixth)
        + bracket(1, bracket(1, 3)).scale(third)
        + bracket(3, bracket(1, 3)).scale(sixth)
        + bracket(2, bracket(2, 3)).scale(third)
        + bracket(3, bracket(2, 3)).scale(sixth)
        + bracket(1, bracket(2, 3)).scale(sixth)
        - bracket(3, bracket(1, 2)).scale(sixth)
    )
    for pair, word in (((1, 2), 1), ((1, 2), 2), ((1, 3), 1), ((1, 3), 3), ((2, 3), 2), ((2, 3), 3)):
        e = e + bracket(*pair).mul_truncated(
            FreeElement.generator(word), None
        ).scale(half)
    e = e + FreeElement({(1, 2, 3): half, (3, 2, 1): -half})
    return e


def third_order_pre_jacobi_form() -> FreeElement:
    """Commutator form after eliminating word terms, before the Jacobi step."""
    sixth = Fraction(1, 6)
    return (
        -bracket(1, bracket(2, 3)).scale(sixth)
        - bracket(2, bracket(1, 2)).scale(sixth)
        + bracket(2, bracket(1, 3)).scale(sixth)
        - bracket(3, bracket(1, 2)).scale(Fraction(1, 3))
    )


def third_order_series_form() -> FreeElement:
    """Final series-derived closed form: -1/6 [P2,[P1,P2]] - 1/6 [P3,[P1,P2]]."""
    sixth = Fraction(1, 6)
    return (
        -bracket(2, bracket(1, 2)).scale(sixth)
        - bracket(3, bracket(1, 2)).scale(sixth)
    )


def third_order_integral_form() -> FreeElement:
    """Equivalent closed form built from the integral representation's blocks:
    1/6 ([P1,[P2,P3]] + [P2,[P2,P3]])."""
    sixth = Fraction(1, 6)
    return (
        bracket(1, bracket(2, 3)).scale(sixth)
        + bracket(2, bracket(2, 3)).scale(sixth)
    )


# --- membership in the condition ideal --------------------------------------

#: Leading word of C in deglex order with 3 > 2 > 1, rewritten as the rest of C.
_LEADING = (3, 2)


@dataclass(frozen=True)
class CosetReduction:
    """Outcome of reducing a homogeneous element modulo the condition ideal.

    residual is the normal form (zero iff the input lies in the ideal);
    combination holds the exact nonzero coefficients of the removed ideal
    part over the labels u*C*v, u and v words.
    """

    residual: FreeElement
    combination: dict

    @property
    def in_ideal(self) -> bool:
        return self.residual.is_zero()


def _leading_at(word: Word):
    """Position of the first factor P3P2 in word, None when there is none."""
    return next((i for i in range(len(word) - 1) if word[i : i + 2] == _LEADING), None)


def reduce_mod_condition(target: FreeElement) -> CosetReduction:
    """Reduce a homogeneous element of any degree modulo the ideal generated by C.

    Every factor P3P2 is rewritten as P1P2 - P2P1 + P1P3 - P3P1 + P2P3 until
    no word contains one.  P3P2 is the leading word of C in deglex order with
    3 > 2 > 1 and cannot overlap itself, so this one rule is a Groebner basis
    of the ideal: the normal form is unique and vanishes exactly on the ideal.
    Rewriting c * u P3P2 v removes c * u C v, so it adds -c to the
    coefficient of u*C*v; labels whose coefficients cancel are dropped.
    """
    if not target.is_homogeneous(target.max_degree()):
        raise ValueError("target must be homogeneous")
    tail = [(w, c) for w, c in second_order_defect()._terms.items() if w != _LEADING]
    work = dict(target._terms)
    combination = {}
    pending = [w for w in work if _leading_at(w) is not None]
    while pending:
        word = pending.pop()
        c = work.pop(word)
        if not c:
            continue
        i = _leading_at(word)
        u, v = word[:i], word[i + 2 :]
        label = "*".join([f"P{ell}" for ell in u] + ["C"] + [f"P{ell}" for ell in v])
        combination[label] = combination.get(label, 0) - c
        for w, d in tail:
            new = u + w + v
            if new in work:
                work[new] += c * d
            else:
                work[new] = c * d
                if _leading_at(new) is not None:
                    pending.append(new)
    combination = {label: c for label, c in combination.items() if c}
    return CosetReduction(residual=FreeElement._trusted(work), combination=combination)
