"""Exact algebra over words in three noncommuting generators P1, P2, P3.

Everything here runs on arbitrary-precision rationals (`fractions.Fraction`);
no floating point enters this module.  The engine expands commutators into
the free associative algebra, computes the Taylor coefficients of the
defect

    exp(t*P1) exp(t*P2) exp(t*P3) - exp(t*(P1 + P2 + P3)),

and decides membership of degree-3 elements in the two-sided ideal generated
by the second-order defect

    C = [P1,P2] + [P1,P3] + [P2,P3],

which is how the commutator closed forms of the leading error term are
certified.
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
    def zero(cls) -> "FreeElement":
        return cls()

    @classmethod
    def unit(cls) -> "FreeElement":
        return cls({(): Fraction(1)})

    @classmethod
    def generator(cls, index: int) -> "FreeElement":
        return cls({(index,): Fraction(1)})

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
        return FreeElement({w: c for w, c in self._terms.items() if len(w) == degree})

    def max_degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        merged = dict(self._terms)
        for w, c in other._terms.items():
            merged[w] = merged.get(w, Fraction(0)) + c
        return FreeElement(merged)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def __neg__(self) -> "FreeElement":
        return FreeElement({w: -c for w, c in self._terms.items()})

    def scale(self, scalar) -> "FreeElement":
        scalar = Fraction(scalar)
        return FreeElement({w: scalar * c for w, c in self._terms.items()})

    def __rmul__(self, scalar) -> "FreeElement":
        return self.scale(scalar)

    def __mul__(self, other) -> "FreeElement":
        if not isinstance(other, FreeElement):
            return self.scale(other)
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
        return FreeElement(out)

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
    if not x.is_zero() and 0 in x.degrees():
        raise ValueError("exponential series expects no constant term")
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


# --- membership in the degree-3 slice of the condition ideal ---------------

IDEAL_GENERATOR_LABELS = ("C*P1", "C*P2", "C*P3", "P1*C", "P2*C", "P3*C")


def _degree3_words() -> list:
    return [(i, j, k) for i in GENERATORS for j in GENERATORS for k in GENERATORS]


def _ideal_generators() -> list:
    c = second_order_defect()
    gens = []
    for i in GENERATORS:
        gens.append(c.mul_truncated(FreeElement.generator(i), None))
    for i in GENERATORS:
        gens.append(FreeElement.generator(i).mul_truncated(c, None))
    return gens


@dataclass(frozen=True)
class CosetReduction:
    """Outcome of reducing a degree-3 element modulo the condition ideal.

    residual is the canonical coset representative (zero iff the input lies
    in the ideal); combination holds the exact coefficients of the removed
    ideal part over the six generators C*Pj and Pj*C.
    """

    residual: FreeElement
    combination: dict

    @property
    def in_ideal(self) -> bool:
        return self.residual.is_zero()


def _rref(rows: list) -> tuple:
    """Reduced row echelon form over Fractions.

    Returns (rref_rows, transform, pivot_columns) with
    rref_rows[i] == sum_j transform[i][j] * rows[j], zero rows dropped.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    work = [list(r) for r in rows]
    trans = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = []
    row = 0
    for col in range(width):
        pivot = next((r for r in range(row, n) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        trans[row], trans[pivot] = trans[pivot], trans[row]
        inv = 1 / work[row][col]
        work[row] = [v * inv for v in work[row]]
        trans[row] = [v * inv for v in trans[row]]
        for r in range(n):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[row])]
                trans[r] = [v - factor * p for v, p in zip(trans[r], trans[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    return work[:row], trans[:row], pivots


def reduce_mod_condition(target: FreeElement) -> CosetReduction:
    """Reduce a homogeneous degree-3 element modulo the ideal generated by C.

    The degree-3 slice of the two-sided ideal is spanned by the six elements
    C*Pj and Pj*C; membership is decided by exact linear algebra over the 27
    degree-3 words.  The residual is the canonical representative left after
    eliminating against the reduced row echelon basis of that span.
    """
    if not target.is_homogeneous(3):
        raise ValueError("target must be homogeneous of degree 3")
    words = _degree3_words()
    gens = _ideal_generators()
    rows = [[g.coeff(w) for w in words] for g in gens]
    rref_rows, transform, pivots = _rref(rows)

    vec = [target.coeff(w) for w in words]
    combo = [Fraction(0)] * len(gens)
    for row, pivot in zip(range(len(rref_rows)), pivots):
        factor = vec[pivot]
        if factor == 0:
            continue
        vec = [v - factor * p for v, p in zip(vec, rref_rows[row])]
        for j in range(len(gens)):
            combo[j] += factor * transform[row][j]

    residual = FreeElement(
        {w: c for w, c in zip(words, vec) if c != 0}
    )
    combination = dict(zip(IDEAL_GENERATOR_LABELS, combo))
    return CosetReduction(residual=residual, combination=combination)

