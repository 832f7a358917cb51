"""Splitting schemes as products of exponentials, and their error.

A scheme is an ordered list of (operator reference, coefficient) pairs; applied
to an operator set it becomes S(t) = e^{t c_1 X_1} e^{t c_2 X_2} ... with the
leftmost factor acting *last* on a state vector.  The exact flow it
approximates is e^{tG} with G = sum_k c_k X_k.  Products and errors
broadcast over stacked operators and over t as ``triple_splitting_error``
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import isfinite
from typing import Mapping, Tuple

import numpy as np

from trisplit.matrix_core import (
    InputError,
    _commutator,
    _double_commutators,
    as_complex_matrix,
    as_complex_stack,
    as_times,
    expm,
)

_CANONICAL_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SplittingScheme:
    """Ordered exponential-product scheme: a name and its operands.  What the
    scheme is follows from the operands alone; the name is only a label."""

    name: str
    operands: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        operands = tuple((str(ref), float(c)) for ref, c in self.operands)
        if not operands:
            raise InputError("scheme needs at least one operand")
        for ref, c in operands:
            if not ref:
                raise InputError("empty operator reference")
            if not isfinite(c):
                raise InputError(f"non-finite coefficient for {ref!r}")
        object.__setattr__(self, "operands", operands)

    @property
    def references(self) -> Tuple[str, ...]:
        """Distinct operator references in first-appearance order."""
        seen = dict.fromkeys(ref for ref, _ in self.operands)
        return tuple(seen)

    @property
    def canonical(self) -> bool:
        """Per distinct reference the coefficients sum to 1, so the scheme is
        consistent with the flow of the plain sum of its operators."""
        sums = (sum(c for r, c in self.operands if r == ref) for ref in self.references)
        return all(abs(total - 1.0) <= _CANONICAL_SUM_TOL for total in sums)


@dataclass(frozen=True)
class OperatorSet:
    """Binds operator references to square complex matrices, or (k, n, n)
    stacks of them, all of one shape."""

    bindings: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        validated = {}
        shape = None
        for ref, m in dict(self.bindings).items():
            a = as_complex_stack(m)
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise ValueError(f"operator {ref!r} has shape {a.shape}, expected {shape}")
            validated[str(ref)] = a
        if not validated:
            raise ValueError("operator set is empty")
        object.__setattr__(self, "bindings", validated)

    def __getitem__(self, ref: str) -> np.ndarray:
        try:
            return self.bindings[ref]
        except KeyError:
            raise KeyError(f"unbound operator reference {ref!r}") from None


def pair_operator_set(a, b) -> OperatorSet:
    return OperatorSet({"A": a, "B": b})


def triple_operator_set(p1, p2, p3) -> OperatorSet:
    return OperatorSet({"P1": p1, "P2": p2, "P3": p3})


def make_lie_trotter() -> SplittingScheme:
    """First-order two-factor scheme e^{tA} e^{tB}."""
    return SplittingScheme("lie-trotter", (("A", 1.0), ("B", 1.0)))


def make_strang() -> SplittingScheme:
    """Symmetric second-order scheme e^{tA/2} e^{tB} e^{tA/2}."""
    return SplittingScheme("strang", (("A", 0.5), ("B", 1.0), ("A", 0.5)))


def make_triple() -> SplittingScheme:
    """Plain three-factor scheme e^{tP1} e^{tP2} e^{tP3}."""
    return SplittingScheme("triple", (("P1", 1.0), ("P2", 1.0), ("P3", 1.0)))


def generator_matrix(scheme: SplittingScheme, ops: OperatorSet) -> np.ndarray:
    """G = sum_k c_k X_k, the generator of the flow the scheme approximates."""
    return sum(c * ops[ref] for ref, c in scheme.operands)


def _exponentials(generators, coeffs, t) -> np.ndarray:
    """e^{t c X} for each generator X and its coefficient c, from one ``expm``
    of the stacked generators at c t: shape (len(generators), k, m, n, n), k
    and m as in ``triple_splitting_error``."""
    t = as_times(t)
    stack = np.stack(generators)
    n = stack.shape[-1]
    grid = np.repeat(np.multiply.outer(coeffs, t), stack[0].size // n**2, axis=0)
    return expm(stack.reshape(-1, n, n), grid).reshape(stack.shape[:-2] + t.shape + (n, n))


def _fold(factors) -> np.ndarray:
    """F_1 F_2 ... F_m over the leading axis of ``factors``: the one place S(t)
    is formed, with the leftmost factor acting last."""
    return reduce(np.matmul, factors)


def apply_splitting(scheme: SplittingScheme, ops: OperatorSet, t) -> np.ndarray:
    """S(t), broadcasting over stacked operators and m values of t like ``splitting_error``."""
    refs, coeffs = zip(*scheme.operands)
    return _fold(_exponentials([ops[r] for r in refs], coeffs, t))


def splitting_error(scheme: SplittingScheme, ops: OperatorSet, t) -> np.ndarray:
    """S(t) - e^{tG}: the fixed sign convention used throughout this package.
    One stacked ``expm`` gives the factors of S(t) and e^{tG} at every t, and
    ``_fold`` forms S(t) as ``apply_splitting`` does."""
    refs, coeffs = zip(*scheme.operands)
    generators = [ops[r] for r in refs] + [generator_matrix(scheme, ops)]
    *factors, exact = _exponentials(generators, coeffs + (1.0,), t)
    return _fold(factors) - exact


def triple_splitting_error(p1, p2, p3, t) -> np.ndarray:
    """e^{tP1} e^{tP2} e^{tP3} - e^{t(P1+P2+P3)}.

    Broadcasting: P1, P2 and P3 are n x n matrices or (k, n, n) stacks of
    one shape, and t is a scalar or a 1-d array of m values; the result has
    shape (k, m, n, n), without the k axis for matrices and without the m
    axis for a scalar t, and entry [i, j] is the i-th triple's error at the
    j-th t.  Non-finite entries or t, non-square or mismatched shapes and an
    empty or 2-d t raise ValueError.
    """
    return splitting_error(make_triple(), triple_operator_set(p1, p2, p3), t)


#: Closed forms of the cubic leading error coefficient of e^{tP1}e^{tP2}e^{tP3},
#: valid once the second-order condition holds.  "series" is the form the
#: Taylor-expansion route produces; "integral" the one the integral error
#: representation produces.  They differ by an element of the ideal generated
#: by the condition, so they agree on condition-satisfying operator triples.
E3_FORMS = ("series", "integral")


def leading_error_E3(p1, p2, p3, form: str = "series") -> np.ndarray:
    p1 = as_complex_matrix(p1)
    p2 = as_complex_matrix(p2)
    p3 = as_complex_matrix(p3)
    if form == "series":
        inner = _commutator(p1, p2)
        return -_commutator(p2, inner) / 6.0 - _commutator(p3, inner) / 6.0
    if form == "integral":
        _, k1, k2 = _double_commutators(p1, p2, p3)
        return (k1 + k2) / 6.0
    raise ValueError(f"unknown form {form!r}; expected one of {E3_FORMS}")


# --- scheme text files -------------------------------------------------------
#
# Line-oriented: "name <label>", then one "<ref> <coeff>" line per operand,
# in application order.  Coefficients accept "p/q" or any float literal.  '#'
# starts a comment.  Whether a scheme is canonical is computed from its
# operands, never declared.


def parse_scheme(text: str) -> SplittingScheme:
    name = None
    operands = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "name":
            name = value
        elif key == "canonical":
            raise InputError("scheme files take no canonical line; it is computed from the operands")
        else:
            if not value:
                raise InputError(f"operand line {raw!r} is missing a coefficient")
            operands.append((key, parse_coefficient(value)))
    if name is None:
        raise InputError("scheme file has no name line")
    return SplittingScheme(name, tuple(operands))


def parse_coefficient(token: str) -> float:
    try:
        return float(Fraction(token)) if "/" in token else float(token)
    except ZeroDivisionError:
        raise InputError(f"coefficient {token!r} divides by zero") from None
    except ValueError:
        raise InputError(f"coefficient {token!r} is not a number") from None


def load_scheme(path) -> SplittingScheme:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot decode scheme file {str(path)!r}: {exc}") from None
    return parse_scheme(text)


def scheme_by_name(name: str) -> SplittingScheme:
    """Look up a built-in scheme: one over A and B, which a study can run."""
    builtin = {"lie-trotter": make_lie_trotter, "strang": make_strang}
    try:
        return builtin[name]()
    except KeyError:
        raise InputError(f"unknown scheme {name!r}; built-ins: {sorted(builtin)}") from None
