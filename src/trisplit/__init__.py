"""Verification and error analysis for three-component exponential operator splittings.

Subpackage map:

* ``lie_symbolic``   -- exact rational algebra over words in three noncommuting
  generators, with commutators expanded into words by ``bracket``; certifies
  the order conditions and the commutator form of the leading error term.
* ``matrix_core``    -- dense complex-matrix kernel (exponential, commutator,
  spectral norm, the second-order condition check and the double commutators,
  constraint solver, structured random operators).
* ``splitting``      -- splitting schemes as exponential products, error
  measurement and the closed-form leading error term.
* ``duhamel``        -- the integral error representation in forward flows
  only: inner integrals exact via block exponentials, or elementwise in the
  eigenbasis for skew-Hermitian triples; Gauss-Legendre only for the outer
  tau-integral; the commutator error bound for contractive flows.
* ``schrodinger``    -- periodic 1D split-step Fourier solver and the
  commutators [A,B]u and [B,[A,B]]u of the kinetic/potential pair.
* ``harness``        -- convergence studies, certification and verification
  campaigns, whose rows are flat named tuples in artifact column order.
* ``cli``            -- command-line front end.
"""

from trisplit.lie_symbolic import FreeElement, bracket
from trisplit.matrix_core import (
    check_second_order,
    commutator,
    expm,
    op_norm,
    random_skew_hermitian,
    solve_second_order_constraint,
)
from trisplit.splitting import (
    OperatorSet,
    SplittingScheme,
    apply_splitting,
    leading_error_E3,
    make_lie_trotter,
    make_strang,
    splitting_error,
)
from trisplit.duhamel import (
    QuadratureSpec,
    duhamel_error,
    error_bound,
    z_integral,
)

__all__ = [
    "FreeElement",
    "OperatorSet",
    "QuadratureSpec",
    "SplittingScheme",
    "apply_splitting",
    "bracket",
    "check_second_order",
    "commutator",
    "duhamel_error",
    "error_bound",
    "expm",
    "leading_error_E3",
    "make_lie_trotter",
    "make_strang",
    "op_norm",
    "random_skew_hermitian",
    "solve_second_order_constraint",
    "splitting_error",
    "z_integral",
]

__version__ = "0.1.0"
