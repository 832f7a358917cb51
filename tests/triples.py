"""Constrained triples for the tests that need a P3 solving the second-order condition."""

from trisplit.matrix_core import random_skew_hermitian, solve_second_order_constraint


def constrained_triple(dim, seed):
    p1 = random_skew_hermitian(dim, seed=seed)
    p2 = random_skew_hermitian(dim, seed=seed + 1000)
    return p1, p2, solve_second_order_constraint(p1, p2)
