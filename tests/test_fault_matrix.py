"""A committed fault matrix: each planted fault must fail a shipping check.

A fault replaces one module attribute through ``monkeypatch``, with no edit to
a source file, and the five subcommands then run in process at their shipped
defaults.  A fault is killed when some subcommand exits 1 or raises out of
``main``, which the process reports with its traceback and exit 1.  A killed
fault names the subcommands that kill it, and they must keep killing it.  A fault
that every subcommand passes is a strict xfail whose reason names the ROADMAP
item that will kill it, so the day a check starts killing it the xfail turns
into a failure and its entry must move to the killed rows.
"""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from trisplit import duhamel, harness, matrix_core, splitting
from trisplit.cli import EXIT_FAIL, EXIT_PASS, main

COMMANDS = ("certify-algebra", "convergence", "verify-duhamel", "verify-bound", "schrodinger-bench")
MATRIX_COMMANDS = ("convergence", "verify-duhamel", "verify-bound")


def reversed_fold(monkeypatch):
    # S(t) = F_m ... F_1: every order holds, the leading error flips sign
    monkeypatch.setattr(splitting, "_fold", lambda factors: reduce(np.matmul, factors[::-1]))


def doubled_bound(monkeypatch):
    original = harness.error_bound
    monkeypatch.setattr(harness, "error_bound", lambda *args: 2 * original(*args))


def v2_weight_swapped(monkeypatch):
    # V2 = VL(tau; P2, I, P2, K2, P2): the weight tau - r in place of r
    def kernel(tau, p1, p2, k1, k2, e1, e2):
        eye = np.eye(p1.shape[0], dtype=np.complex128)
        v1 = duhamel._van_loan(tau, p1, eye, p1, k1, p1)
        return v1 @ e2 + e1 @ duhamel._van_loan(tau, p2, eye, p2, k2, p2)

    monkeypatch.setattr(duhamel, "_forward_kernel", kernel)


def phase_flipped(monkeypatch):
    # every wave run, the reference's included, takes e^{-ichV}
    original = harness.evolve_runs

    def flipped(u, v, horizon, steps, scheme):
        minus_v = replace(v, samples=-v.samples, deriv1=-v.deriv1, deriv2=-v.deriv2)
        return original(u, minus_v, horizon, steps, scheme)

    monkeypatch.setattr(harness, "evolve_runs", flipped)


def expm_input_reshaped(monkeypatch):
    # every stack of generators becomes one matrix: numpy cannot reshape it
    original = splitting.expm

    def reshaped(m, t=1.0):
        return original(np.reshape(m, (1, *m.shape[-2:])), t)

    monkeypatch.setattr(splitting, "expm", reshaped)


def hermitian_draw(monkeypatch):
    # i (X - X*)/2 is Hermitian: the constraint solver refuses the pair
    monkeypatch.setattr(harness, "_random_skew", lambda *a: 1j * matrix_core._random_skew(*a))


def draw_axis_dropped(monkeypatch):
    # one matrix per seed where each seed draws a pair
    monkeypatch.setattr(harness, "_random_skew", lambda *a: matrix_core._random_skew(*a)[:, 0])


def survivor(fault, name, items):
    mark = pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"every subcommand passes it; ROADMAP {items}"
    )
    return pytest.param(fault, set(), id=name, marks=mark)


def status(command):
    """A subcommand's exit status at its shipped defaults; an exception that
    escapes ``main`` ends the process with its traceback and exit 1."""
    try:
        return main([command])
    except Exception:
        return EXIT_FAIL


def statuses():
    return {command: status(command) for command in COMMANDS}


def test_clean_tree_passes_every_subcommand():
    assert statuses() == dict.fromkeys(COMMANDS, EXIT_PASS)


@pytest.mark.parametrize(
    "plant, killers",
    [
        pytest.param(reversed_fold, {"verify-duhamel"}, id="reversed-fold"),
        pytest.param(expm_input_reshaped, set(MATRIX_COMMANDS), id="expm-input-reshaped"),
        pytest.param(hermitian_draw, {"verify-duhamel", "verify-bound"}, id="hermitian-draw"),
        pytest.param(draw_axis_dropped, set(MATRIX_COMMANDS), id="draw-axis-dropped"),
        survivor(doubled_bound, "error-bound-x2", "item 5"),
        survivor(v2_weight_swapped, "block-path-v2-weight", "items 5 and 11"),
        survivor(phase_flipped, "potential-phase-flip", "items 3 and 12"),
    ],
)
def test_planted_fault_fails_a_shipping_check(monkeypatch, plant, killers):
    plant(monkeypatch)
    failing = {command for command, code in statuses().items() if code == EXIT_FAIL}
    assert failing, "every subcommand passes the fault"
    assert killers <= failing
