"""A committed fault matrix: each planted fault must fail a shipping check.

A fault replaces one module attribute through ``monkeypatch``, with no edit to
a source file, and the five subcommands then run in process at their shipped
defaults, and on both ``bench/configs`` files, read in place.  A fault is
killed when some run exits 1 or raises out of ``main``, which the process
reports with its traceback and exit 1.  A killed fault names the runs that kill
it and how they end, exit 1 from a verdict or a raise, and they must keep
killing it that way: a plant that breaks itself, such as a wrapper that no
longer fits what it wraps, raises, and so fails a row that ends in exit 1.  A
fault that no run fails is a strict xfail whose reason says how the runs end
(all exit 0 unless it says otherwise) and names the ROADMAP item that will kill
it, so the day a check starts killing it the xfail turns into a failure and its
entry must move to the killed rows.
"""

from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from trisplit import duhamel, harness, matrix_core, schrodinger, splitting
from trisplit.cli import EXIT_FAIL, EXIT_PASS, main

COMMANDS = ("certify-algebra", "convergence", "verify-duhamel", "verify-bound", "schrodinger-bench")
MATRIX_COMMANDS = ("convergence", "verify-duhamel", "verify-bound")
CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"

#: each run's argv by its label: a subcommand's name at its defaults, or the
#: subcommand and the bench config it reads
RUNS = {command: [command] for command in COMMANDS} | {
    f"{command} {name}": [command, "--config", str(CONFIGS / name)]
    for command, name in [
        ("convergence", "wave-convergence.ini"),
        ("schrodinger-bench", "wave-bench.ini"),
    ]
}

#: the runs that solve the wave problem
WAVE_RUNS = ("schrodinger-bench", "convergence wave-convergence.ini", "schrodinger-bench wave-bench.ini")


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

    def flipped(u, v, horizon, steps, *schemes):
        minus_v = replace(v, samples=-v.samples, deriv1=-v.deriv1, deriv2=-v.deriv2)
        return original(u, minus_v, horizon, steps, *schemes)

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


def h1_reference(monkeypatch):
    # the reference 2 S_n - S_{n/2} from the two finest Strang runs cancels only h^2
    original = harness.wave_reference

    def first_order(study, schemes=()):
        ref = original(study, schemes)
        strang = ref.runs[splitting.make_strang().operands]
        fine, mid = strang[-1], strang[-2]
        state = schrodinger.WaveFunction(2 * fine.samples - mid.samples, fine.grid)
        return ref._replace(state=state)

    monkeypatch.setattr(harness, "wave_reference", first_order)


def wavenumbers_scaled(monkeypatch):
    # every kinetic multiplier and spectral derivative sees k 0.1 % too large
    true = schrodinger.Grid1D.wavenumbers
    scaled = property(lambda grid: 1.001 * true.fget(grid))
    monkeypatch.setattr(schrodinger.Grid1D, "wavenumbers", scaled)


def grid_dx_scaled(monkeypatch):
    # dx = 2 L N, the / of 2 L / N turned into *
    monkeypatch.setattr(schrodinger.Grid1D, "dx", property(lambda g: 2.0 * g.half_width * g.points))


#: the status of a run that raises out of ``main``
RAISED = "raised"


def killed(fault, name, killers, ending):
    return pytest.param(fault, killers, ending, id=name)


def survivor(fault, name, items, outcome="every run passes it"):
    mark = pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"{outcome}; ROADMAP {items}")
    return pytest.param(fault, set(), None, id=name, marks=mark)


def status(argv):
    """A run's exit status, or ``RAISED`` if an exception escapes ``main``:
    the process then ends with its traceback and exit 1."""
    try:
        return main(argv)
    except Exception:
        return RAISED


def statuses():
    return {label: status(argv) for label, argv in RUNS.items()}


def test_clean_tree_passes_every_subcommand():
    assert statuses() == dict.fromkeys(RUNS, EXIT_PASS)


@pytest.mark.parametrize(
    "plant, killers, ending",
    [
        killed(reversed_fold, "reversed-fold", {"verify-duhamel"}, EXIT_FAIL),
        killed(expm_input_reshaped, "expm-input-reshaped", set(MATRIX_COMMANDS), RAISED),
        killed(hermitian_draw, "hermitian-draw", {"verify-duhamel", "verify-bound"}, RAISED),
        killed(draw_axis_dropped, "draw-axis-dropped", set(MATRIX_COMMANDS), RAISED),
        killed(h1_reference, "h1-reference", set(WAVE_RUNS), EXIT_FAIL),
        survivor(doubled_bound, "error-bound-x2", "item 5"),
        survivor(v2_weight_swapped, "block-path-v2-weight", "items 5 and 11"),
        survivor(phase_flipped, "potential-phase-flip", "items 3 and 12"),
        survivor(wavenumbers_scaled, "wavenumbers-scaled", "items 3 and 19"),
        survivor(
            grid_dx_scaled, "grid-dx-scaled", "item 17",
            "the wave runs end DEGENERATE in exit 2 and no run exits 1",
        ),
    ],
)
def test_planted_fault_fails_a_shipping_check(monkeypatch, plant, killers, ending):
    plant(monkeypatch)
    ends = statuses()
    assert {EXIT_FAIL, RAISED} & set(ends.values()), "every run passes the fault"
    assert {label: ends[label] for label in killers} == dict.fromkeys(killers, ending)
