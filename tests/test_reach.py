"""A reach ratchet: every function a ``def`` in ``src/`` defines is called by
a shipping run, or is listed in ``UNREACHED`` with its reason.

Nine runs go in process under ``sys.setprofile``: the five subcommands at
their defaults, four of them with ``--out``, ``certify-algebra
--inject-fault``, both ``bench/configs`` files and ``convergence --scheme``
with a file of Strang's operands.  The functions none of them calls must be
exactly the listed ones: a new unreached function fails the test, and so does
an entry whose function has gained a caller or is gone, so the list only
shrinks with the code.  Lambdas and comprehensions are not counted.
"""

import inspect
import sys
from pathlib import Path
from time import perf_counter

import trisplit
from test_fault_matrix import CONFIGS
from trisplit.cli import EXIT_FAIL, EXIT_PASS, main

SRC = Path(trisplit.__file__).resolve().parent

#: the seconds the nine profiled runs may take
BUDGET_S = 1.0

#: the reasons a function may be unreached: a test or an acceptance criterion
#: is its caller; it is public API that no shipping run needs; ROADMAP item 8
#: settled that it stays; a ROADMAP item will give it a caller; or only a failing
#: run reaches it
REASONS = ("test oracle", "library API", "settled", "ROADMAP item", "failure path")

BLOCK_PATH = "ROADMAP item 20: the block path, which no shipped triple takes"

#: each function no shipping run calls, by module and qualified name, with its reason
UNREACHED = {
    "duhamel._forward_kernel": BLOCK_PATH,
    "duhamel._van_loan": BLOCK_PATH,
    "duhamel.duhamel_error.levels": BLOCK_PATH,
    "duhamel.z_integral": "test oracle: acceptance criterion 6",
    "harness.StudyResult.passed": "library API",
    "harness._commutator_note": "failure path: errors at the floor; the fault matrix's grid-dx-scaled row",
    "harness.sample_constrained_triple": "settled: the k = 1 case of the campaign draw",
    "lie_symbolic.CosetReduction.in_ideal": "library API",
    "lie_symbolic.FreeElement.__eq__": "library API",
    "lie_symbolic.FreeElement.__hash__": "library API",
    "lie_symbolic.FreeElement.__repr__": "library API",
    "lie_symbolic.FreeElement.coeff": "library API",
    "lie_symbolic.FreeElement.terms": "library API",
    "lie_symbolic.FreeElement.zero": "library API",
    "matrix_core._Located.__init__": "failure path: a stack fault; the fault matrix's hermitian-draw row",
    "matrix_core.as_complex_matrix": "library API: one matrix, where every shipping run passes stacks",
    "matrix_core.check_second_order": "settled: a validating twin of _second_order",
    "matrix_core.commutator": "settled: a validating twin of _commutator",
    "matrix_core.is_skew_hermitian": "settled: a validating twin of _is_skew",
    "matrix_core.random_skew_hermitian": "settled: the one-matrix case of _random_skew",
    "schrodinger.Potential.cosine": "library API: a config may name it, and no shipped one does",
    "schrodinger.Potential.linear": "library API: a config may name it, and no shipped one does",
    "schrodinger.commutator_apply": "ROADMAP items 4, 12 and 21; acceptance criterion 8",
    "schrodinger.double_commutator_apply": "ROADMAP items 4, 12 and 21; acceptance criterion 8",
    "schrodinger.evolve": "settled: bench/ calls it",
    "schrodinger.free_gaussian_evolution": "test oracle: acceptance criterion 7",
    "schrodinger.spectral_derivative": "test oracle: acceptance criteria 7 and 8",
    "splitting.leading_error_E3": "ROADMAP items 5, 14 and 21; acceptance criterion 3",
}


def defined_functions():
    """(file, first line, name) of every function a ``def`` in ``src/``
    defines, mapped to its module-qualified name."""
    functions = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                functions[(const.co_filename, const.co_firstlineno, const.co_name)] = name
            walk(const, name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return functions


def clear_caches():
    # a cached function that an earlier test called would otherwise look unreached
    for module in [m for name, m in sys.modules.items() if name.startswith("trisplit.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "") == module.__name__:
                value.cache_clear()


def profiled_runs(tmp_path):
    """The code objects the nine runs call, their exit statuses and the seconds they took."""
    scheme = tmp_path / "strang.scheme"
    scheme.write_text("name strang\nA 1/2\nB 1\nA 1/2\n")
    out = str(tmp_path / "out")
    runs = [
        ["certify-algebra", "--out", out],
        ["convergence", "--out", out],
        ["verify-duhamel", "--out", out, "--format", "json"],
        ["verify-bound", "--out", out],
        ["schrodinger-bench"],
        ["certify-algebra", "--inject-fault"],
        ["convergence", "--config", str(CONFIGS / "wave-convergence.ini")],
        ["schrodinger-bench", "--config", str(CONFIGS / "wave-bench.ini")],
        ["convergence", "--scheme", str(scheme)],
    ]
    called = set()
    clear_caches()
    start = perf_counter()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code))
    try:
        statuses = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    return called, statuses, perf_counter() - start


def test_every_unreached_function_is_listed_with_its_reason(tmp_path, capsys):
    called, statuses, seconds = profiled_runs(tmp_path)
    capsys.readouterr()
    assert statuses == [EXIT_PASS] * 5 + [EXIT_FAIL] + [EXIT_PASS] * 3
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in called}
    unreached = {name for key, name in defined_functions().items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "no shipping run calls these: list their reasons"
    assert sorted(UNREACHED.keys() - unreached) == [], "these are called or gone: delete their entries"
    assert all(reason.startswith(REASONS) for reason in UNREACHED.values())
    assert seconds < BUDGET_S
