import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from counting import count_evolve_steps
from test_fault_matrix import CONFIGS, grid_dx_scaled
from trisplit import cli, harness
from trisplit.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, main

COMMANDS = ["certify-algebra", "convergence", "verify-duhamel", "verify-bound", "schrodinger-bench"]

SMALL_CONFIG = """\
[config]
version = 1

[convergence]
problem = matrix
schemes = lie-trotter strang
steps = 2^-4 2^-5 2^-6 2^-7
instances = 1
dim = 6
seed = 97

[verify-duhamel]
count = 2
dim = 4
t_values = 0.25 0.5

[verify-bound]
count = 5
dim = 4
t_values = 0.1 0.5

[schrodinger-bench]
points = 64
half_width = 8
steps = 2^-4 2^-5 2^-6 2^-7
horizon = 1/2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


CERTIFICATION_CHECKS = (
    "consistency: degree-0 and degree-1 coefficients vanish",
    "degree-2 coefficient equals half the commutator-sum condition",
    "degree-3 coefficient matches its direct word-by-word expansion",
    "degree-3 coefficient reduces to the nested-commutator form modulo the condition ideal",
    "Jacobi identity",
    "nested-commutator form and integral-representation form agree modulo the condition ideal",
    "intermediate four-term form shares the canonical coset representative",
)


def test_certify_algebra_passes(capsys):
    assert main(["certify-algebra"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out
    assert out.splitlines() == [f"PASS {name}" for name in CERTIFICATION_CHECKS]


def test_certify_algebra_fault_injection(capsys):
    assert main(["certify-algebra", "--inject-fault"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL" in out
    # the one failing check is followed by the offending element, the fault's
    # normal form (1/30)[P2,[P1,P2]]
    passes = [f"PASS {name}" for name in CERTIFICATION_CHECKS]
    failure = [
        f"FAIL {CERTIFICATION_CHECKS[3]}",
        "offending element:",
        "-1/30 * P1 P2 P2",
        "1/15 * P2 P1 P2",
        "-1/30 * P2 P2 P1",
    ]
    assert out == "\n".join(passes[:3] + failure + passes[4:]) + "\n"


def test_certify_algebra_artifact(tmp_path):
    out_dir = tmp_path / "artifacts"
    code = main(["certify-algebra", "--out", str(out_dir), "--format", "json"])
    assert code == EXIT_PASS
    payload = json.loads((out_dir / "certify_algebra.json").read_text())
    assert len(payload) == 7
    assert all(entry["passed"] for entry in payload)


def test_convergence_run_and_artifact(config_path, tmp_path, capsys):
    out_dir = tmp_path / "conv"
    code = main(["convergence", "--config", config_path, "--out", str(out_dir)])
    assert code == EXIT_PASS
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 2  # one instance per scheme
    text = (out_dir / "convergence.csv").read_text()
    header = text.splitlines()[0]
    assert header == "scheme,seed,fitted_order,fit_r2,verdict,notes"
    assert len(text.splitlines()) == 3


def test_wave_convergence_runs_once_per_scheme(tmp_path, capsys):
    # a wave study draws nothing from its seed, so instances count matrix studies only
    path = tmp_path / "wave.ini"
    path.write_text(
        "[config]\nversion = 1\n\n[convergence]\nproblem = schrodinger\n"
        "instances = 3\npoints = 64\nhalf_width = 8\nsteps = 2^-4 2^-5 2^-6 2^-7\n"
        "horizon = 1/2\nseed = 11\n"
    )
    out_dir = tmp_path / "wave"
    assert main(["convergence", "--config", str(path), "--out", str(out_dir)]) == EXIT_PASS
    assert capsys.readouterr().out.count("PASS") == 2
    lines = (out_dir / "convergence.csv").read_text().splitlines()
    rows = [line.split(",")[:2] for line in lines[1:]]
    assert rows == [["lie-trotter", "11"], ["strang", "11"]]


@pytest.mark.parametrize("problem", ["matrix", "schrodinger"])
def test_unknown_scheme_exits_before_any_study_runs(tmp_path, capsys, problem):
    # a known scheme ahead of the unknown one must not print its verdict first;
    # triple names a scheme over P1, P2, P3, which no study runs
    for name in ("bogus", "triple"):
        path = tmp_path / f"{name}.ini"
        path.write_text(
            f"[config]\nversion = 1\n\n[convergence]\nproblem = {problem}\n"
            f"schemes = strang {name}\ninstances = 2\n"
        )
        out_dir = tmp_path / "out"
        argv = ["convergence", "--config", str(path), "--out", str(out_dir)]
        assert main(argv) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown scheme '{name}'" in captured.err
        assert not out_dir.exists()


def test_wave_convergence_takes_one_reference_per_call(tmp_path, monkeypatch, capsys):
    # both schemes at 256 points and the default steps 2^-4 .. 2^-9: the one
    # Strang reference is built from the four finest of Strang's runs
    # (Romberg-extrapolated), and both schemes' rows are the runs of the
    # reference's one call, which adds no step to them
    path = tmp_path / "wave.ini"
    path.write_text("[config]\nversion = 1\n\n[convergence]\nproblem = schrodinger\npoints = 256\n")
    calls = count_evolve_steps(monkeypatch)
    assert main(["convergence", "--config", str(path)]) == EXIT_PASS
    assert calls == [(512, 256, 128, 64, 32, 16)]


def test_schrodinger_bench_keeps_no_reference_between_calls(monkeypatch, capsys):
    calls = count_evolve_steps(monkeypatch)
    for _ in range(2):
        calls.clear()
        assert main(["schrodinger-bench"]) == EXIT_PASS
        assert calls == [(512, 256, 128, 64, 32, 16)]


@pytest.mark.parametrize("schemes", ["strang lie-trotter", "lie-trotter strang"])
def test_wave_convergence_runs_strang_in_the_reference_call(
    tmp_path, monkeypatch, capsys, schemes
):
    # whichever scheme is listed first, the reference's one call runs both,
    # and the reference is built from Strang's runs
    path = tmp_path / "wave.ini"
    path.write_text(
        "[config]\nversion = 1\n\n[convergence]\nproblem = schrodinger\n"
        f"points = 256\nschemes = {schemes}\n"
    )
    calls = count_evolve_steps(monkeypatch)
    assert main(["convergence", "--config", str(path)]) == EXIT_PASS
    assert calls == [(512, 256, 128, 64, 32, 16)]
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == schemes.split()


def test_lie_trotter_bench_runs_in_the_reference_call(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bench.ini"
    path.write_text("[config]\nversion = 1\n\n[schrodinger-bench]\nscheme = lie-trotter\n")
    calls = count_evolve_steps(monkeypatch)
    assert main(["schrodinger-bench", "--config", str(path)]) == EXIT_PASS
    assert calls == [(512, 256, 128, 64, 32, 16)]


@pytest.mark.parametrize(
    "command, section",
    [
        ("schrodinger-bench", "scheme = strang"),
        ("schrodinger-bench", "scheme = lie-trotter"),
        ("convergence", "problem = schrodinger\nschemes = lie-trotter strang"),
    ],
    ids=["bench-strang", "bench-lie-trotter", "convergence"],
)
def test_no_wave_run_is_longer_than_the_studys_finest(tmp_path, monkeypatch, capsys, command, section):
    # steps 2^-3 .. 2^-8 over 1/2: the finest run takes 128 steps, and the
    # reference needs none longer
    path = tmp_path / "wave.ini"
    path.write_text(
        f"[config]\nversion = 1\n\n[{command}]\n{section}\npoints = 64\nhalf_width = 8\n"
        "steps = 2^-3 2^-4 2^-5 2^-6 2^-7 2^-8\nhorizon = 1/2\n"
    )
    calls = count_evolve_steps(monkeypatch)
    assert main([command, "--config", str(path)]) == EXIT_PASS
    assert calls and max(map(max, calls)) == 128


def wave_config(tmp_path, command):
    path = tmp_path / "wave.ini"
    problem = "problem = schrodinger\n" if command == "convergence" else ""
    path.write_text(
        f"[config]\nversion = 1\n\n[{command}]\n{problem}points = 64\nhalf_width = 8\n"
        "steps = 2^-4 2^-5 2^-6 2^-7\nhorizon = 1/2\n"
    )
    return str(path)


def record_results(monkeypatch):
    # the result of every run_convergence call, from run_studies or run_schrodinger_benchmark
    results = []
    original = harness.run_convergence

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "run_convergence", recorded)
    return results


def held_to(monkeypatch, argv):
    # with no window around it, every study fails and its note names the
    # order it is held to
    monkeypatch.setattr(harness, "ORDER_WINDOW", 0.0)
    results = record_results(monkeypatch)
    assert main(argv) == EXIT_FAIL
    return {(r.metadata["scheme"], r.notes.partition(" outside ")[2]) for r in results}


@pytest.mark.parametrize("command", ["schrodinger-bench", "convergence"])
def test_flagless_file_with_strangs_operands_takes_the_references_runs(
    tmp_path, monkeypatch, capsys, command
):
    # consistency is computed, so a Strang file declares nothing; whatever its
    # name, its rows are the reference's runs and it is held to order 2
    scheme = tmp_path / "sym.scheme"
    scheme.write_text("name sym\nA 1/2\nB 1\nA 1/2\n")
    calls = count_evolve_steps(monkeypatch)
    argv = [command, "--config", wave_config(tmp_path, command), "--scheme", str(scheme)]
    assert main(argv) == EXIT_PASS
    assert calls == [(64, 32, 16, 8)]
    assert held_to(monkeypatch, argv) == {("sym", "2.0 +/- 0.0")}


@pytest.mark.parametrize("command", ["schrodinger-bench", "convergence"])
def test_flagless_lie_trotter_file_is_held_to_order_1(
    config_path, tmp_path, monkeypatch, capsys, command
):
    # Lie-Trotter's operands under another name: the wave route runs it, and
    # both routes hold it to the built-in's order
    scheme = tmp_path / "my-lt.scheme"
    scheme.write_text("name my-lt\nA 1\nB 1\n")
    config = wave_config(tmp_path, command) if command == "schrodinger-bench" else config_path
    argv = [command, "--config", config, "--scheme", str(scheme)]
    assert main(argv) == EXIT_PASS
    assert held_to(monkeypatch, argv) == {("my-lt", "1.0 +/- 0.0")}


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "name strang\ncanonical 1\nA 1/2\nB 1\nA 1/2\n",
            "scheme files take no canonical line; it is computed from the operands",
        ),
        ("name x\nA 1/0\nB 1\n", "coefficient '1/0' divides by zero"),
    ],
    ids=["canonical-line", "zero-denominator"],
)
def test_unusable_scheme_file_exits_inconclusive(config_path, tmp_path, capsys, text, message):
    scheme = tmp_path / "bad.scheme"
    scheme.write_text(text)
    argv = ["convergence", "--config", config_path, "--scheme", str(scheme)]
    assert main(argv) == EXIT_INCONCLUSIVE
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_artifacts_are_reproducible(config_path, tmp_path, capsys, command, fmt):
    # two runs at one seed print the same report and write the same bytes
    runs = []
    for d in (tmp_path / "run1", tmp_path / "run2"):
        argv = [command, "--config", config_path, "--seed", "11", "--out", str(d), "--format", fmt]
        assert main(argv) == EXIT_PASS
        artifact = d / f"{command.replace('-', '_')}.{fmt}"
        runs.append((capsys.readouterr().out, artifact.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257])
def test_json_artifact_is_one_dump_of_its_rows(tmp_path, count):
    # the bytes are those of one json.dumps of every row
    fields = ("instance", "t", "measured", "violated", "notes")
    rows = [(i, 0.1 * i, 1.0 / (i + 1), i % 3 == 0, f"row {i}") for i in range(count)]
    path = cli._write_artifact(str(tmp_path), "rows", fields, iter(rows), "json")
    want = json.dumps([dict(zip(fields, row)) for row in rows], sort_keys=True) + "\n"
    assert Path(path).read_text() == want


def test_convergence_seed_flag_changes_rows(config_path, tmp_path):
    dirs = [tmp_path / "s1", tmp_path / "s2"]
    main(["convergence", "--config", config_path, "--out", str(dirs[0])])
    main(["convergence", "--config", config_path, "--seed", "5", "--out", str(dirs[1])])
    a = (dirs[0] / "convergence.csv").read_text()
    b = (dirs[1] / "convergence.csv").read_text()
    assert a != b


def test_convergence_with_scheme_file(config_path, tmp_path, capsys):
    scheme_path = tmp_path / "sym.scheme"
    scheme_path.write_text("name strang\nA 1/2\nB 1\nA 1/2\n")
    code = main(["convergence", "--config", config_path, "--scheme", str(scheme_path)])
    assert code == EXIT_PASS
    assert "strang" in capsys.readouterr().out


def test_verify_duhamel_small(config_path, tmp_path, capsys):
    out_dir = tmp_path / "duh"
    code = main(
        [
            "verify-duhamel",
            "--config",
            config_path,
            "--out",
            str(out_dir),
            "--format",
            "json",
        ]
    )
    assert code == EXIT_PASS
    assert "PASS verify-duhamel" in capsys.readouterr().out
    payload = json.loads((out_dir / "verify_duhamel.json").read_text())
    assert len(payload) == 4  # 2 instances x 2 times
    expected_keys = {
        "instance",
        "t",
        "measured_error_norm",
        "duhamel_norm",
        "bound_value",
        "sign_factor",
        "discrepancy",
    }
    assert set(payload[0]) == expected_keys
    assert all(entry["discrepancy"] <= 1e-6 for entry in payload)


def test_verify_bound_small(config_path, tmp_path, capsys):
    out_dir = tmp_path / "bound"
    code = main(["verify-bound", "--config", config_path, "--out", str(out_dir)])
    assert code == EXIT_PASS
    assert "0 violations" in capsys.readouterr().out
    lines = (out_dir / "verify_bound.csv").read_text().splitlines()
    assert lines[0] == "instance,t,measured,bound,saturation,violated"
    assert len(lines) == 11  # 5 instances x 2 times + header
    assert all(line.endswith("false") for line in lines[1:])


def test_verify_bound_at_long_times(tmp_path, capsys):
    # t * ||P||_1 is far above 700 here; the exponentials are still unitary
    path = tmp_path / "long.ini"
    path.write_text("[config]\nversion = 1\n\n[verify-bound]\ncount = 2\nt_values = 200\n")
    assert main(["verify-bound", "--config", str(path)]) == EXIT_PASS
    assert "0 violations" in capsys.readouterr().out


def test_verify_bound_counts_vacuous_rows(tmp_path, capsys):
    # the default campaign's bound is 2 or more at all 100 rows at t = 1 and 24
    # at t = 0.5; at t = 1e14 and 1e19 every row's is, and a 1e19 row is the
    # same alone as next to t = 0.1: every campaign stack takes expm's eigh path
    assert main(["verify-bound"]) == EXIT_PASS
    assert capsys.readouterr().out.endswith(", 124 vacuous (bound >= 2)\n")
    for count, t_values, summary in (
        (3, "1e14", "3 comparisons, 0 violations, max saturation 0.000, 3 vacuous"),
        (2, "1e19", "2 comparisons, 0 violations, max saturation 0.000, 2 vacuous"),
        (2, "0.1 1e19", "4 comparisons, 0 violations, max saturation 0.803, 2 vacuous"),
    ):
        path = write_config(tmp_path, f"[verify-bound]\ncount = {count}\nt_values = {t_values}\n")
        assert main(["verify-bound", "--config", path]) == EXIT_PASS
        assert capsys.readouterr().out.endswith(summary + " (bound >= 2)\n")


@pytest.mark.parametrize("command, key", [("convergence", "instances"), ("verify-bound", "count")])
def test_count_too_large_to_hold_is_inconclusive(tmp_path, capsys, command, key):
    # 10^17 child seeds would take 711 PiB: numpy refuses the array before it
    # allocates anything, and the run exits 2 with one line, not a traceback and 1
    path = write_config(tmp_path, f"[{command}]\n{key} = {10**17}\n")
    assert main([command, "--config", path]) == EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: Unable to allocate")


def test_verify_bound_at_dim_64(tmp_path, capsys):
    path = tmp_path / "dim64.ini"
    path.write_text("[config]\nversion = 1\n\n[verify-bound]\ncount = 3\ndim = 64\n")
    out_dir = tmp_path / "bound64"
    code = main(["verify-bound", "--config", str(path), "--out", str(out_dir)])
    assert code == EXIT_PASS
    assert "0 violations" in capsys.readouterr().out
    lines = (out_dir / "verify_bound.csv").read_text().splitlines()
    assert len(lines) == 10  # 3 instances x 3 default times + header


def test_verify_duhamel_at_dim_64(tmp_path, capsys):
    path = tmp_path / "dim64.ini"
    path.write_text(
        "[config]\nversion = 1\n\n[verify-duhamel]\ncount = 1\ndim = 64\nt_values = 0.25 0.5\n"
    )
    out_dir = tmp_path / "duhamel64"
    code = main(["verify-duhamel", "--config", str(path), "--out", str(out_dir)])
    assert code == EXIT_PASS
    assert "PASS verify-duhamel" in capsys.readouterr().out
    lines = (out_dir / "verify_duhamel.csv").read_text().splitlines()
    header = "instance,t,measured_error_norm,duhamel_norm,bound_value,sign_factor,discrepancy"
    assert lines[0] == header
    assert len(lines) == 3  # 1 instance x 2 times + header


def test_schrodinger_bench_artifact(config_path, tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = main(["schrodinger-bench", "--config", config_path, "--out", str(out_dir)])
    assert code == EXIT_PASS
    assert "fitted order" in capsys.readouterr().out
    lines = (out_dir / "schrodinger_bench.csv").read_text().splitlines()
    assert lines[0] == "h,L2_error,norm_defect"
    assert len(lines) == 5


def test_config_errors_exit_inconclusive(tmp_path, capsys):
    # missing file
    assert main(["convergence", "--config", str(tmp_path / "nope.ini")]) == EXIT_INCONCLUSIVE
    # unsupported version
    versioned = tmp_path / "v9.ini"
    versioned.write_text("[config]\nversion = 9\n")
    assert main(["convergence", "--config", str(versioned)]) == EXIT_INCONCLUSIVE
    # unknown key in a known section
    stray = tmp_path / "stray.ini"
    stray.write_text("[config]\nversion = 1\n\n[verify-bound]\ncount = 5\nslak = 1\n")
    assert main(["verify-bound", "--config", str(stray)]) == EXIT_INCONCLUSIVE
    err = capsys.readouterr().err
    assert "config" in err.lower()


def test_certify_algebra_reads_its_config_like_every_subcommand(tmp_path, capsys):
    # it draws nothing from its section, but a missing file or a stray key is
    # still unusable configuration
    assert main(["certify-algebra", "--config", str(tmp_path / "nope.ini")]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "cannot read config file" in captured.err
    stray = write_config(tmp_path, "[certify-algebra]\ninject_fault = 1\n")
    assert main(["certify-algebra", "--config", stray]) == EXIT_INCONCLUSIVE
    assert "unknown key 'inject_fault' in [certify-algebra]" in capsys.readouterr().err


def write_config(tmp_path, text):
    path = tmp_path / "case.ini"
    path.write_text("[config]\nversion = 1\n\n" + text)
    return str(path)


def test_degenerate_studies_exit_inconclusive(tmp_path, capsys):
    # 1 x 1 operators commute: neither study can measure an order
    path = write_config(tmp_path, "[convergence]\ndim = 1\ninstances = 1\n")
    assert main(["convergence", "--config", path]) == EXIT_INCONCLUSIVE
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["DEGENERATE", "lie-trotter"], ["DEGENERATE", "strang"]
    ]


def test_fit_below_the_r2_gate_exits_fail(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "[convergence]\ndim = 2\ninstances = 1\nschemes = lie-trotter\nhorizon = 4\n"
        "steps = 2^-1 2^-2 2^-3 2^-4\n",
    )
    out_dir = tmp_path / "conv"
    argv = ["convergence", "--config", path, "--seed", "0", "--out", str(out_dir)]
    assert main(argv) == EXIT_FAIL
    assert capsys.readouterr().out.startswith("FAIL         lie-trotter")
    row = (out_dir / "convergence.csv").read_text().splitlines()[1]
    assert row.endswith(",fail,fit r2 0.995705 below gate 0.999")


def test_a_study_that_does_not_pass_prints_its_note(monkeypatch, capsys):
    # under the fault matrix's broken grid every wave study fails with its
    # errors at the floor, and its line says why; a passing line has no note
    grid_dx_scaled(monkeypatch)
    assert main(["schrodinger-bench"]) == EXIT_FAIL
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("FAIL schrodinger-bench: fitted order n/a (no order measurable, yet [A,B] is ")
    assert first.endswith(")")
    assert main(["convergence", "--config", str(CONFIGS / "wave-convergence.ini")]) == EXIT_FAIL
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["FAIL", "lie-trotter"], ["FAIL", "strang"]]
    assert all("r2=n/a (no order measurable, yet [A,B] is " in line for line in lines)


def test_non_monotone_errors_exit_inconclusive(tmp_path, capsys):
    # steps of 2 and 1 over t = 16 are far past any asymptotic regime: the
    # errors do not fall with h, so no order is fitted
    path = write_config(
        tmp_path,
        "[convergence]\nschemes = lie-trotter\ninstances = 2\nsteps = 2^1 2^0 2^-1 2^-2\n"
        "horizon = 16\n",
    )
    out_dir = tmp_path / "conv"
    assert main(["convergence", "--config", path, "--out", str(out_dir)]) == EXIT_INCONCLUSIVE
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["INCONCLUSIVE", "lie-trotter"]] * 2
    rows = (out_dir / "convergence.csv").read_text().splitlines()[1:]
    notes = [row.split(",")[-2:] for row in rows]
    assert notes == [["inconclusive", "non-monotone error sequence"]] * 2


def test_scheme_not_over_a_and_b_is_refused(tmp_path, capsys):
    # a study's scheme takes A and B both and nothing else: one with a third
    # operand, or with A or B alone, runs on neither route
    wave = ["--config", str(CONFIGS / "wave-convergence.ini")]
    for name, text in (("odd", "A 1\nC 1\n"), ("only-a", "A 1\n"), ("only-b", "B 1\n")):
        scheme = tmp_path / f"{name}.scheme"
        scheme.write_text(f"name {name}\n{text}")
        for command, extra in (("convergence", []), ("convergence", wave), ("schrodinger-bench", [])):
            out_dir = tmp_path / "out"
            argv = [command, *extra, "--scheme", str(scheme), "--out", str(out_dir)]
            assert main(argv) == EXIT_INCONCLUSIVE
            assert capsys.readouterr() == ("", f"error: scheme {name!r} is not an A/B scheme\n")
            assert not out_dir.exists()


def test_duhamel_discrepancy_above_its_tolerance_exits_fail(monkeypatch, capsys):
    # a sign-flipped E(t) sits about twice the error norm from the measured
    # error: the default campaign fails every row against the fixed gate
    original = harness.duhamel_error
    monkeypatch.setattr(harness, "duhamel_error", lambda *a, **kw: -original(*a, **kw))
    assert main(["verify-duhamel"]) == EXIT_FAIL
    summary, notes = capsys.readouterr().out.splitlines()
    assert summary.startswith("FAIL verify-duhamel: 40 comparisons")
    assert notes.startswith("instance 0, t=0.25: discrepancy ")
    assert notes.count("above 1e-06") == 40


#: keys that would set a campaign's gates or quadrature, which are fixed in code
REMOVED_KEYS = (
    ("verify-duhamel", "discrepancy_tol", "2"),
    ("verify-duhamel", "gauss_order", "8"),
    ("verify-duhamel", "panels", "1"),
    ("verify-duhamel", "target_tol", "1e-3"),
    ("verify-bound", "slack", "2"),
)

NON_INTEGERS = (
    ("verify-duhamel", "count", "2^3"),
    ("verify-bound", "seed", "1e3"),
    ("verify-bound", "dim", "4/1"),
    ("convergence", "instances", "2.5"),
    ("schrodinger-bench", "points", "256.0"),
)


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "convergence",
            "[config]\nversion = 1\n\n[convergence]\ninstances = 0\n",
            "instances must be at least 1",
        ),
        ("convergence", "[convergence]\ndim = 2\n", "config file is missing its [config] section"),
        # a file the INI parser rejects is unusable too, not a traceback and exit 1
        (
            "convergence",
            "[config]\nversion = 1\n\n[convergence]\ninstances = 3\ninstances = 4\n",
            "While reading from '{path}' [line 6]: option 'instances' in section "
            "'convergence' already exists",
        ),
        (
            "convergence",
            "instances = 3\n",
            "File contains no section headers. file: '{path}', line: 1 'instances = 3\\n'",
        ),
        (
            "convergence",
            "[config]\nversion = 1\n\n[convergence]\ninstances\n",
            "Source contains parsing errors: '{path}' [line 5]: 'instances\\n'",
        ),
        # '%' is no interpolation, just a character no number has
        (
            "convergence",
            "[config]\nversion = 1\n\n[convergence]\nhorizon = 1%\n",
            "cannot parse number '1%'",
        ),
        # a misspelled section is not skipped, whichever subcommand runs
        (
            "convergence",
            "[config]\nversion = 1\n\n[verify-bond]\ncount = 3\n",
            "unknown section [verify-bond]",
        ),
        # configparser's [DEFAULT] would add its keys to every section present
        (
            "convergence",
            "[DEFAULT]\ncount = 2\n\n[config]\nversion = 1\n\n[verify-bound]\n",
            "unknown section [DEFAULT]",
        ),
        (
            "convergence",
            "[DEFAULT]\ncount = 2\n\n[config]\nversion = 1\n",
            "unknown section [DEFAULT]",
        ),
        # the campaigns' gates and quadrature are no keys: a file that sets one,
        # even to a value that would loosen nothing, is refused, not run
        *(
            (
                section,
                f"[config]\nversion = 1\n\n[{section}]\n{key} = {value}\n",
                f"unknown key '{key}' in [{section}]",
            )
            for section, key, value in REMOVED_KEYS
        ),
        # an integer key takes a plain integer: no power, fraction or float
        *(
            (
                section,
                f"[config]\nversion = 1\n\n[{section}]\n{key} = {value}\n",
                f"{key} takes a plain integer, got {value!r}",
            )
            for section, key, value in NON_INTEGERS
        ),
    ],
    ids=[
        "no-instances",
        "no-config-section",
        "duplicate-key",
        "no-section-header",
        "no-equals-sign",
        "percent-sign",
        "unknown-section",
        "default-section",
        "default-section-alone",
        *(key for _, key, _ in REMOVED_KEYS),
        *(f"{key}-{value}" for _, key, value in NON_INTEGERS),
    ],
)
def test_unusable_config_exits_inconclusive(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr() == ("", f"config error: {message.format(path=path)}\n")


def test_parser_declares_each_subcommand_once(capsys):
    # --help lists the subcommands in order, and they are exactly the config
    # sections, so the loader can reject every other section as unknown
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    listed = usage[usage.index("{") + 1 : usage.index("}")].split(",")
    assert listed == COMMANDS
    assert set(listed) == set(cli.DEFAULTS)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_flag_parses_only_for_its_subcommands(capsys, command):
    parser = cli._build_parser()
    for flag, takers in [
        (["--scheme", "my.scheme"], {"convergence", "schrodinger-bench"}),
        (["--inject-fault"], {"certify-algebra"}),
    ]:
        if command in takers:
            parser.parse_args([command, *flag])
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, *flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_out_writes_exactly_one_artifact_named_after_the_command(
    config_path, tmp_path, monkeypatch, capsys, command, fmt
):
    # without --out nothing is written, not even into the working directory
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([command, "--config", config_path, "--format", fmt]) == EXIT_PASS
    assert not any(cwd.iterdir())
    out_dir = tmp_path / "out"
    assert main([command, "--config", config_path, "--out", str(out_dir), "--format", fmt]) == 0
    assert [p.name for p in out_dir.iterdir()] == [f"{command.replace('-', '_')}.{fmt}"]


@pytest.mark.parametrize("command", ["convergence", "verify-duhamel", "verify-bound"])
def test_seed_flag_stands_for_the_config_seed(tmp_path, capsys, command):
    # --seed 5 runs exactly what a section with seed = 5 runs
    seeded = write_config(tmp_path, f"[{command}]\nseed = 5\n")
    runs = []
    for argv in (["--seed", "5"], ["--config", seeded]):
        out_dir = tmp_path / str(len(runs))
        assert main([command, *argv, "--out", str(out_dir)]) == EXIT_PASS
        runs.append((capsys.readouterr().out, next(out_dir.iterdir()).read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("spelling", ["config", "flag"])
@pytest.mark.parametrize("command", ["convergence", "verify-duhamel", "verify-bound"])
def test_negative_seed_is_a_config_error_naming_its_key(tmp_path, capsys, command, spelling):
    # one line that names the key and its value, not numpy's message
    if spelling == "flag":
        argv = ["--seed", "-5"]
    else:
        argv = ["--config", write_config(tmp_path, f"[{command}]\nseed = -5\n")]
    assert main([command, *argv]) == EXIT_INCONCLUSIVE
    message = "config error: seed must be a non-negative integer, got '-5'\n"
    assert capsys.readouterr() == ("", message)


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    # the parser is built on the first call and reused: one top-level parser
    # and one per subcommand, however many calls follow
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    small = write_config(tmp_path, "[verify-bound]\ncount = 2\ndim = 3\n")
    assert main(["certify-algebra"]) == EXIT_PASS
    assert main(["verify-bound", "--config", small]) == EXIT_PASS
    assert main(["certify-algebra", "--inject-fault"]) == EXIT_FAIL
    with pytest.raises(SystemExit) as exc:
        main(["verify-bound", "--inject-fault"])
    assert exc.value.code == 2
    assert built.count("trisplit") == 1 and len(built) == 1 + len(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_handlers_leave_seed_out_and_format_to_main(config_path, capsys, command):
    # a handler gets its resolved section and returns its artifact; the seed,
    # the artifact directory and its format are main's
    args = cli._build_parser().parse_args([command])
    for name in ("config", "seed", "out", "format"):
        delattr(args, name)
    cfg = cli._load_section(config_path, command)
    status, columns, rows = args.handler(args, cfg)
    assert status == EXIT_PASS
    assert rows and all(len(row) == len(columns) for row in rows)


@pytest.mark.parametrize(
    "command, key",
    [("verify-duhamel", "t_values"), ("verify-bound", "t_values"), ("convergence", "schemes")],
)
def test_empty_list_is_a_config_error(tmp_path, capsys, command, key):
    # zero comparisons must not print PASS
    cfg = tmp_path / "empty.ini"
    cfg.write_text(f"[config]\nversion = 1\n\n[{command}]\n{key} =\n")
    assert main([command, "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "inf^0", "nan^0"])
@pytest.mark.parametrize(
    "command, key",
    [("verify-bound", "t_values"), ("verify-duhamel", "t_values"), ("convergence", "horizon")],
)
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command, key, value):
    # a config error exits 2 with one line, where a nan or inf used to reach
    # expm (or the step count of a study) and end in a traceback
    cfg = tmp_path / "nonfinite.ini"
    cfg.write_text(f"[config]\nversion = 1\n\n[{command}]\n{key} = {value}\n")
    assert main([command, "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err


def test_unreachable_quadrature_tolerance_is_inconclusive(tmp_path, capsys):
    # at t = 300 the certified quadrature needs more than its 512-panel cap:
    # exit 2 with one line, never a PASS
    cfg = tmp_path / "long.ini"
    cfg.write_text("[config]\nversion = 1\n\n[verify-duhamel]\ncount = 1\ndim = 4\nt_values = 300\n")
    assert main(["verify-duhamel", "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "needs more than 512 panels to certify quadrature_rtol 1e-12" in captured.err


def test_subnormal_errors_pass_verify_duhamel(tmp_path, capsys):
    # at t = 1e-103 the measured and represented errors are subnormal, and so
    # are the matrices whose norms the campaign takes
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[config]\nversion = 1\n\n[verify-duhamel]\nt_values = 1e-103 0.25\n")
    assert main(["verify-duhamel", "--config", str(cfg)]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("PASS verify-duhamel: 40 comparisons")


@pytest.mark.parametrize("command", ["verify-bound", "verify-duhamel"])
def test_t_too_large_to_evaluate_is_inconclusive(tmp_path, capsys, command):
    # a finite t whose t P overflows a double cannot be evaluated: one error
    # line and exit 2, not an OverflowError traceback and exit 1
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[config]\nversion = 1\n\n[{command}]\ncount = 1\nt_values = 1e300\n")
    assert main([command, "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")


def test_sign_of_a_power_is_the_sign_of_the_number(tmp_path, capsys):
    # -2^-2 is -1/4, not (-2)^-2 = +1/4: the horizon is negative, so nothing runs
    cfg = tmp_path / "negative.ini"
    cfg.write_text(
        "[config]\nversion = 1\n\n[convergence]\nhorizon = -2^-2\n"
        "steps = 2^-4 2^-5 2^-6 2^-7\ninstances = 1\n"
    )
    assert main(["convergence", "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr() == ("", "error: horizon must be positive\n")


def test_a_horizon_of_too_many_steps_is_refused_by_name(tmp_path, capsys):
    cfg = tmp_path / "far.ini"
    cfg.write_text("[config]\nversion = 1\n\n[convergence]\nhorizon = 1e308\nsteps = 2^-4 2^-5 2^-6 2^-7\n")
    assert main(["convergence", "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr() == ("", "error: horizon 1e+308 over step 0.0078125 overflows the step count\n")


def test_bad_number_token_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[config]\nversion = 1\n\n[verify-bound]\ncount = 5\nt_values = 1e--9\n")
    assert main(["verify-bound", "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr() == ("", "config error: cannot parse number '1e--9'\n")


@pytest.mark.parametrize(
    "command, section, scheme",
    [
        # x^2, and so the harmonic potential, overflows a double on so wide a grid
        ("schrodinger-bench", b"[schrodinger-bench]\nhalf_width = 1e300\n", None),
        ("verify-bound", b"[verify-bound]\ncount = \xe9\n", None),
        ("convergence", b"", b"name x\nA 1\nB abc\n"),
        ("convergence", b"", b"name x\xe9\nA 1\nB 1\n"),
        ("convergence", b"[convergence]\ndim = 0\n", None),
        ("convergence", b"[convergence]\nhorizon = 0.7\n", None),
        ("convergence", b"[convergence]\nsteps = 2^-1 2^-2 2^-3 0\n", None),
        ("convergence", b"[convergence]\nsteps = -2^-1 -2^-2 -2^-3 -2^-4\n", None),
        # the largest wavenumber squared overflows a double on so narrow a grid
        ("schrodinger-bench", b"[schrodinger-bench]\nhalf_width = 1e-200\n", None),
    ],
    ids=["overflowing-potential", "config-not-utf8", "coefficient-abc", "scheme-not-ascii",
         "dim-0", "horizon-not-a-multiple", "zero-step", "negative-steps",
         "overflowing-wavenumber"],
)
def test_unusable_input_exits_inconclusive_with_one_line(tmp_path, capsys, command, section, scheme):
    # each of these is the user's input, so it exits 2 with one error line,
    # never with a traceback
    cfg = tmp_path / "case.ini"
    cfg.write_bytes(b"[config]\nversion = 1\n\n" + section)
    argv = [command, "--config", str(cfg)]
    if scheme is not None:
        (tmp_path / "case.scheme").write_bytes(scheme)
        argv += ["--scheme", str(tmp_path / "case.scheme")]
    assert main(argv) == EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(("error:", "config error:"))
    assert "Traceback" not in err


def test_linalg_error_is_a_fault_not_inconclusive(monkeypatch):
    # LinAlgError subclasses ValueError, which exits 2; a failed eigh or a
    # singular Pade denominator is a numerical fault and must surface
    def fail(p1, p2):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(harness, "solve_second_order_constraint", fail)
    with pytest.raises(np.linalg.LinAlgError):
        main(["verify-bound"])


@pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, status",
    [(["convergence"], EXIT_PASS), (["certify-algebra", "--inject-fault"], EXIT_FAIL)],
    ids=["convergence", "inject-fault"],
)
def test_closed_stdout_keeps_the_exit_status_and_the_artifact(tmp_path, argv, status, buffering):
    # a reader that closes stdout at once, as `| head -0` does, ends only the
    # printing: no broken-pipe error, no exit 120, and the artifact is written
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trisplit.cli", *argv, "--out", str(tmp_path)],
            stdout=write, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write)
    assert proc.returncode == status
    assert (tmp_path / f"{argv[0].replace('-', '_')}.csv").exists()
    assert proc.stderr == b""


def test_cli_import_loads_no_scipy():
    # scipy is a test-only cross-check; a fresh interpreter importing the CLI
    # from this checkout's src/ must not load any of it
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import trisplit.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_cli_imports_no_private_name():
    # the front end reaches the library only through its public names
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trisplit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
