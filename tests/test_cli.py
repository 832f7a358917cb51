import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trisplit import harness
from trisplit.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, main

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


def test_certify_algebra_passes(capsys):
    assert main(["certify-algebra"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_certify_algebra_fault_injection(capsys):
    assert main(["certify-algebra", "--inject-fault"]) == EXIT_FAIL
    assert "FAIL" in capsys.readouterr().out


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


def count_evolve_steps(monkeypatch):
    steps = []
    original = harness.evolve

    def counted(u, v, horizon, n, scheme):
        steps.append(n)
        return original(u, v, horizon, n, scheme)

    monkeypatch.setattr(harness, "evolve", counted)
    return steps


def test_wave_convergence_takes_one_reference_per_call(tmp_path, monkeypatch, capsys):
    # both schemes at 256 points and the default steps 2^-4 .. 2^-9: each
    # scheme's rows take 16 + 32 + ... + 512 = 1,008 steps, and the one Strang
    # reference 2,048 at h_min/4 plus 1,024 at h_min/2
    path = tmp_path / "wave.ini"
    path.write_text("[config]\nversion = 1\n\n[convergence]\nproblem = schrodinger\npoints = 256\n")
    steps = count_evolve_steps(monkeypatch)
    assert main(["convergence", "--config", str(path)]) == EXIT_PASS
    assert sum(steps) == 3072 + 2 * 1008


def test_schrodinger_bench_keeps_no_reference_between_calls(monkeypatch, capsys):
    steps = count_evolve_steps(monkeypatch)
    for _ in range(2):
        steps.clear()
        assert main(["schrodinger-bench"]) == EXIT_PASS
        assert sum(steps) == 3072 + 1008


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command",
    ["certify-algebra", "convergence", "verify-duhamel", "verify-bound", "schrodinger-bench"],
)
def test_artifacts_are_reproducible(config_path, tmp_path, capsys, command, fmt):
    # two runs at one seed print the same report and write the same bytes
    runs = []
    for d in (tmp_path / "run1", tmp_path / "run2"):
        argv = [command, "--config", config_path, "--seed", "11", "--out", str(d), "--format", fmt]
        assert main(argv) == EXIT_PASS
        artifact = d / f"{command.replace('-', '_')}.{fmt}"
        runs.append((capsys.readouterr().out, artifact.read_bytes()))
    assert runs[0] == runs[1]


def test_convergence_seed_flag_changes_rows(config_path, tmp_path):
    dirs = [tmp_path / "s1", tmp_path / "s2"]
    main(["convergence", "--config", config_path, "--out", str(dirs[0])])
    main(["convergence", "--config", config_path, "--seed", "5", "--out", str(dirs[1])])
    a = (dirs[0] / "convergence.csv").read_text()
    b = (dirs[1] / "convergence.csv").read_text()
    assert a != b


def test_convergence_with_scheme_file(config_path, tmp_path, capsys):
    scheme_path = tmp_path / "sym.scheme"
    scheme_path.write_text("name strang\ncanonical 1\nA 1/2\nB 1\nA 1/2\n")
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
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
    cfg = tmp_path / "tight.ini"
    cfg.write_text(
        "[config]\nversion = 1\n\n[verify-duhamel]\ncount = 1\ndim = 4\n"
        "gauss_order = 2\nt_values = 1.0\ntarget_tol = 1e-30\n"
    )
    assert main(["verify-duhamel", "--config", str(cfg)]) == EXIT_INCONCLUSIVE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "target_tol" in err


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


def test_bad_number_token_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[config]\nversion = 1\n\n[verify-bound]\ncount = 5\nslack = 1e--9\n")
    assert main(["verify-bound", "--config", str(cfg)]) == EXIT_INCONCLUSIVE


def test_linalg_error_is_a_fault_not_inconclusive(monkeypatch):
    # LinAlgError subclasses ValueError, which exits 2; a failed eigh or a
    # singular Pade denominator is a numerical fault and must surface
    def fail(p1, p2):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(harness, "solve_second_order_constraint", fail)
    with pytest.raises(np.linalg.LinAlgError):
        main(["verify-bound"])


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
