"""Command-line front end.

Subcommands: certify-algebra, convergence, verify-duhamel, verify-bound,
schrodinger-bench.  Each takes --config (INI file, versioned), --seed,
--out (artifact directory) and --format (csv or json).  Exit code 0 means
every verdict passed, 1 means at least one failure, 2 means the run was
inconclusive or the configuration was unusable, as when a t is too large for
the exponentials to fit in a double.  A numerical fault, such as numpy's
LinAlgError, is not inconclusive: it surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import configparser
import json
import math
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from trisplit.duhamel import ErrorReport, QuadratureSpec, ToleranceNotReached
from trisplit.harness import (
    BoundCampaignRow,
    ConvergenceStudy,
    _wave_reference,
    certify_algebra,
    derive_seeds,
    run_convergence,
    run_schrodinger_benchmark,
    verify_bound,
    verify_duhamel,
)
from trisplit.splitting import _parse_coefficient, load_scheme

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2

CONFIG_VERSION = "1"

NOMINAL_ORDERS = {"lie-trotter": 1.0, "strang": 2.0}

DYADIC_STEPS = "2^-4 2^-5 2^-6 2^-7 2^-8 2^-9"

DEFAULTS = {
    "convergence": {
        "problem": "matrix",
        "schemes": "lie-trotter strang",
        "steps": DYADIC_STEPS,
        "horizon": "1.0",
        "seed": "20260819",
        "instances": "5",
        "dim": "8",
        "potential": "harmonic",
        "half_width": "10",
        "points": "256",
    },
    "verify-duhamel": {
        "count": "20",
        "dim": "4",
        "t_values": "0.25 0.5",
        "seed": "7",
        "gauss_order": "8",
        "panels": "1",
        "target_tol": "1e-8",
        "discrepancy_tol": "1e-6",
    },
    "verify-bound": {
        "count": "100",
        "dim": "6",
        "t_values": "0.1 0.5 1.0",
        "seed": "7",
        "slack": "1e-9",
    },
    "schrodinger-bench": {
        "potential": "harmonic",
        "half_width": "10",
        "points": "256",
        "scheme": "strang",
        "steps": DYADIC_STEPS,
        "horizon": "1.0",
    },
}


class ConfigError(Exception):
    pass


def _parse_real(token: str) -> float:
    """Accept base^exponent powers, and otherwise the scheme-file number
    grammar of ``splitting._parse_coefficient`` (p/q fractions, float literals).
    nan, inf and anything that overflows a double are config errors."""
    token = token.strip()
    try:
        if "^" in token:
            base, _, exponent = token.partition("^")
            value = float(base) ** int(exponent)
        else:
            value = _parse_coefficient(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number {token!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"number {token!r} is not finite")
    return value


def _parse_reals(text: str):
    values = tuple(_parse_real(tok) for tok in text.split())
    if not values:
        raise ConfigError("expected at least one number, got an empty list")
    return values


def _load_section(path, section: str) -> dict:
    values = dict(DEFAULTS[section])
    if path is None:
        return values
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if not parser.has_section("config"):
        raise ConfigError("config file is missing its [config] section")
    version = parser.get("config", "version", fallback=None)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config version {version!r} is not supported (expected {CONFIG_VERSION!r})"
        )
    if parser.has_section(section):
        for key, value in parser.items(section):
            if key not in values:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            values[key] = value
    return values


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return value


def _write_artifact(out_dir, name, fieldnames, rows, fmt):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.{fmt}")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    else:
        payload = [dict(zip(fieldnames, row)) for row in rows]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    return path


# --- subcommand handlers -------------------------------------------------------


def _cmd_certify_algebra(args) -> int:
    report = certify_algebra(inject_fault=args.inject_fault)
    sys.stdout.write(report.format())
    if args.out:
        rows = [(c.name, c.passed) for c in report.checks]
        _write_artifact(args.out, "certify_algebra", ("check", "passed"), rows, args.format)
    return report.exit_status


def _study_exit(results) -> int:
    verdicts = {r.verdict for r in results}
    if "fail" in verdicts:
        return EXIT_FAIL
    if verdicts - {"pass"}:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _study(cfg, scheme_name, scheme_override, **problem) -> ConvergenceStudy:
    """The study a [convergence] or [schrodinger-bench] section describes;
    ``problem`` gives the keys only one of them has.  A built-in scheme is
    held to its nominal order, a scheme file to none."""
    return ConvergenceStudy(
        scheme_name=scheme_name,
        step_sizes=_parse_reals(cfg["steps"]),
        horizon=_parse_real(cfg["horizon"]),
        potential=cfg["potential"],
        half_width=_parse_real(cfg["half_width"]),
        points=int(cfg["points"]),
        expected_order=None if scheme_override else NOMINAL_ORDERS.get(scheme_name),
        **problem,
    )


def _cmd_convergence(args) -> int:
    cfg = _load_section(args.config, "convergence")
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    instances = int(cfg["instances"])
    if instances < 1:
        raise ConfigError("instances must be at least 1")
    scheme_override = load_scheme(args.scheme) if args.scheme else None
    if scheme_override is not None:
        schemes = [scheme_override.name]
    else:
        schemes = cfg["schemes"].split()
        if not schemes:
            raise ConfigError("schemes must name at least one scheme")
    # a wave study draws nothing from its seed, so it runs once per scheme,
    # and its reference does not depend on the scheme, so all of them share one
    problem, dim = cfg["problem"], int(cfg["dim"])
    seeds = (seed,) if problem == "schrodinger" else derive_seeds(seed, instances)
    studies = [
        _study(cfg, scheme_name, scheme_override, problem=problem, seed=child, dim=dim)
        for scheme_name in schemes
        for child in seeds
    ]
    reference = _wave_reference(studies[0]) if problem == "schrodinger" else None
    results = []
    rows = []
    for study in studies:
        result = run_convergence(study, scheme=scheme_override, reference=reference)
        results.append(result)
        order = "" if result.fitted_order is None else repr(float(result.fitted_order))
        r2 = "" if result.fit_r2 is None else repr(float(result.fit_r2))
        rows.append((study.scheme_name, study.seed, order, r2, result.verdict, result.notes))
        print(
            f"{result.verdict.upper():12s} {study.scheme_name:12s} seed={study.seed} "
            f"order={order or 'n/a'} r2={r2 or 'n/a'}"
        )
    if args.out:
        columns = ("scheme", "seed", "fitted_order", "fit_r2", "verdict", "notes")
        _write_artifact(args.out, "convergence", columns, rows, args.format)
    return _study_exit(results)


def _cmd_verify_duhamel(args) -> int:
    cfg = _load_section(args.config, "verify-duhamel")
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    quad = QuadratureSpec(
        gauss_order=int(cfg["gauss_order"]),
        panels=int(cfg["panels"]),
        target_tol=_parse_real(cfg["target_tol"]),
    )
    campaign = verify_duhamel(
        count=int(cfg["count"]),
        dim=int(cfg["dim"]),
        t_list=_parse_reals(cfg["t_values"]),
        seed=seed,
        quad=quad,
        discrepancy_tol=_parse_real(cfg["discrepancy_tol"]),
    )
    worst = max((r.report.discrepancy for r in campaign.rows), default=0.0)
    print(
        f"{'PASS' if campaign.passed else 'FAIL'} verify-duhamel: "
        f"{len(campaign.rows)} comparisons, max discrepancy {worst:.3e}"
    )
    if campaign.notes:
        print(campaign.notes)
    if args.out:
        columns = ("instance", "t", *(f.name for f in fields(ErrorReport)))
        rows = [(r.instance, r.t, *astuple(r.report)) for r in campaign.rows]
        _write_artifact(args.out, "verify_duhamel", columns, rows, args.format)
    return EXIT_PASS if campaign.passed else EXIT_FAIL


def _cmd_verify_bound(args) -> int:
    cfg = _load_section(args.config, "verify-bound")
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    campaign = verify_bound(
        count=int(cfg["count"]),
        dim=int(cfg["dim"]),
        t_list=_parse_reals(cfg["t_values"]),
        seed=seed,
        slack=_parse_real(cfg["slack"]),
    )
    print(
        f"{'PASS' if campaign.passed else 'FAIL'} verify-bound: "
        f"{len(campaign.rows)} comparisons, {campaign.violations} violations, "
        f"max saturation {campaign.max_saturation:.3f}"
    )
    if args.out:
        columns = [f.name for f in fields(BoundCampaignRow)]
        rows = [astuple(r) for r in campaign.rows]
        _write_artifact(args.out, "verify_bound", columns, rows, args.format)
    return EXIT_PASS if campaign.passed else EXIT_FAIL


def _cmd_schrodinger_bench(args) -> int:
    cfg = _load_section(args.config, "schrodinger-bench")
    scheme_override = load_scheme(args.scheme) if args.scheme else None
    scheme_name = scheme_override.name if scheme_override else cfg["scheme"]
    study = _study(cfg, scheme_name, scheme_override, problem="schrodinger", seed=0)
    rows, result = run_schrodinger_benchmark(study, scheme=scheme_override)
    order = "n/a" if result.fitted_order is None else f"{result.fitted_order:.4f}"
    print(f"{result.verdict.upper()} schrodinger-bench: fitted order {order}")
    for row in rows:
        print(f"  h={row.h!r}  L2_error={row.l2_error!r}  norm_defect={row.norm_defect!r}")
    if args.out:
        columns = ("h", "L2_error", "norm_defect")
        table = [astuple(r) for r in rows]
        _write_artifact(args.out, "schrodinger_bench", columns, table, args.format)
    return _study_exit([result])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisplit",
        description="Verification toolkit for three-component exponential splittings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme_flag=False):
        p.add_argument("--config", help="INI config file (see README for the grammar)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="directory for CSV/JSON artifacts")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="artifact format"
        )
        if scheme_flag:
            p.add_argument("--scheme", help="scheme file overriding the built-in scheme")

    p = sub.add_parser("certify-algebra", help="exact-rational identity certification")
    common(p)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="self-test: corrupt one coefficient and demand a FAIL",
    )
    p.set_defaults(handler=_cmd_certify_algebra)

    p = sub.add_parser("convergence", help="order-measurement studies")
    common(p, scheme_flag=True)
    p.set_defaults(handler=_cmd_convergence)

    p = sub.add_parser("verify-duhamel", help="integral error representation vs measured error")
    common(p)
    p.set_defaults(handler=_cmd_verify_duhamel)

    p = sub.add_parser("verify-bound", help="cubic commutator error bound vs measured error")
    common(p)
    p.set_defaults(handler=_cmd_verify_bound)

    p = sub.add_parser("schrodinger-bench", help="split-step wave benchmark")
    common(p, scheme_flag=True)
    p.set_defaults(handler=_cmd_schrodinger_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except np.linalg.LinAlgError:  # a ValueError, but a numerical fault: let it surface
        raise
    except (OSError, ValueError, OverflowError, ToleranceNotReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
