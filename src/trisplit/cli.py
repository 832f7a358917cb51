"""Command-line front end.

Subcommands: certify-algebra, convergence, verify-duhamel, verify-bound,
schrodinger-bench.  Each takes --config (INI file, versioned), --seed,
--out (artifact directory) and --format (csv or json).  Exit code 0 means
every verdict passed, 1 means at least one failure, 2 means the run was
inconclusive or its input unusable: an ``InputError`` (config, flag or scheme
file), an OSError on a path, a t too large to evaluate, a count too large to
hold or an unreachable quadrature target.  Any other exception is a fault of
the program: it surfaces with its traceback, and the process exits 1.

``main`` loads the subcommand's config section, puts --seed in place of its
seed, calls the handler, which prints and returns (exit status, columns,
rows), and writes those rows as the artifact named after the subcommand.
"""

from __future__ import annotations

import argparse
import csv
import configparser
import functools
import json
import math
import os
import sys

from trisplit.duhamel import ToleranceNotReached
from trisplit.harness import (
    VACUOUS_BOUND,
    BoundCampaignRow,
    ConvergenceStudy,
    DuhamelCampaignRow,
    certify_algebra,
    run_schrodinger_benchmark,
    run_studies,
    verify_bound,
    verify_duhamel,
)
from trisplit.matrix_core import InputError
from trisplit.splitting import load_scheme, parse_coefficient, scheme_by_name

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2

CONFIG_VERSION = "1"

WAVE_DEFAULTS = {
    "steps": "2^-4 2^-5 2^-6 2^-7 2^-8 2^-9",
    "horizon": "1.0",
    "potential": "harmonic",
    "half_width": "10",
    "points": "256",
}

DEFAULTS = {
    "certify-algebra": {},
    "convergence": {
        "problem": "matrix",
        "schemes": "lie-trotter strang",
        "seed": "20260819",
        "instances": "5",
        "dim": "8",
        **WAVE_DEFAULTS,
    },
    "verify-duhamel": {
        "count": "20",
        "dim": "4",
        "t_values": "0.25 0.5",
        "seed": "7",
    },
    "verify-bound": {
        "count": "100",
        "dim": "6",
        "t_values": "0.1 0.5 1.0",
        "seed": "7",
    },
    "schrodinger-bench": {"scheme": "strang", **WAVE_DEFAULTS},
}


class ConfigError(InputError):
    """An unusable config file or key, reported with the ``config error:`` prefix."""


def _parse_real(token: str) -> float:
    """Accept base^exponent powers, whose sign applies to the whole power
    (-2^-4 is -1/16), and otherwise the scheme-file number grammar of
    ``splitting.parse_coefficient`` (p/q fractions, float literals).  nan, inf,
    a non-finite base and anything that overflows a double are config errors."""
    token = token.strip()
    try:
        if "^" in token:
            base, _, exponent = token.partition("^")
            base = float(base)
            value = math.copysign(abs(base) ** int(exponent), base) if math.isfinite(base) else base
        else:
            value = parse_coefficient(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number {token!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"number {token!r} is not finite")
    return value


def _parse_int(cfg, key: str) -> int:
    """An integer key's value: a plain non-negative integer, no power or float."""
    try:
        value = int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} takes a plain integer, got {cfg[key]!r}") from None
    if value < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {cfg[key]!r}")
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
    parser = configparser.ConfigParser(interpolation=None)  # '%' means nothing here
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:  # a parser error names the file
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if not parser.has_section("config"):
        raise ConfigError("config file is missing its [config] section")
    version = parser.get("config", "version", fallback=None)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config version {version!r} is not supported (expected {CONFIG_VERSION!r})"
        )
    # configparser's [DEFAULT] is no section of ours: its keys would join every section
    for name in parser.sections() + ([parser.default_section] if parser.defaults() else []):
        if name != "config" and name not in DEFAULTS:
            raise ConfigError(f"unknown section [{name}]")
    if parser.has_section(section):
        for key, value in parser.items(section):
            if key not in values:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            values[key] = value
    return values


def _write_artifact(out_dir, name, fieldnames, rows, fmt):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.{fmt}")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            # cells are bool, str, int or float; csv writes each float as its repr
            writer.writerows(
                ["true" if v is True else "false" if v is False else v for v in row] for row in rows
            )
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps([dict(zip(fieldnames, r)) for r in rows], sort_keys=True) + "\n")
    return path


# --- subcommand handlers -------------------------------------------------------


def _say(line):
    """Print one line and flush it.  A reader that closed stdout ends only the
    printing: fd 1 turns to os.devnull, and the run still writes its artifact
    and exits with its verdict's status."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_certify_algebra(args, cfg):
    checks = certify_algebra(inject_fault=args.inject_fault)
    for check in checks:
        _say(f"{'PASS' if check.passed else 'FAIL'} {check.name}")
        if not check.passed:
            _say(check.detail)
    passed = all(check.passed for check in checks)
    return EXIT_PASS if passed else EXIT_FAIL, ("check", "passed"), [c[:2] for c in checks]


def _study_exit(results) -> int:
    verdicts = {r.verdict for r in results}
    if "fail" in verdicts:
        return EXIT_FAIL
    if verdicts - {"pass"}:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _study(cfg, scheme, **problem) -> ConvergenceStudy:
    """The study of ``scheme`` a [convergence] or [schrodinger-bench] section
    describes; ``problem`` gives the keys only one of them has."""
    return ConvergenceStudy(
        scheme_name=scheme.name,
        step_sizes=_parse_reals(cfg["steps"]),
        horizon=_parse_real(cfg["horizon"]),
        potential=cfg["potential"],
        half_width=_parse_real(cfg["half_width"]),
        points=_parse_int(cfg, "points"),
        **problem,
    )


def _cmd_convergence(args, cfg):
    seed = _parse_int(cfg, "seed")
    instances = _parse_int(cfg, "instances")
    if instances < 1:
        raise ConfigError("instances must be at least 1")
    # every scheme is resolved before any study is built, so an unknown name runs none
    if args.scheme:
        schemes = [load_scheme(args.scheme)]
    else:
        schemes = [scheme_by_name(name) for name in cfg["schemes"].split()]
        if not schemes:
            raise ConfigError("schemes must name at least one scheme")
    study = _study(cfg, schemes[0], problem=cfg["problem"], seed=seed, dim=_parse_int(cfg, "dim"))
    results = []
    rows = []
    for result in run_studies(study, schemes, instances):
        results.append(result)
        name, child = result.metadata["scheme"], result.metadata["seed"]
        order = "" if result.fitted_order is None else repr(float(result.fitted_order))
        r2 = "" if result.fit_r2 is None else repr(float(result.fit_r2))
        rows.append((name, child, order, r2, result.verdict, result.notes))
        _say(
            f"{result.verdict.upper():12s} {name:12s} seed={child} "
            f"order={order or 'n/a'} r2={r2 or 'n/a'}"
        )
    columns = ("scheme", "seed", "fitted_order", "fit_r2", "verdict", "notes")
    return _study_exit(results), columns, rows


def _campaign_args(cfg) -> dict:
    """The keyword arguments a [verify-duhamel] or [verify-bound] section gives its campaign."""
    return {
        "seed": _parse_int(cfg, "seed"),
        "count": _parse_int(cfg, "count"),
        "dim": _parse_int(cfg, "dim"),
        "t_list": _parse_reals(cfg["t_values"]),
    }


def _cmd_verify_duhamel(args, cfg):
    campaign = verify_duhamel(**_campaign_args(cfg))
    worst = max((r.discrepancy for r in campaign.rows), default=0.0)
    _say(
        f"{'PASS' if campaign.passed else 'FAIL'} verify-duhamel: "
        f"{len(campaign.rows)} comparisons, max discrepancy {worst:.3e}"
    )
    if campaign.notes:
        _say(campaign.notes)
    return EXIT_PASS if campaign.passed else EXIT_FAIL, DuhamelCampaignRow._fields, campaign.rows


def _cmd_verify_bound(args, cfg):
    campaign = verify_bound(**_campaign_args(cfg))
    _say(
        f"{'PASS' if campaign.passed else 'FAIL'} verify-bound: "
        f"{len(campaign.rows)} comparisons, {campaign.violations} violations, "
        f"max saturation {campaign.max_saturation:.3f}, "
        f"{campaign.vacuous} vacuous (bound >= {VACUOUS_BOUND:g})"
    )
    return EXIT_PASS if campaign.passed else EXIT_FAIL, BoundCampaignRow._fields, campaign.rows


def _cmd_schrodinger_bench(args, cfg):
    scheme = load_scheme(args.scheme) if args.scheme else scheme_by_name(cfg["scheme"])
    study = _study(cfg, scheme, problem="schrodinger", seed=0)
    rows, result = run_schrodinger_benchmark(study, scheme=scheme)
    order = "n/a" if result.fitted_order is None else f"{result.fitted_order:.4f}"
    _say(f"{result.verdict.upper()} schrodinger-bench: fitted order {order}")
    for row in rows:
        _say(f"  h={row.h!r}  L2_error={row.l2_error!r}  norm_defect={row.norm_defect!r}")
    return _study_exit([result]), ("h", "L2_error", "norm_defect"), rows


FAULT_HELP = "self-test: corrupt one coefficient and demand a FAIL"
FAULT_FLAGS = (("--inject-fault", {"action": "store_true", "help": FAULT_HELP}),)
SCHEME_FLAGS = (("--scheme", {"help": "scheme file overriding the built-in scheme"}),)

# one row per subcommand, in --help order: name, handler, help, and the
# (flag, add_argument options) pairs of the flags only it takes
SUBCOMMANDS = (
    ("certify-algebra", _cmd_certify_algebra, "exact-rational identity certification", FAULT_FLAGS),
    ("convergence", _cmd_convergence, "order-measurement studies", SCHEME_FLAGS),
    ("verify-duhamel", _cmd_verify_duhamel, "integral error representation vs measured error", ()),
    ("verify-bound", _cmd_verify_bound, "cubic commutator error bound vs measured error", ()),
    ("schrodinger-bench", _cmd_schrodinger_bench, "split-step wave benchmark", SCHEME_FLAGS),
)


@functools.cache  # built once per process: parsing never changes it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisplit",
        description="Verification toolkit for three-component exponential splittings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, own_flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file (see README for the grammar)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="directory for CSV/JSON artifacts")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="artifact format"
        )
        for flag, options in own_flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_section(args.config, args.command)
        if args.seed is not None and "seed" in cfg:
            cfg["seed"] = str(args.seed)
        status, columns, rows = args.handler(args, cfg)
        if args.out:
            _write_artifact(args.out, args.command.replace("-", "_"), columns, rows, args.format)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InputError, OSError, OverflowError, MemoryError, ToleranceNotReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
