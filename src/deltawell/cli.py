"""Command-line interface.

Subcommands:

    solve           exact Volterra solve of ψ(0,t), dataset out
    approx          closed-form methods (first scheme / decay-ansatz forms)
    fit-c           fit the mixing weight c against the exact solve
    identity-check  verify the Airy integral identities on a value grid
    figures         run a figure preset (fig1a … fig3d)

Exit codes: 0 success, 1 usage error, 2 numerical flag raised (partial
output is still written).  All dataset output is deterministic for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import NumericsError
from .identities import check_airy_fourier, check_airy_erf_identity, check_z6_identity
from .scenario import (
    METHODS,
    PRESETS,
    ScenarioConfig,
    preset_config,
    result_to_csv,
    result_to_json,
    run_scenario,
    summary_to_json,
)

USAGE_EXIT = 1
FLAGGED_EXIT = 2


class UsageError(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(USAGE_EXIT)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_scenario_flags(p: argparse.ArgumentParser):
    p.add_argument("--f", type=float, help="relative field strength f = mF/(hbar^2 B^3)")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--steps", type=int, dest="n_steps")
    p.add_argument("--rule", choices=("linear", "quadratic"))
    p.add_argument("--c", help="mixing weight in [0,1], or 'fit'")
    p.add_argument("--ansatz", choices=("wkb", "fit", "explicit", "auto"), dest="ansatz_source")
    p.add_argument("--gamma", type=float, help="explicit ansatz decay rate")
    p.add_argument("--delta", type=float, help="explicit ansatz level shift")
    p.add_argument("--config", help="JSON config file (flags override file values)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="dataset format (default csv)")


def _load_config(args, defaults: dict) -> ScenarioConfig:
    # precedence: flags over the --config file over ``defaults``
    base = dict(defaults)
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        unknown = set(doc) - set(ScenarioConfig.__dataclass_fields__) - {"methods", "out", "format"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        base.update(doc)
    for key in ("f", "t_max", "n_steps", "rule", "c", "ansatz_source", "gamma", "delta"):
        v = getattr(args, key, None)
        if v is not None:
            base[key] = v
    base.pop("out", None)
    base.pop("format", None)
    if isinstance(base.get("methods"), list):
        base["methods"] = tuple(base["methods"])
    if isinstance(base.get("c"), str) and base["c"] != "fit":
        try:
            base["c"] = float(base["c"])
        except ValueError:
            raise UsageError(f"--c must be a number or 'fit', got {base['c']!r}")
    try:
        config = ScenarioConfig(**base)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    return config


def _emit_result(result, args) -> int:
    fmt = args.format or "csv"
    text = result_to_csv(result) if fmt == "csv" else result_to_json(result)
    if args.out:
        Path(args.out).write_text(text)
        if fmt == "csv":
            Path(args.out + ".summary.json").write_text(summary_to_json(result))
    else:
        sys.stdout.write(text)
    if result.flags:
        print(f"numerical flags: {', '.join(result.flags)}", file=sys.stderr)
        return FLAGGED_EXIT
    return 0


def _cmd_solve(args) -> int:
    config = _load_config(args, {"methods": ("exact",)})
    return _emit_result(run_scenario(config), args)


def _cmd_approx(args) -> int:
    methods = tuple(args.method) if args.method else ("decay_combined",)
    config = _load_config(args, {"methods": methods})
    return _emit_result(run_scenario(config), args)


def _cmd_fit_c(args) -> int:
    args.c = "fit"
    if args.method:
        methods = ("exact",) + tuple(args.method)
    else:
        methods = ("exact", "decay_combined")
    config = _load_config(args, {"methods": methods})
    result = run_scenario(config)
    print(f"fitted c = {result.summary['fitted_c']:.4f}")
    if args.out:
        Path(args.out).write_text(summary_to_json(result))
    return FLAGGED_EXIT if result.flags else 0


_IDENTITY_GRIDS = {
    "z6": ("0.1", "1", "2", "5j", "1+3j"),
    "airy_fourier": ("0", "1", "-1", "2"),
    "airy_erf": ("0", "0.3", "0.2"),
}
_IDENTITY_CHECKS = {
    "z6": check_z6_identity,
    "airy_fourier": check_airy_fourier,
    "airy_erf": check_airy_erf_identity,
}
_IDENTITY_TOL = {"z6": ("rel", 1e-9), "airy_fourier": ("abs", 1e-6), "airy_erf": ("rel", 1e-3)}


def _cmd_identity_check(args) -> int:
    selector = args.selector
    points = args.points.split(",") if args.points else _IDENTITY_GRIDS[selector]
    kind, tol = _IDENTITY_TOL[selector]
    rows = []
    for token in points:
        try:
            value = complex(token) if selector != "airy_fourier" else float(token)
        except ValueError:
            raise UsageError(f"bad grid point {token!r}")
        try:
            rows.append(_IDENTITY_CHECKS[selector](value))
        except ValueError as exc:  # point outside the validated range
            raise UsageError(f"grid point {token!r}: {exc}")
    print("point,abs_err,rel_err,flags")
    failures = 0
    for token, r in zip(points, rows):
        print(f"{token},{r.abs_err:.3e},{r.rel_err:.3e},{'|'.join(r.flags)}")
        err = r.abs_err if kind == "abs" else r.rel_err
        if not r.flags and err > tol:
            failures += 1
    if failures:
        print(f"{failures} unflagged row(s) beyond tolerance {tol:g} ({kind})", file=sys.stderr)
        return FLAGGED_EXIT
    return 0


def _cmd_figures(args) -> int:
    try:
        preset = preset_config(args.preset)
    except ValueError as exc:
        raise UsageError(str(exc))
    config = _load_config(args, asdict(preset))
    return _emit_result(run_scenario(config), args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deltawell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact Volterra solve", parents=[], add_help=True)
    _add_scenario_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("approx", help="closed-form approximations")
    _add_scenario_flags(p)
    p.add_argument(
        "--method", action="append", choices=[m for m in METHODS if m != "exact"],
        help="may be repeated; default decay_combined",
    )
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("fit-c", help="fit the mixing weight against the exact solve")
    _add_scenario_flags(p)
    p.add_argument("--method", action="append", choices=[m for m in METHODS if m != "exact"])
    p.set_defaults(func=_cmd_fit_c)

    p = sub.add_parser("identity-check", help="verify Airy integral identities")
    p.add_argument("selector", choices=("airy_fourier", "z6", "airy_erf"))
    p.add_argument("--points", help="comma-separated grid values (complex literals allowed)")
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("figures", help="run a figure preset")
    p.add_argument("preset", help=f"one of {', '.join(sorted(PRESETS))}")
    _add_scenario_flags(p)
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        return exc.code
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return FLAGGED_EXIT


if __name__ == "__main__":
    sys.exit(main())
