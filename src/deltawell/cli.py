"""Command-line interface.

Subcommands:

    solve           exact Volterra solve of ψ(0,t), dataset out
    approx          closed-form methods (first scheme / decay-ansatz forms)
    fit-c           fit the mixing weight c against the exact solve
    identity-check  verify the Airy integral identities on a value grid
    figures         run a figure preset (fig1a … fig3d)

solve, approx and figures share one handler and differ only in their
defaults.  For every scenario field the defaults come first, then the
--config file (a JSON object of ScenarioConfig fields only), then the
flags.  fit-c sets c = "fit", takes no c (flag or file) and writes the
summary of the exact series and the chosen methods.

Exit codes: 0 success, 1 usage error, 2 numerical flag raised (partial
output is still written).  All dataset output is deterministic for a
fixed configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .identities import (
    GridPointError,
    check_airy_erf_identity,
    check_airy_fourier,
    check_z6_identity,
)
from .scenario import (
    ANSATZ_SOURCES,
    METHODS,
    PRESETS,
    ScenarioConfig,
    preset_config,
    result_to_csv,
    result_to_json,
    run_scenario,
    summary_to_json,
)
from .volterra import RULE_ORDER

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
    # a scenario flag's dest is its ScenarioConfig field, which _load_config looks up by name
    p.add_argument("--f", type=float, help="relative field strength f = mF/(hbar^2 B^3)")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--steps", type=int, dest="n_steps")
    p.add_argument("--rule", choices=tuple(RULE_ORDER))
    p.add_argument("--c", help="mixing weight in [0,1], or 'fit'")
    p.add_argument("--ansatz", choices=ANSATZ_SOURCES, dest="ansatz_source")
    p.add_argument("--gamma", type=float, help="explicit ansatz decay rate")
    p.add_argument("--delta", type=float, help="explicit ansatz level shift")
    p.add_argument("--config", help="JSON config file (flags override file values)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="dataset format (default csv)")


def _add_method_flag(p: argparse.ArgumentParser):
    p.add_argument(
        "--method", action="append", dest="methods", choices=[m for m in METHODS if m != "exact"],
        help="may be repeated; default decay_combined",
    )


def _load_config(args, defaults: dict) -> ScenarioConfig:
    # precedence for every field: flags over the --config file over ``defaults``
    base = dict(defaults)
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        unknown = set(doc) - set(ScenarioConfig.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        base.update(doc)
    for key in ScenarioConfig.__dataclass_fields__:
        v = getattr(args, key, None)
        if v is not None:
            base[key] = v
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


def _write(path: str, text: str) -> None:
    # an OSError of the dataset workers (ChildProcessError) is not a write
    # failure, so the writes catch it themselves rather than main
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _emit_result(result, args) -> int:
    fmt = args.format or "csv"
    text = result_to_csv(result) if fmt == "csv" else result_to_json(result)
    if args.out:
        _write(args.out, text)
        if fmt == "csv":
            _write(args.out + ".summary.json", summary_to_json(result))
    else:
        sys.stdout.write(text)
    return _exit_code(result)


def _exit_code(result) -> int:
    """0, or FLAGGED_EXIT with the run's flags on stderr."""
    if result.flags:
        print(f"numerical flags: {', '.join(result.flags)}", file=sys.stderr)
        return FLAGGED_EXIT
    return 0


_DEFAULT_METHODS = {"solve": ("exact",), "approx": ("decay_combined",)}


def _cmd_scenario(args) -> int:
    # solve, approx and figures differ only in the defaults under the file and the flags
    if args.command == "figures":
        try:
            defaults = asdict(preset_config(args.preset))
        except ValueError as exc:
            raise UsageError(str(exc))
    else:
        defaults = {"methods": _DEFAULT_METHODS[args.command]}
    return _emit_result(run_scenario(_load_config(args, defaults)), args)


def _cmd_fit_c(args) -> int:
    config = _load_config(args, {"methods": ("decay_combined",)})
    if config.c is not None:
        raise UsageError("fit-c fits c itself and takes no c, from --c or the config file")
    methods = ("exact", *(m for m in config.methods if m != "exact"))
    result = run_scenario(replace(config, c="fit", methods=methods))
    print(f"fitted c = {result.summary['fitted_c']:.4f}")
    if args.out:
        _write(args.out, summary_to_json(result))
    return _exit_code(result)


_IDENTITY_GRIDS = {
    "z6": ("0.1", "1", "2", "5j", "1+3j"),
    "airy_fourier": ("0", "1", "-1", "2"),
    "airy_erf": ("0", "0.3", "0.2"),
}
_IDENTITY_TOL = {"z6": ("rel", 1e-9), "airy_fourier": ("abs", 1e-12), "airy_erf": ("rel", 1e-13)}


def _cmd_identity_check(args) -> int:
    selector = args.selector
    points = _IDENTITY_GRIDS[selector] if args.points is None else args.points.split(",")
    kind, tol = _IDENTITY_TOL[selector]
    # looked up per call, so that a rebinding of the module names is seen;
    # the whole grid is one call, which checks every point before it computes
    check = {
        "z6": check_z6_identity,
        "airy_fourier": check_airy_fourier,
        "airy_erf": check_airy_erf_identity,
    }[selector]
    values = []
    for token in points:
        try:
            values.append(complex(token) if selector != "airy_fourier" else float(token))
        except ValueError:
            raise UsageError(f"bad grid point {token!r}")
    try:
        rows = check(values)
    except GridPointError as exc:  # point outside the validated range
        raise UsageError(f"grid point {points[exc.index]!r}: {exc}")
    print("point,abs_err,rel_err,flags")
    failures = 0
    for token, r in zip(points, rows):
        print(f"{token},{r.abs_err:.3e},{r.rel_err:.3e},{'|'.join(r.flags)}")
        err = r.abs_err if kind == "abs" else r.rel_err
        if not r.flags and not err <= tol:  # a NaN row fails too
            failures += 1
    if failures:
        print(f"{failures} unflagged row(s) beyond tolerance {tol:g} ({kind})", file=sys.stderr)
        return FLAGGED_EXIT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deltawell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact Volterra solve")
    _add_scenario_flags(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("approx", help="closed-form approximations")
    _add_scenario_flags(p)
    _add_method_flag(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("fit-c", help="fit the mixing weight against the exact solve")
    _add_scenario_flags(p)
    _add_method_flag(p)
    p.set_defaults(func=_cmd_fit_c)

    p = sub.add_parser("identity-check", help="verify Airy integral identities")
    p.add_argument("selector", choices=("airy_fourier", "z6", "airy_erf"))
    p.add_argument("--points", help="comma-separated grid values (complex literals allowed)")
    # argparse takes a token that starts with "-" for an option unless it is
    # a plain negative number, so "--points -1,2" would lose its grid; here
    # "-" and a digit, or "-." and a digit, starts a value, as no option does
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("figures", help="run a figure preset")
    p.add_argument("preset", help=f"one of {', '.join(sorted(PRESETS))}")
    _add_scenario_flags(p)
    p.set_defaults(func=_cmd_scenario)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one per process: building it takes about 55 add_argument calls, and
    # parse_args keeps no state in it from one call to the next
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        return exc.code
    except ArithmeticError as exc:  # NumericsError, or a float overflow on the way
        print(f"numerical failure: {exc}", file=sys.stderr)
        return FLAGGED_EXIT


if __name__ == "__main__":
    sys.exit(main())
