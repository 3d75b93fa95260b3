"""Scenario runner: turn a configuration into per-method ψ(0,t) datasets,
derived columns and a summary record.

A scenario fixes the well/units, the relative field strength f, a time
grid and a set of methods.  Every method produces the same row schema

    t, re, im, abs2, gamma, delta, proxy, method

(running decay rate and level shift, density proxy 1 − |ψ|²/B), and the
summary carries the plateau estimates, the solver error estimate and the
fitted mixing weight when requested.  Output is deterministic for a fixed
configuration: one row per node, shortest-roundtrip float formatting.

The fig1a–fig3d presets encode the reference parameter sets (f, mixing
weight c, and the straight-line decay constants) used throughout the test
suite.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .analysis import density_proxy, extract_rate_shift, fit_c, plateau
from .approx import DecayAnsatz, decay_closed_psi0, first_scheme_psi0
from .errors import NumericsError
from .params import PhysParams, derive_params
from .volterra import RULE_ORDER, ComplexSeries, TimeGrid, VolterraSolution, solve_psi0

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario", "PRESETS", "preset_config"]

METHODS = (
    "exact",
    "first_scheme",
    "exp_ansatz",
    "decay_additive",
    "decay_multiplicative",
    "decay_combined",
)

ANSATZ_SOURCES = ("wkb", "fit", "explicit", "auto")

COLUMNS = ("t", "re", "im", "abs2", "gamma", "delta", "proxy", "method")
_CSV_CHUNK = 4096  # rows converted to Python floats at a time
# rows per formatting block, at least: the smallest table at which two blocks
# beat one in 9 of 10 alternating trials (each the best of 5 per side) had
# 6 000 rows, on 2 vCPUs with Python 3.11; below about 2 000 rows the fork
# costs more than the second CPU saves
_MIN_BLOCK_ROWS = 3000


@dataclass
class ScenarioConfig:
    f: float = 0.1
    hbar: float = 1.0
    mass: float = 1.0
    v0: float = 1.0
    t_max: float = 20.0
    n_steps: int = 8000
    methods: tuple = ("exact",)
    c: object = None          # float, "fit", or None (→ 1.0)
    ansatz_source: str = "auto"  # one of ANSATZ_SOURCES
    gamma: object = None
    delta: object = None
    rule: str = "linear"

    def validate(self):
        for name in ("f", "hbar", "mass", "v0", "t_max", "c", "gamma", "delta"):
            v = getattr(self, name)
            if isinstance(v, bool):  # JSON true would run as the number 1
                raise ValueError(f"{name} must be a number, got {v!r}")
        if not (self.f >= 0 and math.isfinite(self.f)):
            raise ValueError(f"f must be finite and >= 0, got {self.f}")
        for name in ("hbar", "mass", "v0", "t_max"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 10:
            raise ValueError("n_steps must be >= 10")
        if self.rule not in RULE_ORDER:
            raise ValueError(f"unknown rule {self.rule!r} (choose from {tuple(RULE_ORDER)})")
        if not self.methods:
            raise ValueError("at least one method must be selected")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {METHODS})")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {list(self.methods)}")
        if self.ansatz_source not in ANSATZ_SOURCES:
            raise ValueError(f"unknown ansatz_source {self.ansatz_source!r}")
        if self.ansatz_source == "explicit":
            if self.gamma is None or self.delta is None:
                raise ValueError("explicit ansatz requires gamma and delta")
            if not (self.gamma >= 0 and math.isfinite(self.gamma) and math.isfinite(self.delta)):
                raise ValueError("explicit ansatz requires finite gamma >= 0 and finite delta")
        if isinstance(self.c, str):
            if self.c != "fit":
                raise ValueError(f"c must be a number, 'fit' or omitted, got {self.c!r}")
        elif self.c is not None and not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must lie in [0, 1], got {self.c}")
        try:
            F = self.params().field  # ValueError when B, E_b or the field leave the float range
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"hbar, mass, v0 and f leave the floating-point range: {exc}") from exc
        # t_max³ and the Volkov phase F²t³/(6mℏ) enter every kernel and forcing sample
        cube = self.t_max * self.t_max * self.t_max
        if not math.isfinite(F * F * cube / (6.0 * self.mass) / self.hbar):
            raise ValueError(f"t_max = {self.t_max}: t_max^3 or the field phase F^2 t_max^3 is not finite")

    def params(self) -> PhysParams:
        B = self.mass * self.v0 / self.hbar**2
        field_strength = self.f * self.hbar**2 * B**3 / self.mass
        return derive_params(self.hbar, self.mass, self.v0, field_strength)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    tables: dict          # method -> structured column dict
    summary: dict
    flags: tuple = field(default_factory=tuple)


def _build_ansatz(config, source, params, exact_sol: VolterraSolution | None) -> DecayAnsatz:
    if source == "explicit":
        return DecayAnsatz.explicit(params, float(config.gamma), float(config.delta))
    if source == "wkb":
        return DecayAnsatz.from_wkb(params)
    try:
        gam, del_ = plateau(extract_rate_shift(exact_sol))
    except ValueError as exc:
        raise NumericsError(f"cannot fit the decay ansatz to the exact series: {exc}") from exc
    return DecayAnsatz.explicit(params, max(gam, 0.0), del_)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    config.validate()
    params = config.params()
    grid = TimeGrid(config.t_max, config.n_steps)
    t = grid.nodes
    summary: dict = {"f": config.f, "rule": config.rule}
    flags: list = []

    # the plan: each product is computed only when an output needs it
    source = config.ansatz_source
    if source == "auto":
        source = "wkb" if config.f <= 0.2 else "fit"
    fit = config.c == "fit"
    needs_ansatz = fit or any(m.startswith("decay") or m == "exp_ansatz" for m in config.methods)

    exact_sol = None
    if "exact" in config.methods or (needs_ansatz and (fit or source == "fit")):
        exact_sol = solve_psi0(params, grid, config.rule)
        flags.extend(exact_sol.flags)
        summary["err_est"] = exact_sol.err_est

    ansatz = None
    if needs_ansatz:
        ansatz = _build_ansatz(config, source, params, exact_sol)
        summary["ansatz_source"] = source
        summary["ansatz_gamma"] = ansatz.gamma
        summary["ansatz_delta"] = ansatz.delta

        c_val = config.c
        if fit:
            fit_result = fit_c(exact_sol, ansatz)
            summary["fitted_c"] = fit_result.c
            if fit_result.multimodal:
                flags.append("fit_c_multimodal")
            if fit_result.undetermined:
                flags.append("fit_c_undetermined")
            c_val = fit_result.c
        elif c_val is None:
            c_val = 1.0
        ansatz = DecayAnsatz(E_f=ansatz.E_f, gamma=ansatz.gamma, delta=ansatz.delta, c=float(c_val))
        summary["c"] = ansatz.c

    tables: dict = {}
    for m in config.methods:
        if m == "exact":
            s = exact_sol
        else:
            if m == "first_scheme":
                values = first_scheme_psi0(params, t)
            else:
                form = {"exp_ansatz": "ansatz_only"}.get(m, m.removeprefix("decay_"))
                values = decay_closed_psi0(params, t, ansatz, form)
            if not np.all(np.isfinite(values)):
                raise NumericsError(f"{m} is not finite on this grid")
            s = ComplexSeries(grid, values, params)
        proxy = density_proxy(s)
        try:
            rss = extract_rate_shift(s)
            gamma, delta = rss.gamma, rss.delta
            gam_bar, del_bar = plateau(rss)
            summary[f"{m}_gamma_plateau"] = gam_bar
            summary[f"{m}_delta_plateau"] = del_bar
        except (ValueError, NumericsError) as exc:
            gamma = np.full(t.shape, math.nan)
            delta = np.full(t.shape, math.nan)
            flags.append(f"{m}_extraction_failed")
            summary[f"{m}_extraction_error"] = str(exc)
        tables[m] = {
            "t": t,
            "re": s.values.real,
            "im": s.values.imag,
            "abs2": np.abs(s.values) ** 2,
            "gamma": gamma,
            "delta": delta,
            "proxy": proxy,
        }

    return ScenarioResult(config=config, tables=tables, summary=summary, flags=tuple(flags))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _config_lines(config: ScenarioConfig):
    d = asdict(config)
    d["methods"] = ",".join(config.methods)
    return [f"# {k} = {d[k]}" for k in sorted(d)]


def _csv_rows(cols: list, lo: int, hi: int) -> str:
    """Data rows lo … hi − 1 of the dataset, joined by newlines, from its
    flat columns: the float columns of COLUMNS[:-1], each over the methods
    in order, then the list of every row's method."""
    *floats, names = cols
    lines = []
    for a in range(lo, hi, _CSV_CHUNK):
        b = min(a + _CSV_CHUNK, hi)
        # .tolist() gives Python floats, whose repr is the shortest round-trip
        # form; chunks bound the memory those floats take
        cells = [map(repr, c[a:b].tolist()) for c in floats]
        lines.extend(map(",".join, zip(*cells, names[a:b])))
    return "\n".join(lines)


def _block_count(rows: int) -> int:
    # where os.fork or os.sched_getaffinity is missing, one in-process block
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _MIN_BLOCK_ROWS))


def _fork_block(cols: list, lo: int, hi: int, inherited) -> tuple[int, int]:
    """Format rows lo … hi − 1 in a forked worker; returns its pid and the
    read end of the pipe that carries its text.  Fork, not spawn: the worker
    inherits the columns instead of importing numpy and receiving a pickled
    copy, and it runs only slicing, .tolist() and float repr, so it takes
    no lock that another thread (a BLAS pool) could hold at the fork."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the worker leaves only through os._exit, never into the caller
        code = 1
        try:
            for fd in (r, *inherited):
                os.close(fd)
            with open(w, "wb") as out:
                out.write(_csv_rows(cols, lo, hi).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _data_rows(tables: dict, methods) -> list:
    """The dataset's data rows as contiguous blocks, one per usable CPU
    when the table is large enough: block 0 is formatted here, each other
    block in a forked worker, all by ``_csv_rows`` over the same flat
    columns, built once here.  Every worker is reaped, also when this
    raises, and one that fails raises ChildProcessError."""
    cols = [np.concatenate([tables[m][c] for m in methods]) for c in COLUMNS[:-1]]
    names = [m for m in methods for _ in range(len(tables[m]["t"]))]
    cols.append(names)
    n = _block_count(len(names))
    edges = [len(names) * k // n for k in range(n + 1)]
    workers = []  # (pid, read end) of blocks 1 … n − 1
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            workers.append(_fork_block(cols, lo, hi, [r for _, r in workers]))
        blocks = [_csv_rows(cols, 0, edges[1])]
        for _, r in workers:
            with open(r, "rb", closefd=False) as pipe:
                blocks.append(pipe.read().decode())
    finally:
        for _, r in workers:
            os.close(r)
        codes = [(pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])) for pid, _ in workers]
    failed = [f"{pid} (exit {code})" for pid, code in codes if code != 0]
    if failed:
        raise ChildProcessError(f"dataset worker(s) failed: {', '.join(failed)}")
    return blocks


def result_to_csv(result: ScenarioResult) -> str:
    rows = _data_rows(result.tables, result.config.methods)
    # one join, whose last "" ends the text with a newline: no second copy
    return "\n".join(["# deltawell scenario dataset", *_config_lines(result.config), ",".join(COLUMNS), *rows, ""])


def _json(result: ScenarioResult, **extra) -> str:
    doc = {
        "config": {**asdict(result.config), "methods": list(result.config.methods)},
        "summary": result.summary,
        "flags": list(result.flags),
        **extra,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


def summary_to_json(result: ScenarioResult) -> str:
    return _json(result)


def result_to_json(result: ScenarioResult) -> str:
    return _json(result, rows={
        m: {c: tb[c].tolist() for c in COLUMNS[:-1]} for m, tb in result.tables.items()
    })


# ---------------------------------------------------------------------------
# figure presets: reference parameters (f, c) and the straight-line decay
# constants (gamma_d2, delta_d2) for the d2 reference curve
# ---------------------------------------------------------------------------

_PRESET_ROWS = {
    "a": dict(f=0.1, c=1.0, gamma_d2=0.0010, delta_d2=-0.0072, t_max=60.0, n_steps=12000),
    "b": dict(f=0.5, c=0.65, gamma_d2=0.1896, delta_d2=-0.0738, t_max=40.0, n_steps=12000),
    "c": dict(f=1.0, c=0.45, gamma_d2=0.52916, delta_d2=-0.10722, t_max=22.0, n_steps=11000),
    "d": dict(f=2.0, c=0.45, gamma_d2=1.2115, delta_d2=-0.11235, t_max=20.0, n_steps=20000),
}

PRESETS = {
    f"fig{fig}{row}": data
    for fig in (1, 2, 3)
    for row, data in _PRESET_ROWS.items()
}


def preset_config(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")
    p = PRESETS[name]
    return ScenarioConfig(
        f=p["f"],
        t_max=p["t_max"],
        n_steps=p["n_steps"],
        methods=("exact", "decay_combined", "first_scheme", "exp_ansatz"),
        c=p["c"],
        ansatz_source="explicit",
        gamma=p["gamma_d2"],
        delta=p["delta_d2"],
    )
