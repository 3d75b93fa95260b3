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
from dataclasses import dataclass, field, asdict

import numpy as np

from .analysis import density_proxy, extract_rate_shift, fit_c, plateau
from .approx import DecayAnsatz, decay_closed_psi0, first_scheme_psi0
from .errors import NumericsError
from .params import PhysParams, derive_params
from .volterra import ComplexSeries, TimeGrid, VolterraSolution, solve_psi0

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario", "PRESETS", "preset_config"]

METHODS = (
    "exact",
    "first_scheme",
    "exp_ansatz",
    "decay_additive",
    "decay_multiplicative",
    "decay_combined",
)

COLUMNS = ("t", "re", "im", "abs2", "gamma", "delta", "proxy", "method")


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
    ansatz_source: str = "auto"  # wkb | fit | explicit | auto
    gamma: object = None
    delta: object = None
    rule: str = "linear"

    def validate(self):
        if not (self.f >= 0 and math.isfinite(self.f)):
            raise ValueError(f"f must be finite and >= 0, got {self.f}")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n_steps < 10:
            raise ValueError("n_steps must be >= 10")
        if not self.methods:
            raise ValueError("at least one method must be selected")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {METHODS})")
        if self.ansatz_source not in ("wkb", "fit", "explicit", "auto"):
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

    def params(self) -> PhysParams:
        B = self.mass * self.v0 / self.hbar**2
        field_strength = self.f * self.hbar**2 * B**3 / self.mass
        return derive_params(self.hbar, self.mass, self.v0, field_strength)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    grid: TimeGrid
    series: dict          # method -> ComplexSeries
    tables: dict          # method -> structured column dict
    summary: dict
    flags: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.flags


def _needs_exact(config: ScenarioConfig) -> bool:
    if "exact" in config.methods:
        return True
    if config.c == "fit":
        return True
    src = config.ansatz_source
    if src == "fit" or (src == "auto" and config.f > 0.2):
        return True
    return False


def _build_ansatz(config, params, exact_sol: VolterraSolution | None, summary) -> DecayAnsatz:
    src = config.ansatz_source
    if src == "auto":
        src = "wkb" if config.f <= 0.2 else "fit"
    if src == "explicit":
        return DecayAnsatz.explicit(params, float(config.gamma), float(config.delta))
    if src == "wkb":
        summary["ansatz_source"] = "wkb"
        return DecayAnsatz.from_wkb(params)
    rss = extract_rate_shift(exact_sol.series, params)
    gam, del_ = plateau(rss)
    summary["ansatz_source"] = "fit"
    return DecayAnsatz.explicit(params, max(gam, 0.0), del_)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    config.validate()
    params = config.params()
    grid = TimeGrid(config.t_max, config.n_steps)
    t = grid.nodes
    summary: dict = {"f": config.f, "rule": config.rule}
    flags: list = []

    exact_sol = None
    if _needs_exact(config):
        exact_sol = solve_psi0(params, grid, config.rule)
        flags.extend(exact_sol.flags)
        summary["err_est"] = exact_sol.err_est

    ansatz = None
    needs_ansatz = any(m.startswith("decay") or m == "exp_ansatz" for m in config.methods)
    if needs_ansatz:
        if config.ansatz_source == "explicit":
            summary["ansatz_source"] = "explicit"
        ansatz = _build_ansatz(config, params, exact_sol, summary)
        summary["ansatz_gamma"] = ansatz.gamma
        summary["ansatz_delta"] = ansatz.delta

        c_val = config.c
        if c_val == "fit":
            fit = fit_c(exact_sol.series, params, ansatz)
            summary["fitted_c"] = fit.c
            if fit.multimodal:
                flags.append("fit_c_multimodal")
            c_val = fit.c
        elif c_val is None:
            c_val = 1.0
        ansatz = DecayAnsatz(E_f=ansatz.E_f, gamma=ansatz.gamma, delta=ansatz.delta, c=float(c_val))
        summary["c"] = ansatz.c

    series: dict = {}
    for m in config.methods:
        if m == "exact":
            series[m] = exact_sol.series
        elif m == "first_scheme":
            series[m] = ComplexSeries(grid, first_scheme_psi0(params, t))
        else:
            form = {"exp_ansatz": "ansatz_only"}.get(m, m.removeprefix("decay_"))
            vals = np.array([decay_closed_psi0(params, ti, ansatz, form) for ti in t])
            series[m] = ComplexSeries(grid, vals)

    tables: dict = {}
    for m, s in series.items():
        proxy = density_proxy(s, params)
        try:
            rss = extract_rate_shift(s, params)
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

    return ScenarioResult(
        config=config, grid=grid, series=series, tables=tables,
        summary=summary, flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _config_lines(config: ScenarioConfig):
    d = asdict(config)
    d["methods"] = ",".join(config.methods)
    return [f"# {k} = {d[k]}" for k in sorted(d)]


def result_to_csv(result: ScenarioResult) -> str:
    lines = ["# deltawell scenario dataset"]
    lines.extend(_config_lines(result.config))
    lines.append(",".join(COLUMNS))
    for m in result.config.methods:
        tb = result.tables[m]
        cols = [tb[c] for c in COLUMNS[:-1]]
        for row in zip(*cols):
            lines.append(",".join(repr(float(v)) for v in row) + f",{m}")
    return "\n".join(lines) + "\n"


def summary_to_json(result: ScenarioResult) -> str:
    doc = {
        "config": {**asdict(result.config), "methods": list(result.config.methods)},
        "summary": result.summary,
        "flags": list(result.flags),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


def result_to_json(result: ScenarioResult) -> str:
    doc = {
        "config": {**asdict(result.config), "methods": list(result.config.methods)},
        "summary": result.summary,
        "flags": list(result.flags),
        "rows": {
            m: {c: [float(v) for v in tb[c]] for c in COLUMNS[:-1]}
            for m, tb in result.tables.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


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
