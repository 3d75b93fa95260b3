"""Workloads of the deltawell benchmark: seeded job decks, the job
runners and the output checks.

A workload turns a seeded ``random.Random`` into decks of jobs.  A deck
is a fixed set of slots (which preset, subcommand or field strength, and
which stratum of each size range); the seed draws every size uniformly
inside its stratum and shuffles the run order.  Whole decks are measured,
so every run covers each draw range evenly and its throughput does not
hinge on how many large jobs a few draws happened to pick.

Jobs call the program the way a user would: the CLI jobs through
``cli.main`` with the generated argv, the library job through the public
functions of ``deltawell.volterra``.  Calls go through the module
attributes so that the traced run's wrappers see them.

``check`` returns the problems it finds in a job's output, plus a digest
of the values that the stored reference pins for the committed seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from deltawell import cli, volterra
from deltawell.approx import DecayAnsatz, YArgs, y_integral
from deltawell.params import default_units
from deltawell.propagator import volkov_phi
from deltawell.scenario import PRESETS, preset_config

# tolerances of the reference comparison (committed seed only)
PSI_TOL = 1e-9  # times max|psi| of the series
P_TOL = 1e-5
C_TOL = 2e-3
# closed forms against the recomputation with Y by quadrature
QUAD_REL_TOL = 1e-7
DIGEST_POINTS = 33


@dataclass(frozen=True)
class Job:
    kind: str
    spec: tuple  # CLI argv without --out, or the library job's inputs


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    path: Path | None


def deck_rng(workload: str, seed: int) -> random.Random:
    """The random stream a workload's decks are drawn from."""
    return random.Random(f"{workload}:{seed}")


def _stratum(rng: random.Random, lo: float, hi: float, index: int, count: int) -> float:
    return lo + (hi - lo) * (index + rng.random()) / count


def _series_digest(values: list[complex], max_abs: float) -> dict:
    n = len(values)
    idx = sorted({round(k * (n - 1) / (DIGEST_POINTS - 1)) for k in range(DIGEST_POINTS)})
    return {
        "max_abs": max_abs,
        "index": idx,
        "values": [[values[i].real, values[i].imag] for i in idx],
    }


def compare_to_reference(digest: dict, ref: dict) -> list[str]:
    """Problems of a job's digest against the stored one."""
    if digest["spec"] != ref["spec"]:
        return ["job inputs differ from the stored reference"]
    problems = []
    for label, want in ref.get("series", {}).items():
        got = digest["series"][label]
        tol = PSI_TOL * want["max_abs"]
        worst = max(
            abs(complex(*g) - complex(*w)) for g, w in zip(got["values"], want["values"])
        )
        if got["index"] != want["index"] or worst > tol:
            problems.append(f"{label}: deviates from reference by {worst:.3e} (tol {tol:.1e})")
    for got, want in zip(digest.get("P", []), ref.get("P", [])):
        if abs(got - want) > P_TOL:
            problems.append(f"P={got!r} deviates from reference {want!r} (tol {P_TOL:g})")
    if "c" in ref and abs(digest["c"] - ref["c"]) > C_TOL:
        problems.append(f"fitted c={digest['c']!r} deviates from reference {ref['c']!r}")
    return problems


def _run_cli(argv, out_path: Path | None) -> CliOutput:
    argv = list(argv) + (["--out", str(out_path)] if out_path else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return CliOutput(code, stdout.getvalue(), stderr.getvalue(), out_path)


def _read_dataset(path: Path) -> dict:
    """Rows of a CSV dataset grouped by method, each row a list of fields."""
    rows: dict = {}
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    for line in lines[start:]:
        fields = line.split(",")
        rows.setdefault(fields[-1], []).append(fields)
    return rows


def _dataset_checks(out: CliOutput, sqrt_b: float) -> tuple[list[str], dict, dict]:
    """Exit code, flags and ψ(0,0) = √B for every method of a dataset;
    returns (problems, rows by method, summary document)."""
    problems = []
    if out.code != 0:
        problems.append(f"exit code {out.code}: {out.stderr.strip()[-200:]}")
        return problems, {}, {}
    doc = json.loads(Path(f"{out.path}.summary.json").read_text())
    if doc["flags"]:
        problems.append(f"flags raised: {doc['flags']}")
    rows = _read_dataset(out.path)
    for method, rs in rows.items():
        psi00 = complex(float(rs[0][1]), float(rs[0][2]))
        if float(rs[0][0]) != 0.0 or abs(psi00 - sqrt_b) > 1e-12 * sqrt_b:
            problems.append(f"{method}: psi(0,0)={psi00!r}, want sqrt(B)={sqrt_b!r}")
    return problems, rows, doc


def _rows_digest(rows: list) -> dict:
    values = [complex(float(r[1]), float(r[2])) for r in rows]
    max_abs = math.sqrt(max(float(r[3]) for r in rows))
    return _series_digest(values, max_abs)


class ScenarioMix:
    """``deltawell figures`` on shortened fig1a–fig1d presets, one job in
    three fitting c: the paper's figure pipeline."""

    name = "scenario_mix"
    # preset, fit c, stratum of N and of the t_max factor (six of each)
    SLOTS = (
        ("fig1a", False, 1, 3),
        ("fig1b", False, 3, 0),
        ("fig1c", False, 5, 5),
        ("fig1d", False, 4, 1),
        ("fig1b", True, 0, 2),
        ("fig1c", True, 2, 4),
    )

    def deck(self, rng):
        jobs = []
        for preset, fit, n_stratum, t_stratum in self.SLOTS:
            n = round(_stratum(rng, 1000, 2000, n_stratum, 6))
            t_max = round(PRESETS[preset]["t_max"] * _stratum(rng, 0.3, 0.5, t_stratum, 6), 6)
            argv = ("figures", preset, "--t-max", repr(t_max), "--steps", str(n))
            jobs.append(Job("fit" if fit else "plain", argv + (("--c", "fit") if fit else ())))
        rng.shuffle(jobs)
        return jobs

    def minimal(self):
        return [Job("fit", ("figures", "fig1b", "--t-max", "2", "--steps", "100", "--c", "fit"))]

    def run(self, job, tmp):
        return _run_cli(job.spec, tmp / "job.csv")

    def check(self, job, out):
        argv = job.spec
        config = preset_config(argv[1])
        config.t_max, config.n_steps = float(argv[3]), int(argv[5])
        params = config.params()
        sqrt_b = math.sqrt(params.B)
        problems, rows, doc = _dataset_checks(out, sqrt_b)
        digest = {"spec": list(argv), "series": {m: _rows_digest(rs) for m, rs in rows.items()}}
        if not rows:
            return problems, digest
        summary = doc["summary"]
        if job.kind == "fit":
            digest["c"] = summary["fitted_c"]
            if not 0.0 <= summary["fitted_c"] <= 1.0:
                problems.append(f"fitted c={summary['fitted_c']!r} outside [0, 1]")
        ansatz = DecayAnsatz.explicit(params, config.gamma, config.delta, summary["c"])
        combined = rows["decay_combined"]
        n = len(combined) - 1
        for i in (n // 4, n // 2, n):
            t = float(combined[i][0])
            got = complex(float(combined[i][1]), float(combined[i][2]))
            want = _combined_by_quadrature(params, t, ansatz)
            if abs(got - want) > QUAD_REL_TOL * max(abs(want), 1e-300):
                problems.append(f"decay_combined at t={t!r}: {got!r} vs quadrature {want!r}")
        return problems, digest


def _combined_by_quadrature(params, t, ansatz):
    """The c-mixed closed form at one node with Y(t) by quadrature."""
    hbar, m, B = params.hbar, params.mass, params.B
    E = ansatz.E
    phi = complex(volkov_phi(0.0, t, params))
    pref = math.sqrt(2.0 * hbar * B**3 * t / (math.pi * m)) * np.exp(0.25j * math.pi)
    Y = y_integral(YArgs.from_time(params, t, E), "quadrature")
    additive = phi + pref * np.exp(-1j * E * t / hbar) * Y
    multiplicative = phi / (1.0 - pref * Y / math.sqrt(B))
    return complex(ansatz.c * additive + (1.0 - ansatz.c) * multiplicative)


@dataclass
class IonizationOutput:
    solution: volterra.VolterraSolution
    P: list
    psi_x: np.ndarray


class IonizationCurve:
    """Library job: solve ψ(0,t) to t = 4, the ionization probability P(t)
    at t = 1..4 and ψ(x, 4) at 256 points.  The minimal job skips P(t):
    one overlap costs more than a second at any grid size."""

    name = "ionization_curve"
    T_MAX = 4.0
    TIMES = (1.0, 2.0, 3.0, 4.0)
    # field strength f, stratum of N (six)
    SLOTS = ((0.5, 0), (0.5, 3), (1.0, 1), (1.0, 4), (2.0, 2), (2.0, 5))

    def deck(self, rng):
        jobs = []
        for f, n_stratum in self.SLOTS:
            # N divisible by 4 puts t = 1, 2, 3 on grid nodes
            n = 4 * round(_stratum(rng, 800, 1600, n_stratum, 6) / 4)
            xs = tuple(round(_stratum(rng, -20.0, 40.0, k, 256), 6) for k in range(256))
            jobs.append(Job("overlap", (f, n, xs, self.TIMES)))
        rng.shuffle(jobs)
        return jobs

    def minimal(self):
        return [Job("overlap", (1.0, 400, (-1.0, 2.0), ()))]

    def run(self, job, tmp):
        f, n, xs, times = job.spec
        sol = volterra.solve_psi0(default_units(f), volterra.TimeGrid(self.T_MAX, n))
        P = [volterra.bound_overlap(sol, t)[1] for t in times]
        psi_x = np.array([volterra.reconstruct_psi_x(sol, x, self.T_MAX) for x in xs])
        return IonizationOutput(sol, P, psi_x)

    def check(self, job, out):
        sol = out.solution
        sqrt_b = math.sqrt(sol.params.B)
        problems = []
        if sol.flags:
            problems.append(f"flags raised: {list(sol.flags)}")
        if abs(sol.psi0[0] - sqrt_b) > 1e-12 * sqrt_b:
            problems.append(f"psi(0,0)={complex(sol.psi0[0])!r}, want sqrt(B)={sqrt_b!r}")
        problems += [f"P={p!r} outside [0, 1]" for p in out.P if not 0.0 <= p <= 1.0]
        if not np.all(np.isfinite(out.psi_x)):
            problems.append("non-finite psi(x, t)")
        f, n, xs, times = job.spec
        digest = {
            "spec": [f, n, list(xs), list(times)],
            "series": {
                "psi0": _series_digest(list(sol.psi0), float(np.max(np.abs(sol.psi0)))),
                "psi_x": _series_digest(list(out.psi_x), float(np.max(np.abs(out.psi_x)))),
            },
            "P": list(out.P),
        }
        return problems, digest


class LongMarch:
    """``deltawell solve`` on long weak-field grids, linear and quadratic rule."""

    name = "long_march"
    # f, t_max, rule, stratum of N (six)
    SLOTS = (
        ("0.05", "200", "linear", 0),
        ("0.05", "200", "quadratic", 4),
        ("0.1", "200", "linear", 5),
        ("0.1", "200", "quadratic", 1),
        ("0.2", "120", "linear", 2),
        ("0.2", "120", "quadratic", 3),
    )

    def deck(self, rng):
        jobs = []
        for f, t_max, rule, n_stratum in self.SLOTS:
            n = round(_stratum(rng, 40000, 100000, n_stratum, 6))
            argv = ("solve", "--f", f, "--t-max", t_max, "--steps", str(n), "--rule", rule)
            jobs.append(Job(rule, argv))
        rng.shuffle(jobs)
        return jobs

    def minimal(self):
        return [
            Job(rule, ("solve", "--f", "0.1", "--t-max", "10", "--steps", "400", "--rule", rule))
            for rule in ("linear", "quadratic")
        ]

    def run(self, job, tmp):
        return _run_cli(job.spec, tmp / "job.csv")

    def check(self, job, out):
        problems, rows, _ = _dataset_checks(out, math.sqrt(default_units(0.0).B))
        digest = {"spec": list(job.spec), "series": {m: _rows_digest(rs) for m, rs in rows.items()}}
        return problems, digest


class IdentitySweep:
    """``deltawell identity-check`` over 40 drawn points per selector."""

    name = "identity_sweep"
    POINTS = 40

    def deck(self, rng):
        k = range(self.POINTS)
        im_order = list(k)
        rng.shuffle(im_order)
        z6 = [
            f"{_stratum(rng, 0.0, 5.0, i, self.POINTS):.6f}{_stratum(rng, -5.0, 5.0, j, self.POINTS):+.6f}j"
            for i, j in zip(k, im_order)
        ]
        eta = [f"{_stratum(rng, -2.0, 2.0, i, self.POINTS):.6f}" for i in k]
        chi = [f"{_stratum(rng, 0.0, 0.3, i, self.POINTS):.6f}" for i in k]
        jobs = [
            Job(selector, ("identity-check", selector, "--points=" + ",".join(points)))
            for selector, points in (("z6", z6), ("airy_fourier", eta), ("airy_erf", chi))
        ]
        rng.shuffle(jobs)
        return jobs

    def minimal(self):
        return [
            Job(selector, ("identity-check", selector, f"--points={point}"))
            for selector, point in (("z6", "1+1j"), ("airy_fourier", "0.5"), ("airy_erf", "0.1"))
        ]

    def run(self, job, tmp):
        return _run_cli(job.spec, None)

    def check(self, job, out):
        problems = []
        if out.code != 0:
            problems.append(f"exit code {out.code}: {out.stderr.strip()[-200:]}")
        rows = out.stdout.splitlines()[1:]
        points = job.spec[2].split("=", 1)[1].split(",")
        if len(rows) != len(points):
            problems.append(f"{len(rows)} result rows for {len(points)} points")
        flagged = [r for r in rows if r.split(",")[-1]]
        if flagged:
            problems.append(f"flagged rows: {flagged[:3]}")
        return problems, {"spec": list(job.spec)}


WORKLOADS = {w.name: w for w in (ScenarioMix(), IonizationCurve(), LongMarch(), IdentitySweep())}
