"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one report line per
criterion.  The reference solves behind criteria 2-6 are shared through a
module fixture; each case stays far below its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from deltawell.analysis import (
    count_extrema,
    density_proxy,
    extract_rate_shift,
    fit_c,
    plateau,
)
from deltawell.approx import DecayAnsatz, YArgs, decay_closed_pair, wkb_constants, y_integral
from deltawell.identities import (
    check_airy_erf_identity,
    check_airy_fourier,
    check_z6_identity,
)
from deltawell.params import default_units
from deltawell.volterra import ComplexSeries, TimeGrid, bound_overlap, solve_psi0

# reference values: f -> (Gamma_f, Delta_f, grid)
REFERENCE = {
    0.1: (0.0010, -0.0072, TimeGrid(60.0, 12000)),
    0.5: (0.1896, -0.0738, TimeGrid(40.0, 12000)),
    1.0: (0.52916, -0.10722, TimeGrid(22.0, 11000)),
    2.0: (1.2115, -0.11235, TimeGrid(20.0, 20000)),
}


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    runs = {}
    for f, (gam_ref, del_ref, grid) in REFERENCE.items():
        t0 = time.time()
        params = default_units(f)
        sol = solve_psi0(params, grid)
        rss = extract_rate_shift(sol.series, params)
        gam, dl = plateau(rss)
        runs[f] = dict(
            params=params, sol=sol, gamma=gam, delta=dl,
            gamma_ref=gam_ref, delta_ref=del_ref, elapsed=time.time() - t0,
        )
    return runs


def test_criterion_1_field_free_exactness():
    t0 = time.time()
    params = default_units(0.0)
    grid = TimeGrid(10.0, 10000)  # h = 1e-3
    sol = solve_psi0(params, grid)
    err = float(np.abs(sol.psi0 - np.exp(0.5j * grid.nodes)).max())
    elapsed = time.time() - t0
    _report(
        "criterion 1 (field-free exactness)",
        err <= 1e-6 and elapsed <= 60.0,
        f"max err {err:.2e} (tol 1e-6), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_decay_rates(reference_runs):
    tols = {0.1: 0.20, 0.5: 0.02, 1.0: 0.02, 2.0: 0.02}
    details = []
    ok = True
    for f, run in reference_runs.items():
        rel = abs(run["gamma"] - run["gamma_ref"]) / run["gamma_ref"]
        ok &= rel <= tols[f] and run["elapsed"] <= 300.0
        details.append(f"f={f}: {run['gamma']:.5f} vs {run['gamma_ref']} ({rel:.2%}, {run['elapsed']:.0f}s)")
    _report("criterion 2 (reference decay rates)", ok, "; ".join(details))


def test_criterion_3_level_shifts(reference_runs):
    tols = {0.5: 0.05, 1.0: 0.05, 2.0: 0.10}
    details = []
    ok = True
    for f, tol in tols.items():
        run = reference_runs[f]
        rel = abs(run["delta"] - run["delta_ref"]) / abs(run["delta_ref"])
        ok &= rel <= tol
        details.append(f"f={f}: {run['delta']:.5f} vs {run['delta_ref']} ({rel:.2%})")
    _report("criterion 3 (reference level shifts)", ok, "; ".join(details))


def test_criterion_4_wkb_agreement(reference_runs):
    d_wkb, _ = wkb_constants(default_units(0.1))
    _, g_wkb = wkb_constants(default_units(1.0))
    rel_d = abs(d_wkb - reference_runs[0.1]["delta"]) / abs(reference_runs[0.1]["delta"])
    rel_g = abs(g_wkb - reference_runs[1.0]["gamma"]) / reference_runs[1.0]["gamma"]
    _report(
        "criterion 4 (WKB agreement regime)",
        rel_d <= 0.2 and rel_g <= 0.1,
        f"Delta@f=0.1: {rel_d:.2%} (tol 20%); Gamma@f=1: {rel_g:.2%} (tol 10%)",
    )


def test_criterion_5_closed_form_fidelity(reference_runs):
    details = []
    ok = True
    for f, c in ((0.5, 0.65), (1.0, 0.45)):
        run = reference_runs[f]
        params, sol = run["params"], run["sol"]
        ansatz = DecayAnsatz.explicit(params, run["gamma_ref"], run["delta_ref"], c=c)
        t = sol.grid.nodes
        stride = max(1, int(round(0.05 / sol.grid.h)))
        idx = np.arange(stride, len(t), stride)
        idx = idx[t[idx] <= 15.0]
        pairs = [decay_closed_pair(params, t[i], ansatz) for i in idx]
        comb = np.array([c * a + (1.0 - c) * m for a, m in pairs])
        comb2 = np.abs(comb) ** 2
        exact2 = np.abs(sol.psi0[idx]) ** 2
        sel10 = t[idx] <= 10.0
        max_dev = float(np.abs(comb2 - exact2)[sel10].max())
        n_max, n_min = count_extrema(t[idx], comb2, 2.0, 15.0)
        ansatz_mono = True  # |√B e^{−iEt}|² = B e^{−Γt} is strictly monotone
        case_ok = max_dev <= 0.05 and n_max >= 1 and n_min >= 1 and ansatz_mono
        ok &= case_ok
        details.append(
            f"f={f}, c={c}: max||comb|²−|exact|²| = {max_dev:.3f} (tol 0.05), "
            f"combined extrema in [2,15] = ({n_max},{n_min}) (need >=1 pair)"
        )
    _report("criterion 5 (closed-form fidelity & ripples)", ok, "; ".join(details))


def test_criterion_6_fit_recovery(reference_runs):
    details = []
    ok = True
    for f, lo, hi in ((0.5, 0.55, 0.75), (1.0, 0.35, 0.55)):
        run = reference_runs[f]
        params, sol = run["params"], run["sol"]
        stride = 12 if f == 0.5 else 10
        grid = TimeGrid(sol.grid.t_max, sol.grid.n_steps // stride)
        series = ComplexSeries(grid, sol.psi0[::stride])
        base = DecayAnsatz.explicit(params, run["gamma_ref"], run["delta_ref"])
        fit = fit_c(series, params, base)
        ok &= lo <= fit.c <= hi and not fit.multimodal
        details.append(f"f={f}: c = {fit.c:.3f} (want [{lo}, {hi}])")
    _report("criterion 6 (fit recovery)", ok, "; ".join(details))


def test_criterion_7_y_dual_path():
    t0 = time.time()
    xi1s = [0.0, 2.5j, 10.0j, 5.0, 3.0 + 3.0j]
    xi2s = [0.0, 1.0, 5.0j, 10.0, 2.0 + 2.0j]
    worst = 0.0
    for x1 in xi1s:
        for x2 in xi2s:
            args = YArgs(complex(x1), complex(x2))
            ys = y_integral(args, "series")
            yq = y_integral(args, "quadrature")
            worst = max(worst, abs(ys - yq) / max(abs(yq), 1e-300))
    elapsed = time.time() - t0
    _report(
        "criterion 7 (Y dual-path property)",
        worst <= 1e-8 and elapsed <= 10.0,
        f"25-point grid worst rel diff {worst:.2e} (tol 1e-8) in {elapsed:.1f}s",
    )


def test_criterion_8_identity_suite():
    z6_worst = max(
        check_z6_identity(x).rel_err for x in (0.1, 1.0, 2.0, 5.0j, 1.0 + 3.0j)
    )
    af_worst = max(check_airy_fourier(e).abs_err for e in (0.0, 1.0, -1.0, 2.0))
    erf_report = check_airy_erf_identity(0.3)
    ok = (
        z6_worst <= 1e-9
        and af_worst <= 1e-6
        and erf_report.rel_err <= 1e-3
        and erf_report.ok
    )
    _report(
        "criterion 8 (identity suite)",
        ok,
        f"z6 worst rel {z6_worst:.1e} (tol 1e-9); Airy-Fourier worst abs "
        f"{af_worst:.1e} (tol 1e-6); erf-Airy rel {erf_report.rel_err:.1e} (tol 1e-3)",
    )


def test_criterion_9_convergence_order():
    details = []
    ok = True
    for f in (0.1, 1.0):
        params = default_units(f)
        sols = [
            solve_psi0(params, TimeGrid(5.0, n)).psi0
            for n in (500, 1000, 2000, 4000)
        ]
        diffs = [
            float(np.abs(sols[i + 1][::2] - sols[i]).max()) for i in range(3)
        ]
        orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
        ok &= all(1.8 <= p <= 2.2 for p in orders)
        details.append(f"f={f}: p = {', '.join(f'{p:.2f}' for p in orders)}")
    _report("criterion 9 (Richardson order in [1.8, 2.2])", ok, "; ".join(details))


def test_criterion_10_overlap_proxy_consistency():
    params = default_units(1.0)
    grid = TimeGrid(10.0, 2000)
    sol = solve_psi0(params, grid)
    proxy = density_proxy(sol.series, params)
    worst = 0.0
    for t in (1.0, 2.0, 4.0, 6.0, 8.0, 10.0):
        _, prob = bound_overlap(sol, t)
        worst = max(worst, abs(prob - proxy[grid.index_of(t)]))
    _report(
        "criterion 10 (overlap vs proxy)",
        worst <= 0.15,
        f"max |P(t) - proxy(t)| = {worst:.3f} (tol 0.15) for f=1, t in [0,10]",
    )
