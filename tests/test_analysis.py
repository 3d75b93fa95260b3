import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltawell.analysis import (
    density_proxy,
    extract_rate_shift,
    fit_c,
    plateau,
)
from deltawell.approx import DecayAnsatz, _decay_pair, decay_closed_psi0
from deltawell.params import default_units
from deltawell.volterra import ComplexSeries, TimeGrid, solve_psi0
from oracles import count_extrema


def _series(grid, fn, p):
    return ComplexSeries(grid, fn(grid.nodes), p)


def test_extract_field_free_is_null():
    p = default_units(0.0)
    g = TimeGrid(10.0, 500)
    rss = extract_rate_shift(_series(g, lambda t: np.exp(0.5j * t), p))
    assert np.nanmax(np.abs(rss.gamma[1:])) < 1e-12
    assert np.nanmax(np.abs(rss.delta[1:])) < 1e-12


def test_extract_synthetic_ansatz_exact():
    # e^{−i(E_b + Δ − iΓ/2)t} with Δ = −0.1, Γ = 0.5 inverts exactly
    p = default_units(0.0)
    g = TimeGrid(10.0, 500)
    E = p.E_b - 0.1 - 0.25j
    rss = extract_rate_shift(_series(g, lambda t: np.exp(-1j * E * t), p))
    assert np.allclose(rss.gamma[1:], 0.5, atol=1e-10)
    assert np.allclose(rss.delta[1:], -0.1, atol=1e-10)
    gam, dl = plateau(rss)
    assert gam == pytest.approx(0.5, abs=1e-9)
    assert dl == pytest.approx(-0.1, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(0.0, 2.0),
    delta=st.floats(-0.2, 0.0),
)
def test_extract_roundtrip_property(gamma, delta):
    p = default_units(0.0)
    g = TimeGrid(5.0, 400)
    E = p.E_b + delta - 0.5j * gamma
    rss = extract_rate_shift(_series(g, lambda t: np.exp(-1j * E * t), p))
    assert np.allclose(rss.gamma[1:], gamma, atol=1e-9)
    assert np.allclose(rss.delta[1:], delta, atol=1e-9)


def test_extract_preconditions():
    p = default_units(0.0)
    g = TimeGrid(1.0, 10)
    with pytest.raises(ValueError, match="sqrt"):
        extract_rate_shift(ComplexSeries(g, np.full(11, 0.5 + 0j), p))
    # |psi| crossing the floor
    vals = np.exp(0.5j * g.nodes)
    vals[5] = 1e-13
    with pytest.raises(ValueError, match="log undefined"):
        extract_rate_shift(ComplexSeries(g, vals, p))
    # phase advance ~pi per step
    g2 = TimeGrid(10.0, 10)
    vals = np.exp(-3.13j * g2.nodes)
    vals[0] = 1.0
    with pytest.raises(ValueError, match="grid too coarse"):
        extract_rate_shift(ComplexSeries(g2, vals, p))


def test_plateau_needs_a_live_window():
    # |ψ/√B| = e^{−10t} stays above the amplitude floor 2.5e-3 only up to
    # node 5 (t = 0.5), too few nodes for the 1/t fit
    g = TimeGrid(1.0, 10)
    rss = extract_rate_shift(ComplexSeries(g, np.exp(-10.0 * g.nodes), default_units(1.0)))
    with pytest.raises(ValueError, match="series dies before a plateau window can be formed"):
        plateau(rss)


def test_plateau_from_exact_solve_f05(exact_f05):
    rss = extract_rate_shift(exact_f05)
    gam, dl = plateau(rss)
    assert abs(gam - 0.1896) / 0.1896 < 0.02
    assert abs(dl - (-0.0738)) / 0.0738 < 0.05


def test_density_proxy_basics():
    p = default_units(0.0)
    g = TimeGrid(5.0, 100)
    proxy = density_proxy(_series(g, lambda t: np.exp(0.5j * t), p))
    assert np.allclose(proxy, 0.0, atol=1e-14)
    assert proxy[0] == 0.0


def test_density_proxy_phase_invariance():
    p = default_units(0.0)
    g = TimeGrid(5.0, 100)
    vals = np.exp((-0.1 - 0.45j) * g.nodes)
    a = density_proxy(ComplexSeries(g, vals, p))
    b = density_proxy(ComplexSeries(g, vals * np.exp(0.7j), p))
    assert np.allclose(a, b, atol=1e-14)


def test_density_proxy_long_time_ionization():
    p = default_units(1.0)
    proxy = density_proxy(solve_psi0(p, TimeGrid(30.0, 9000)))
    assert proxy[-1] >= 0.9


def test_fit_recovers_endpoints(exact_f05):
    p = exact_f05.params
    base = DecayAnsatz.explicit(p, 0.1896, -0.0738)
    g = TimeGrid(15.0, 600)
    t = g.nodes
    add = ComplexSeries(g, np.array([decay_closed_psi0(p, ti, base, "additive") for ti in t]), p)
    mul = ComplexSeries(g, np.array([decay_closed_psi0(p, ti, base, "multiplicative") for ti in t]), p)
    fit_add = fit_c(add, base)
    fit_mul = fit_c(mul, base)
    assert fit_add.c == pytest.approx(1.0, abs=1e-3)
    assert fit_mul.c == pytest.approx(0.0, abs=1e-3)
    assert not fit_add.multimodal and not fit_mul.multimodal


def test_fit_flags_a_two_well_objective():
    # on the grid {0, t} (both forms are √B at t = 0) the objective is
    # (|mul + c·u|² − T)², u = add − mul, a quartic in c; with T =
    # |mul + c₀u|² + r²|u|² at the vertex c₀ of |mul + c·u|² its zeros
    # c₀ ± r are two interior minima, and the fit returns the better
    # scanned one with the flag set
    p = default_units(0.5)
    base = DecayAnsatz.explicit(p, 0.5, 0.3)
    g = TimeGrid(7.1, 1)
    add, mul = _decay_pair(p, g.nodes, base)
    u = add[1] - mul[1]
    c0 = -(np.conj(mul[1]) * u).real / abs(u) ** 2
    assert 0.4 < c0 < 0.6
    r = 0.25
    target = math.sqrt(abs(mul[1] + c0 * u) ** 2 + (r * abs(u)) ** 2)
    fit = fit_c(ComplexSeries(g, [math.sqrt(p.B), target], p), base)
    assert fit.multimodal
    assert min(abs(fit.c - (c0 - r)), abs(fit.c - (c0 + r))) <= 0.025
    assert fit.c in np.linspace(0.0, 1.0, 21)


def test_fit_phase_rotation_invariance(exact_f05):
    sol = exact_f05
    p = sol.params
    base = DecayAnsatz.explicit(p, 0.1896, -0.0738)
    # decimate exact onto a coarser grid (every 10th node covers 15 of 20)
    g = TimeGrid(15.0, 300)
    vals = sol.psi0[::10][:301]
    c0 = fit_c(ComplexSeries(g, vals, p), base).c
    c1 = fit_c(ComplexSeries(g, vals * np.exp(1.3j), p), base).c
    assert c0 == pytest.approx(c1, abs=1e-9)


def test_fit_reference_value(exact_f05):
    base = DecayAnsatz.explicit(exact_f05.params, 0.1896, -0.0738)
    fit = fit_c(exact_f05, base)
    assert 0.55 <= fit.c <= 0.75  # reference: 0.65


def test_exact_solution_ripple_structure(exact_f05, exact_f1):
    # re-scattered flux makes the ionization curve non-monotone once the
    # interference beats the decay slope: clearly so at f = 1 (and f = 2),
    # while at f = 0.5 the slope dominates and the curve stays monotone
    proxy1 = density_proxy(exact_f1)
    n_max, n_min = count_extrema(exact_f1.grid.nodes, proxy1, 2.0, 15.0)
    assert n_max >= 1 and n_min >= 1

    proxy05 = density_proxy(exact_f05)
    assert count_extrema(exact_f05.grid.nodes, proxy05, 2.0, 15.0) == (0, 0)


def test_strong_field_ripples():
    p = default_units(2.0)
    sol = solve_psi0(p, TimeGrid(15.0, 9000))
    proxy = density_proxy(sol)
    n_max, n_min = count_extrema(sol.grid.nodes, proxy, 2.0, 15.0)
    assert n_max >= 5 and n_min >= 5


def test_count_extrema_on_monotone_curve():
    t = np.linspace(0.0, 20.0, 500)
    y = 1.0 - np.exp(-0.3 * t)
    assert count_extrema(t, y, 2.0, 15.0) == (0, 0)
