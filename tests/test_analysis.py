import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltawell.analysis import (
    count_extrema,
    density_proxy,
    extract_rate_shift,
    fit_c,
    plateau,
)
from deltawell.approx import DecayAnsatz, decay_closed_psi0
from deltawell.params import default_units
from deltawell.volterra import ComplexSeries, TimeGrid, solve_psi0


def _series(grid, fn):
    return ComplexSeries(grid, fn(grid.nodes))


def test_extract_field_free_is_null():
    p = default_units(0.0)
    g = TimeGrid(10.0, 500)
    rss = extract_rate_shift(_series(g, lambda t: np.exp(0.5j * t)), p)
    assert np.nanmax(np.abs(rss.gamma[1:])) < 1e-12
    assert np.nanmax(np.abs(rss.delta[1:])) < 1e-12


def test_extract_synthetic_ansatz_exact():
    # e^{−i(E_b + Δ − iΓ/2)t} with Δ = −0.1, Γ = 0.5 inverts exactly
    p = default_units(0.0)
    g = TimeGrid(10.0, 500)
    E = p.E_b - 0.1 - 0.25j
    rss = extract_rate_shift(_series(g, lambda t: np.exp(-1j * E * t)), p)
    assert np.allclose(rss.gamma[1:], 0.5, atol=1e-10)
    assert np.allclose(rss.delta[1:], -0.1, atol=1e-10)
    for method in ("extrapolate", "median"):
        gam, dl = plateau(rss, method=method)
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
    rss = extract_rate_shift(_series(g, lambda t: np.exp(-1j * E * t)), p)
    assert np.allclose(rss.gamma[1:], gamma, atol=1e-9)
    assert np.allclose(rss.delta[1:], delta, atol=1e-9)


def test_extract_preconditions():
    p = default_units(0.0)
    g = TimeGrid(1.0, 10)
    with pytest.raises(ValueError, match="sqrt"):
        extract_rate_shift(ComplexSeries(g, np.full(11, 0.5 + 0j)), p)
    # |psi| crossing the floor
    vals = np.exp(0.5j * g.nodes)
    vals[5] = 1e-13
    with pytest.raises(ValueError, match="log undefined"):
        extract_rate_shift(ComplexSeries(g, vals), p)
    # phase advance ~pi per step
    g2 = TimeGrid(10.0, 10)
    vals = np.exp(-3.13j * g2.nodes)
    vals[0] = 1.0
    with pytest.raises(ValueError, match="grid too coarse"):
        extract_rate_shift(ComplexSeries(g2, vals), p)


def test_plateau_from_exact_solve_f05(exact_f05):
    sol, p = exact_f05
    rss = extract_rate_shift(sol.series, p)
    gam, dl = plateau(rss)
    assert abs(gam - 0.1896) / 0.1896 < 0.02
    assert abs(dl - (-0.0738)) / 0.0738 < 0.05


def test_density_proxy_basics():
    p = default_units(0.0)
    g = TimeGrid(5.0, 100)
    proxy = density_proxy(_series(g, lambda t: np.exp(0.5j * t)), p)
    assert np.allclose(proxy, 0.0, atol=1e-14)
    assert proxy[0] == 0.0


def test_density_proxy_phase_invariance():
    p = default_units(0.0)
    g = TimeGrid(5.0, 100)
    vals = np.exp((-0.1 - 0.45j) * g.nodes)
    a = density_proxy(ComplexSeries(g, vals), p)
    b = density_proxy(ComplexSeries(g, vals * np.exp(0.7j)), p)
    assert np.allclose(a, b, atol=1e-14)


def test_density_proxy_long_time_ionization():
    p = default_units(1.0)
    sol = solve_psi0(p, TimeGrid(30.0, 9000))
    proxy = density_proxy(sol.series, p)
    assert proxy[-1] >= 0.9


def test_fit_recovers_endpoints(exact_f05):
    _, p = exact_f05
    base = DecayAnsatz.explicit(p, 0.1896, -0.0738)
    g = TimeGrid(15.0, 600)
    t = g.nodes
    add = ComplexSeries(g, np.array([decay_closed_psi0(p, ti, base, "additive") for ti in t]))
    mul = ComplexSeries(g, np.array([decay_closed_psi0(p, ti, base, "multiplicative") for ti in t]))
    fit_add = fit_c(add, p, base)
    fit_mul = fit_c(mul, p, base)
    assert fit_add.c == pytest.approx(1.0, abs=1e-3)
    assert fit_mul.c == pytest.approx(0.0, abs=1e-3)
    assert not fit_add.multimodal and not fit_mul.multimodal


def test_fit_phase_rotation_invariance(exact_f05):
    sol, p = exact_f05
    base = DecayAnsatz.explicit(p, 0.1896, -0.0738)
    # decimate exact onto a coarser grid (every 10th node covers 15 of 20)
    g = TimeGrid(15.0, 300)
    vals = sol.psi0[::10][:301]
    sub = ComplexSeries(g, vals)
    c0 = fit_c(sub, p, base).c
    c1 = fit_c(ComplexSeries(g, vals * np.exp(1.3j)), p, base).c
    assert c0 == pytest.approx(c1, abs=1e-9)


def test_fit_reference_value(exact_f05):
    sol, p = exact_f05
    base = DecayAnsatz.explicit(p, 0.1896, -0.0738)
    fit = fit_c(sol.series, p, base)
    assert 0.55 <= fit.c <= 0.75  # reference: 0.65


def test_exact_solution_ripple_structure(exact_f05, exact_f1):
    # re-scattered flux makes the ionization curve non-monotone once the
    # interference beats the decay slope: clearly so at f = 1 (and f = 2),
    # while at f = 0.5 the slope dominates and the curve stays monotone
    sol1, p1 = exact_f1
    proxy1 = density_proxy(sol1.series, p1)
    n_max, n_min = count_extrema(sol1.grid.nodes, proxy1, 2.0, 15.0)
    assert n_max >= 1 and n_min >= 1

    sol05, p05 = exact_f05
    proxy05 = density_proxy(sol05.series, p05)
    assert count_extrema(sol05.grid.nodes, proxy05, 2.0, 15.0) == (0, 0)


def test_strong_field_ripples():
    p = default_units(2.0)
    sol = solve_psi0(p, TimeGrid(15.0, 9000))
    proxy = density_proxy(sol.series, p)
    n_max, n_min = count_extrema(sol.grid.nodes, proxy, 2.0, 15.0)
    assert n_max >= 5 and n_min >= 5


def test_count_extrema_on_monotone_curve():
    t = np.linspace(0.0, 20.0, 500)
    y = 1.0 - np.exp(-0.3 * t)
    assert count_extrema(t, y, 2.0, 15.0) == (0, 0)
