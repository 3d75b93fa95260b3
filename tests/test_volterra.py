import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad, simpson

from deltawell import volterra
from deltawell.errors import ConvergenceError
from deltawell.params import default_units
from deltawell.propagator import bound_state, volkov_phi
from deltawell.specfun import moshinsky
from deltawell.volterra import (
    _LEAF,
    ComplexSeries,
    TimeGrid,
    _coupling,
    _march,
    _rule_weights,
    abel_weights,
    bound_overlap,
    overlap_domain_halfwidth,
    reconstruct_psi_x,
    solve_psi0,
)


# ---------------------------------------------------------------------------
# grid and series plumbing
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 4)
    assert g.h == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.index_of(1.5) == 3
    with pytest.raises(ValueError):
        g.index_of(0.7)


def test_series_rejects_non_finite():
    g = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        ComplexSeries(g, np.array([1.0, math.nan, 1.0]))
    with pytest.raises(ValueError):
        ComplexSeries(g, np.array([1.0, 2.0]))


def test_abel_weights_polynomial_exactness():
    # ∫₀^T s^{−1/2} s^m ds = 2 T^{m+1/2}/(2m+1); one panel is the linear
    # row for both rules, and at n = 2, 3 the quadratic start and end
    # fix-ups overlap
    T = 2.7
    for n in (1, 2, 3, 9):
        s = np.arange(n + 1) * (T / n)
        for rule, maxdeg in (("linear", 1), ("quadratic", 2 if n > 1 else 1)):
            w = abel_weights(n, T / n, rule)
            for m in range(maxdeg + 1):
                want = 2.0 * T ** (m + 0.5) / (2 * m + 1)
                assert np.dot(w, s**m) == pytest.approx(want, rel=1e-13), (n, rule, m)


# ---------------------------------------------------------------------------
# origin solve
# ---------------------------------------------------------------------------

def test_field_free_exact_solution():
    # ψ(0,t) = √B e^{−iE_b t}; mid-resolution variant of the acceptance run
    p = default_units(0.0)
    g = TimeGrid(10.0, 2000)
    sol = solve_psi0(p, g)
    assert sol.psi0[0] == 1.0
    err = np.abs(sol.psi0 - np.exp(0.5j * g.nodes)).max()
    assert err < 1e-5
    assert sol.err_est < 1e-4
    assert sol.flags == ()


def test_quadratic_rule_beats_linear_when_smooth():
    p = default_units(0.0)
    g = TimeGrid(10.0, 2000)
    ref = np.exp(0.5j * g.nodes)
    err_lin = np.abs(solve_psi0(p, g, "linear").psi0 - ref).max()
    err_quad = np.abs(solve_psi0(p, g, "quadratic").psi0 - ref).max()
    assert err_quad < 0.2 * err_lin


def test_step_halving_ratio_is_second_order():
    # Richardson convergence study at f = 0.5, t = 5
    p = default_units(0.5)
    sols = {
        n: solve_psi0(p, TimeGrid(5.0, n)).psi0
        for n in (500, 1000, 2000)
    }
    e_h = abs(sols[500][-1] - sols[1000][-1])
    e_h2 = abs(sols[1000][-1] - sols[2000][-1])
    assert 3.4 <= e_h / e_h2 <= 4.6


def test_causality_bit_identical():
    p = default_units(0.5)
    g = TimeGrid(4.0, 400)
    forcing = volkov_phi(0.0, g.nodes, p)
    base = _march(p, g, "linear", forcing)
    bumped = forcing.copy()
    bumped[201:] += 0.3 - 0.1j  # perturb φ on (t*, t_max] only
    pert = _march(p, g, "linear", bumped)
    assert np.array_equal(base[:201], pert[:201])
    assert not np.array_equal(base[201:], pert[201:])


def _per_node_march(params, grid, rule):
    # Reference march: one causal Toeplitz dot product per node, O(N²),
    # the same rows the block march solves
    N = grid.n_steps
    T, start, end = _rule_weights(N, rule)
    lam = _coupling(params)
    F = params.field
    g = np.exp(-1j * F * F * grid.nodes**3 / (24.0 * params.mass * params.hbar))
    phi = volkov_phi(0.0, grid.nodes, params)
    psi = np.empty(N + 1, dtype=np.complex128)
    psi[0] = phi[0]
    w1 = abel_weights(1, grid.h)
    psi[1] = (phi[1] + lam * w1[1] * g[1] * psi[0]) / (1.0 - lam * w1[0])
    sqh = math.sqrt(grid.h)
    c = T * sqh * g
    c[:3] += start[: N + 1] * sqh * g[:3]
    crev = c[::-1].copy()
    rhs = phi + lam * sqh * (end[0] * g * psi[0] + end[1] * np.r_[0.0, g[:-1]] * psi[1])
    for i in range(2, N + 1):
        psi[i] = (rhs[i] + lam * np.dot(crev[N - i : N], psi[:i])) / (1.0 - lam * c[0])
    return psi


def test_block_march_matches_per_node_march():
    # the block march solves for the N − 1 nodes after ψ₁: none, one, two,
    # up to one leaf and one node over, and 24 leaves (not a power of two)
    p = default_units(0.5)
    for n in (1, 2, 3, _LEAF - 1, _LEAF, _LEAF + 1, _LEAF + 2, 24 * _LEAF + 1):
        g = TimeGrid(0.05 * n, n)
        for rule in ("linear", "quadratic"):
            got = solve_psi0(p, g, rule).psi0
            want = _per_node_march(p, g, rule)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (n, rule)


def test_block_march_causal_at_every_split():
    # a split inside a leaf, at a leaf edge, and at the edge of a half-block
    # of two and of four leaves (node i ≥ 2 is unknown i − 2)
    p = default_units(0.5)
    g = TimeGrid(4.0, 400)
    forcing = volkov_phi(0.0, g.nodes, p)
    base = _march(p, g, "linear", forcing)
    for split in (2 + _LEAF // 2, 2 + _LEAF, 2 + 2 * _LEAF, 2 + 4 * _LEAF):
        bumped = forcing.copy()
        bumped[split:] += 0.3 - 0.1j
        pert = _march(p, g, "linear", bumped)
        assert np.array_equal(base[:split], pert[:split]), split
        assert not np.any(base[split:] == pert[split:]), split


def test_refinement_monotone():
    for f in (0.1, 1.0):
        p = default_units(f)
        sols = [
            solve_psi0(p, TimeGrid(5.0, n)).psi0
            for n in (250, 500, 1000, 2000)
        ]
        diffs = []
        for i in range(3):
            stride = 2 ** (3 - i)
            diffs.append(np.abs(sols[3][::stride] - sols[i]).max())
        assert diffs[0] > diffs[1] > diffs[2]


def test_no_amplitude_gain_at_well():
    for f in (0.5, 2.0):
        p = default_units(f)
        sol = solve_psi0(p, TimeGrid(10.0, 4000))
        assert np.max(np.abs(sol.psi0) ** 2) / p.B <= 1.0 + 1e-6


def _vector_gauge_march(params, grid, rule):
    # Reference march of the product rule with the kernel phase assembled
    # from the vector-gauge pieces −(S_c(t)−S_c(τ))/ℏ + m(x_c(t)−x_c(τ))²/(2ℏ(t−τ));
    # algebraically identical to the solver's cubic phase, evaluated
    # through the other route.  O(N²) exponentials: small grids only.
    N = grid.n_steps
    F, m, hbar = params.field, params.mass, params.hbar
    lam = _coupling(params)
    t_nodes = grid.nodes
    phi = volkov_phi(0.0, t_nodes, params)
    S_c = F * F * t_nodes**3 / (6.0 * m)
    x_c = F * t_nodes**2 / (2.0 * m)
    psi = np.empty(N + 1, dtype=np.complex128)
    psi[0] = phi[0]
    for i in range(1, N + 1):
        s = t_nodes[i] - t_nodes[: i + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            quad_phase = np.where(
                s > 0, m * (x_c[i] - x_c[: i + 1]) ** 2 / (2.0 * hbar * s), 0.0
            )
        gv = np.exp(1j * (-(S_c[i] - S_c[: i + 1]) / hbar + quad_phase))
        # weight of s-offset n = i − j
        wtot = abel_weights(i, grid.h, rule)
        G = (gv * psi[: i + 1])[::-1]
        psi[i] = (phi[i] + lam * np.dot(wtot[1:], G[1:])) / (1.0 - lam * wtot[0])
    return psi


def test_vector_gauge_kernel_consistency():
    p = default_units(0.5)
    g = TimeGrid(3.0, 600)
    for rule in ("linear", "quadratic"):
        scalar = solve_psi0(p, g, rule).psi0
        vector = _vector_gauge_march(p, g, rule)
        assert np.abs(scalar - vector).max() <= 1e-10, rule


def test_coarse_grid_is_flagged():
    p = default_units(2.0)
    sol = solve_psi0(p, TimeGrid(20.0, 60))
    assert "phase_step_too_coarse" in sol.flags
    assert "err_est_above_threshold" in sol.flags


def test_nan_forcing_identifies_node():
    p = default_units(0.0)
    g = TimeGrid(1.0, 10)
    forcing = volkov_phi(0.0, g.nodes, p)
    forcing[7] = math.nan
    with pytest.raises(ConvergenceError, match="node 7"):
        _march(p, g, "linear", forcing)


# ---------------------------------------------------------------------------
# reconstruction and overlap
# ---------------------------------------------------------------------------

def test_reconstruct_origin_is_identity():
    p = default_units(0.5)
    g = TimeGrid(2.0, 200)
    sol = solve_psi0(p, g)
    assert reconstruct_psi_x(sol, 0.0, 1.0) == sol.psi0[100]


@pytest.mark.parametrize("n", [400, 1600])
def test_reconstruct_tiny_x_is_the_origin_value(n):
    # x far below the grid's length scale: A/s would underflow in the
    # Fresnel terms (NaN and RuntimeWarnings at x = 1e-104); ψ is continuous
    # at the well, so it is ψ(0, t) there, and within rounding of it at 1e-19
    sol = solve_psi0(default_units(0.5), TimeGrid(4.0, n))
    x = np.array([1e-104, -1e-104, 1e-200, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reconstruct_psi_x(sol, x, 4.0).tolist() == [sol.psi0[-1]] * 4
        assert reconstruct_psi_x(sol, 5e-324, 4.0) == sol.psi0[-1]
        assert abs(reconstruct_psi_x(sol, 1e-19, 4.0) - sol.psi0[-1]) <= 1e-15


def test_reconstruct_field_free_closed_form():
    # f = 0, x = 1, t = 1: ψ0(x,t) = √B{M(|x|;iB;t) + M(−|x|;−iB;t)}
    p = default_units(0.0)
    sol = solve_psi0(p, TimeGrid(1.0, 1000))
    got = reconstruct_psi_x(sol, 1.0, 1.0)
    want = moshinsky(1.0, 1.0j, 1.0) + moshinsky(-1.0, -1.0j, 1.0)
    assert abs(got - want) < 1e-5
    assert abs(want - bound_state(1.0, p) * np.exp(0.5j)) < 1e-14


def test_field_free_pipeline_pointwise():
    p = default_units(0.0)
    sol = solve_psi0(p, TimeGrid(2.0, 1000))
    for x in (0.4, 1.7):
        for t in (1.0, 2.0):
            got = reconstruct_psi_x(sol, x, t)
            want = bound_state(x, p) * np.exp(0.5j * t)
            assert abs(got - want) < 2e-5


def test_reconstructed_norm_conserved():
    p = default_units(0.5)
    t = 5.0
    sol = solve_psi0(p, TimeGrid(t, 2500))
    xm = overlap_domain_halfwidth(p, t)
    x = np.linspace(-xm, xm, 3201)
    dens = np.abs(reconstruct_psi_x(sol, x, t)) ** 2
    assert simpson(dens, x=x) == pytest.approx(1.0, abs=1e-3)


def test_reconstruct_array_matches_scalar_calls():
    # one call for a 2-D array of x (zeros included, more x than one chunk)
    # against one call per x, at the t = 0 node, the first node and later
    p = default_units(1.0)
    sol = solve_psi0(p, TimeGrid(4.0, 400))
    x = np.r_[np.linspace(-20.0, 40.0, 500), 0.0, 0.0].reshape(2, 251)
    for t in (0.0, 0.01, 1.0, 4.0):
        got = reconstruct_psi_x(sol, x, t)
        want = np.array([reconstruct_psi_x(sol, float(v), t) for v in x.ravel()])
        assert got.shape == x.shape and got.dtype == np.complex128
        assert np.abs(got.ravel() - want).max() <= 1e-14 * np.abs(want).max(), t
    assert type(reconstruct_psi_x(sol, 1.5, 4.0)) is complex
    assert reconstruct_psi_x(sol, np.zeros(3), 0.0).tolist() == [sol.psi0[0]] * 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reconstruct_rejects_non_finite_x(bad):
    sol = solve_psi0(default_units(1.0), TimeGrid(1.0, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (bad, np.array([0.5, bad, 0.0])):
            with pytest.raises(ValueError, match="x must be finite"):
                reconstruct_psi_x(sol, x, 1.0)


def test_overlap_initial_state():
    p = default_units(1.0)
    sol = solve_psi0(p, TimeGrid(1.0, 100))
    ov, prob = bound_overlap(sol, 0.0)
    assert ov == 1.0
    assert prob == 0.0


def test_overlap_field_free_stationary():
    p = default_units(0.0)
    sol = solve_psi0(p, TimeGrid(10.0, 2000))
    for t in (2.0, 10.0):
        ov, prob = bound_overlap(sol, t)
        assert abs(abs(ov) - 1.0) <= 1e-4
        assert abs(prob) <= 2e-4


def test_overlap_proxy_cross_check():
    # density proxy 1 − |ψ(0,t)|²/B against the true ionization probability
    p = default_units(1.0)
    t = 5.0
    sol = solve_psi0(p, TimeGrid(t, 2500))
    _, prob = bound_overlap(sol, t)
    proxy = 1.0 - abs(sol.psi0[-1]) ** 2 / p.B
    assert abs(prob - proxy) <= 0.15


@pytest.mark.parametrize("f", [0.5, 1.0])
def test_overlap_matches_quad_oracle(f):
    # scipy's adaptive quadrature over one-x reconstructions, two orders
    # tighter than the overlap's tolerance; it stops early on the
    # reconstruction's small steps in x, with a roundoff warning
    p = default_units(f)
    sol = solve_psi0(p, TimeGrid(4.0, 400))
    for t in (1.0, 4.0):
        xm = overlap_domain_halfwidth(p, t)

        def integrand(x):
            return complex(bound_state(x, p) * reconstruct_psi_x(sol, x, t))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            want = sum(
                quad(integrand, lo, hi, epsabs=1e-8, epsrel=1e-8, limit=2000, complex_func=True)[0]
                for lo, hi in ((-xm, 0.0), (0.0, xm))
            )
        _, prob = bound_overlap(sol, t)
        assert abs(prob - (1.0 - abs(want) ** 2)) <= 2e-6, t


def test_overlap_panel_cap_raises(monkeypatch):
    monkeypatch.setattr(volterra, "_OVERLAP_MAX_PANELS", 4)
    sol = solve_psi0(default_units(1.0), TimeGrid(4.0, 400))
    with pytest.raises(ConvergenceError, match="panels"):
        bound_overlap(sol, 4.0)
