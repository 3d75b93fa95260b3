import dataclasses
import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import IntegrationWarning, quad, simpson

from deltawell import volterra
from deltawell.analysis import density_proxy
from deltawell.approx import DecayAnsatz, decay_closed_psi0, first_scheme_psi0
from deltawell.errors import ConvergenceError, NumericsError
from deltawell.params import default_units, derive_params
from deltawell.propagator import bound_state, volkov_phi
from deltawell.specfun import moshinsky
from deltawell.volterra import (
    _LEAF,
    ComplexSeries,
    TimeGrid,
    _bound_volkov,
    _chirp_tail,
    _coupling,
    _field_phase,
    _fresnel_T,
    _linear_panels,
    _march,
    _rule_weights,
    abel_weights,
    bound_overlap,
    reconstruct_psi_x,
    solve_psi0,
)
from oracles import overlap_domain_halfwidth


def _decay_combined(f, grid):
    # the combined closed form with the fig1b (f = 0.5) or fig1c (f = 1)
    # constants of scenario.PRESETS
    p = default_units(f)
    gamma, delta, c = {0.5: (0.1896, -0.0738, 0.65), 1.0: (0.52916, -0.10722, 0.45)}[f]
    ansatz = DecayAnsatz.explicit(p, gamma, delta, c)
    return ComplexSeries(grid, decay_closed_psi0(p, grid.nodes, ansatz), p)


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
    # a float count would put nodes past t_max or break the march's slices
    for n in (2.5, 10.5, 10.0, True, "10"):
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(1.0, n)
    assert TimeGrid(1.0, np.int64(10)).nodes[-1] == 1.0


@pytest.mark.parametrize("t_max", [True, False])
def test_grid_refuses_a_boolean_t_max(t_max):
    # True would pass as t_max = 1
    with pytest.raises(ValueError, match="t_max must be a number"):
        TimeGrid(t_max, 10)


def test_series_rejects_non_finite():
    g, p = TimeGrid(1.0, 2), default_units(0.0)
    with pytest.raises(ValueError):
        ComplexSeries(g, np.array([1.0, math.nan, 1.0]), p)
    with pytest.raises(ValueError):
        ComplexSeries(g, np.array([1.0, 2.0]), p)


def test_abel_weights_need_a_panel():
    with pytest.raises(ValueError, match="at least one panel"):
        abel_weights(0, 0.1)


def test_abel_weights_reject_unknown_rule():
    with pytest.raises(ValueError, match="unknown rule 'cubic'"):
        abel_weights(3, 0.1, "cubic")


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


def test_closed_form_reconstructed_norm():
    # the norm method above on the combined closed form (fig1c constants):
    # its ψ(x, t) loses 3.55% of the norm at t = 2 (0.96450 at N = 800 and
    # 1600, so not a grid effect), where the march on the same grid keeps
    # it to 1e-5.  The closed form is an ansatz, not a solution of the
    # Schrödinger equation; the bound, 0.045, is about a quarter above the
    # measured loss, so the record fails if the loss grows
    p = default_units(1.0)
    t = 2.0
    grid = TimeGrid(t, 800)
    xm = overlap_domain_halfwidth(p, t)
    x = np.linspace(-xm, xm, 3201)
    norm = {
        name: simpson(np.abs(reconstruct_psi_x(series, x, t)) ** 2, x=x)
        for name, series in (("closed", _decay_combined(1.0, grid)), ("march", solve_psi0(p, grid)))
    }
    print(f"reconstructed norm at f=1, t=2: {norm}")
    assert norm["march"] == pytest.approx(1.0, abs=1e-3)
    assert norm["closed"] == pytest.approx(1.0, abs=0.045)


def test_reconstruct_array_matches_scalar_calls():
    # one call for a 2-D array of x (zeros included) against one call per
    # x, bitwise, at the t = 0 node, the first node and later
    p = default_units(1.0)
    sol = solve_psi0(p, TimeGrid(4.0, 400))
    x = np.r_[np.linspace(-20.0, 40.0, 500), 0.0, 0.0].reshape(2, 251)
    for t in (0.0, 0.01, 1.0, 4.0):
        got = reconstruct_psi_x(sol, x, t)
        want = np.array([reconstruct_psi_x(sol, float(v), t) for v in x.ravel()])
        assert got.shape == x.shape and got.dtype == np.complex128
        assert np.array_equal(got.ravel(), want), t
    assert type(reconstruct_psi_x(sol, 1.5, 4.0)) is complex
    assert reconstruct_psi_x(sol, np.zeros(3), 0.0).tolist() == [sol.psi0[0]] * 3


@functools.cache
def _small_solve():
    return solve_psi0(default_units(1.0), TimeGrid(4.0, 200))


# x for the property below: zeros, x within the origin radius of the grid
# above (1e-20·√(2ℏh/m) = 2e-21), and x on the wave's support
_X_ELEMENTS = st.one_of(
    st.just(0.0), st.floats(-2e-21, 2e-21), st.floats(-30.0, 50.0, allow_subnormal=False),
)


@settings(max_examples=40, deadline=None)
@example(x=np.array([1.5, 0.0, 1.5, -1e-21, 1.5]), t=4.0)
@example(x=np.array([[-3.0, -3.0], [5e-324, 12.0]]), t=0.02)
@given(
    x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4), elements=_X_ELEMENTS),
    t=st.sampled_from([0.0, 0.02, 4.0]),
)
def test_reconstruct_array_is_its_one_x_calls(x, t):
    # any array of x, repeats included, at t = 0, h and t_max: the shape and
    # dtype of x's complex counterpart and, bitwise, one call per x
    sol = _small_solve()
    got = reconstruct_psi_x(sol, x, t)
    want = [reconstruct_psi_x(sol, float(v), t) for v in x.ravel()]
    assert got.shape == x.shape and got.dtype == np.complex128
    assert np.array_equal(got.ravel(), np.array(want, dtype=np.complex128))


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_t_is_not_a_node(t):
    sol = solve_psi0(default_units(1.0), TimeGrid(1.0, 50))
    for call in (sol.grid.index_of, functools.partial(bound_overlap, sol),
                 functools.partial(reconstruct_psi_x, sol, 0.5)):
        with pytest.raises(ValueError, match=r"t=-?(inf|nan) is not a node of TimeGrid"):
            call(t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reconstruct_rejects_non_finite_x(bad):
    sol = solve_psi0(default_units(1.0), TimeGrid(1.0, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (bad, np.array([0.5, bad, 0.0])):
            with pytest.raises(ValueError, match="x must be finite"):
                reconstruct_psi_x(sol, x, 1.0)


@pytest.mark.parametrize("x, t", [
    (True, 4.0), (np.True_, 4.0), ("1.5", 4.0), (np.array([0.5, 1.0]) > 0.7, 4.0),
    ([1.0, "2"], 4.0), (1.0, True), (1.0, "4"), (1.0, np.True_),
])
def test_reconstruct_refuses_boolean_and_non_numeric_input(x, t):
    # numpy would take True as 1 and parse "1.5"; a node already cached at
    # t = 4 (or at t = 1, which True equals) must not let them through
    sol = _small_solve()
    for cached in (4.0, 1.0):
        reconstruct_psi_x(sol, 1.0, cached)
        with pytest.raises(ValueError, match="must be real numbers"):
            reconstruct_psi_x(sol, x, t)


@pytest.mark.parametrize("t", [True, np.True_, "1", "1.0", None])
def test_overlap_refuses_boolean_and_non_numeric_t(t):
    # True is the node t = 1, and is refused also once that node is cached
    sol = _small_solve()
    bound_overlap(sol, 1.0)
    with pytest.raises(ValueError, match="t must be real numbers"):
        bound_overlap(sol, t)
    with pytest.raises(ValueError, match="t must be real numbers"):
        sol.grid.index_of(t)


def test_overlap_initial_state():
    p = default_units(1.0)
    sol = solve_psi0(p, TimeGrid(1.0, 100))
    ov, prob = bound_overlap(sol, 0.0)
    assert ov == 1.0
    assert prob == 0.0


def test_overlap_types_are_the_same_at_every_node():
    sol = solve_psi0(default_units(1.0), TimeGrid(1.0, 100))
    for t in (0.0, 0.01, 1.0):
        ov, prob = bound_overlap(sol, t)
        assert type(ov) is complex and type(prob) is float, t


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


@pytest.mark.parametrize(
    "make",
    [functools.partial(solve_psi0, p) for p in
     (default_units(0.5), default_units(1.0), default_units(2.0), derive_params(0.7, 1.9, 1.3, 0.4))]
    + [functools.partial(_decay_combined, 1.0)],
    ids=["0.5", "1.0", "2.0", "hbar0.7-m1.9-v1.3-F0.4", "decay_combined-f1"],
)
def test_overlap_matches_quad_oracle(make):
    # scipy's adaptive quadrature over one-x reconstructions, to 1e-8, of
    # the march's series and of a closed form's.  ψ(·, t) steps at each
    # switch point x_k, by about 1e-4 at the first; the first 16 are break
    # points (without them quad is off by 5e-6 in P at ℏ = 0.7, t = 4), and
    # on the later, smaller steps it stops early with a roundoff warning.
    # At f = 2 the late panels take the reflected erfcx branch of the
    # closed form
    sol = make(TimeGrid(4.0, 400))
    p, h = sol.params, sol.grid.h
    s = np.arange(1, 18) * h
    xk = np.sqrt(2.0 * p.hbar * volterra._PHASE_SWITCH * s[:-1] * s[1:] / (p.mass * h))
    for t in (1.0, 4.0):
        xm = overlap_domain_halfwidth(p, t)

        def integrand(x):
            return complex(bound_state(x, p) * reconstruct_psi_x(sol, x, t))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            want = sum(
                quad(integrand, lo, hi, epsabs=1e-8, epsrel=1e-8, limit=2000, complex_func=True,
                     points=pts)[0]
                for lo, hi, pts in ((-xm, 0.0, -xk), (0.0, xm, xk))
            )
        _, prob = bound_overlap(sol, t)
        assert abs(prob - (1.0 - abs(want) ** 2)) <= 2e-6, t


def test_overlap_first_node_matches_quad_oracle():
    # t = h: one panel, exact at every x, so ψ(·, h) is smooth away from
    # x = 0 and quad converges; the smooth-panel sum is empty.  What is left
    # is ⟨ψ_b|φ_F⟩ in closed form and panel 0's 8-point rule in √s, whose
    # sum is 6e-12 off this quad (the x-rule it replaced was 5e-9 off)
    p = default_units(1.0)
    sol = solve_psi0(p, TimeGrid(4.0, 400))
    t = sol.grid.h
    xm = overlap_domain_halfwidth(p, t)

    def integrand(x):
        return complex(bound_state(x, p) * reconstruct_psi_x(sol, x, t))

    want = sum(
        quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200, complex_func=True)[0]
        for lo, hi in ((-xm, 0.0), (0.0, xm))
    )
    ov, _ = bound_overlap(sol, t)
    assert abs(ov - want) <= 1e-7


def test_overlap_non_finite_raises(monkeypatch):
    sol = solve_psi0(default_units(1.0), TimeGrid(4.0, 400))
    monkeypatch.setattr(volterra, "_bound_volkov", lambda params, t: complex(math.nan, 0.0))
    with pytest.raises(ConvergenceError, match="non-finite bound-state overlap"):
        bound_overlap(sol, 4.0)


def test_overlap_below_zero_P_raises(monkeypatch):
    # a zero series leaves ⟨ψ_b|φ_F⟩ alone, so |overlap|² = 1 + e gives
    # P = −e: rounding up to e = 1e-9, an error beyond
    zero = ComplexSeries(TimeGrid(4.0, 400), np.zeros(401), default_units(1.0))
    monkeypatch.setattr(volterra, "_bound_volkov", lambda params, t: math.sqrt(1.0 + 0.5e-9) + 0j)
    assert bound_overlap(zero, 4.0)[1] == pytest.approx(-0.5e-9, abs=1e-15)
    monkeypatch.setattr(volterra, "_bound_volkov", lambda params, t: math.sqrt(1.0 + 2e-9) + 0j)
    with pytest.raises(NumericsError, match="does not conserve the norm"):
        bound_overlap(zero, 4.0)


def test_first_scheme_overlap_raises_where_P_is_negative():
    # the first scheme's ψ(0,t) is not a norm-preserving evolution: at
    # f = 0.5 its P is 0.1065 at t = 1 and −1.3049 at t = 6
    grid, p = TimeGrid(10.0, 2000), default_units(0.5)
    series = ComplexSeries(grid, first_scheme_psi0(p, grid.nodes), p)
    assert bound_overlap(series, 1.0)[1] == pytest.approx(0.1065, abs=1e-4)
    with pytest.raises(NumericsError, match=r"P = -1\.305 < 0 at t=6"):
        bound_overlap(series, 6.0)


@pytest.mark.parametrize("f, bound", [(0.5, 0.08), (1.0, 0.04)])
def test_closed_form_P_tracks_exact_P(f, bound):
    # P(t) from the combined closed form's ψ(0,t) against P from the march's
    # at t = 1, 2, 4, 6, 10.  The measured gaps are 0.0600 (f = 0.5, t = 2)
    # and 0.0301 (f = 1, t = 4); the bounds are about a third above them.
    # The exact series' proxy 1 − |ψ(0,t)|²/B misses P by 0.074 and 0.211
    grid = TimeGrid(10.0, 2000)
    exact = solve_psi0(default_units(f), grid)
    closed = _decay_combined(f, grid)
    times = (1.0, 2.0, 4.0, 6.0, 10.0)
    P = np.array([bound_overlap(exact, t)[1] for t in times])
    gap = np.abs(np.array([bound_overlap(closed, t)[1] for t in times]) - P).max()
    proxy_gap = np.abs(density_proxy(exact)[[grid.index_of(t) for t in times]] - P).max()
    print(f"f={f}: max |P(closed) - P| = {gap:.4f} (bound {bound}), max |proxy - P| = {proxy_gap:.4f}")
    assert gap <= bound


@pytest.mark.parametrize("f", [0.5, 1.0])
def test_unit_scaling_covariance(f):
    # ℏ = 0.7, m = 1.9, V₀ = 1.3 is the unit preset in other units: in x̃ = Bx
    # and t̃ = t|E_b|/ℏ the same f gives the same ψ(0,t)/√B, P and ψ(x,t)/√B
    # on grids of equal t̃ and N.  Measured: 1.0e-15, 4.4e-16 and 1.9e-9; the
    # last is the cancellation of T₁ in _fresnel_T (test_fresnel_T_vs_mpmath)
    unit = default_units(f)
    hbar, m, v0 = 0.7, 1.9, 1.3
    B = m * v0 / hbar**2
    other = derive_params(hbar, m, v0, f * hbar**2 * B**3 / m)
    gu = TimeGrid(4.0, 1600)
    go = TimeGrid(4.0 * (abs(unit.E_b) / unit.hbar) / (abs(other.E_b) / other.hbar), 1600)
    su, so = solve_psi0(unit, gu), solve_psi0(other, go)
    sqB = math.sqrt(other.B)
    assert np.abs(so.psi0 / sqB - su.psi0).max() <= 1e-13
    for i in (400, 1600):
        assert abs(bound_overlap(so, go.nodes[i])[1] - bound_overlap(su, gu.nodes[i])[1]) <= 1e-13
    x = np.linspace(-20.0, 40.0, 241)
    psi_o = reconstruct_psi_x(so, x / other.B, go.t_max) / sqB
    assert np.abs(psi_o - reconstruct_psi_x(su, x, gu.t_max)).max() <= 1e-8


def test_overlap_does_not_reconstruct(monkeypatch):
    # the reconstruction enters the overlap only through its closed-form
    # x-integral, never through ψ(x, t) at sample points
    sol = solve_psi0(default_units(1.0), TimeGrid(4.0, 400))
    want = bound_overlap(sol, 4.0)

    def refuse(*args):
        raise AssertionError("bound_overlap evaluated ψ(x, t)")

    monkeypatch.setattr(volterra, "reconstruct_psi_x", refuse)
    monkeypatch.setattr(volterra, "_psi_off_origin", refuse)
    assert bound_overlap(sol, 4.0) == want


def _overlap_series():
    # a fresh series on the march's grid, t = 1 … 4 at nodes N/4 … N
    sol = solve_psi0(default_units(1.0), TimeGrid(4.0, 400))
    return lambda: ComplexSeries(sol.grid, sol.values, sol.params)


def test_overlap_tables_give_the_same_P_in_any_call_order():
    # node i reads the first i rows of the whole grid's tables; those rows
    # are the same whichever t asks first
    fresh = _overlap_series()
    times = (1.0, 2.0, 3.0, 4.0)
    alone = {t: bound_overlap(fresh(), t) for t in times}
    for order in (times, (4.0, 1.0, 3.0, 2.0)):
        series = fresh()
        got = {t: bound_overlap(series, t) for t in order}
        assert got == alone, order


def test_overlap_tables_compute_each_row_once(monkeypatch):
    # per panel: one H(β, α; 0) at its right node, H at both ends of the
    # exact panel's 8 nodes, and S at both nodes of a smooth panel (panels
    # k ≥ 1).  In any call order, t = 1 alone included, the first overlap
    # computes the rows of the whole grid, N = 400, once each
    counts = {}
    chirp = volterra._bound_chirp

    def counting(B, beta, alpha, a):
        shape = np.broadcast(beta, alpha, a).shape
        key = "exact" if len(shape) == 2 else "h0" if np.ndim(a) == 0 else "smooth"
        counts[key] = counts.get(key, 0) + shape[0]
        return chirp(B, beta, alpha, a)

    monkeypatch.setattr(volterra, "_bound_chirp", counting)
    fresh = _overlap_series()
    n = 400
    for order in ((1.0, 2.0, 3.0, 4.0), (4.0, 1.0, 3.0, 2.0), (4.0,), (1.0,)):
        counts.clear()
        series = fresh()
        for t in order:
            bound_overlap(series, t)
        assert counts == {"h0": n, "smooth": 2 * (n - 1), "exact": 2 * n}, order


def test_overlap_tables_are_read_only_and_per_series():
    fresh = _overlap_series()
    series, other = fresh(), fresh()
    bound_overlap(series, 1.0)
    tables = series._overlap
    # wq, lin, hl, hr for panels 0 … N − 1, left and right for 1 … N − 1
    assert type(tables) is tuple and [len(a) for a in tables] == [400] * 4 + [399] * 2
    for a in tables:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # the same grid and params build their own tables, not a shared cache
    bound_overlap(other, 1.0)
    assert other._overlap is not tables
    assert all(a is not b for a, b in zip(other._overlap, tables))


@functools.cache
def _dyadic_series(f):
    # h = 1/64, so TimeGrid(i/64, i) has exactly the first i + 1 nodes
    return solve_psi0(default_units(f), TimeGrid(4.0, 256))


@settings(max_examples=30, deadline=None)
@example(f=1.0, i=1, x=[0.0, 1e-3, -2.0, 30.0])
@example(f=2.0, i=256, x=[-20.0, 0.5])
@given(
    f=st.sampled_from([0.5, 1.0, 2.0]),
    i=st.integers(1, 256),
    x=st.lists(st.floats(-20.0, 40.0), min_size=1, max_size=6),
)
def test_node_reads_only_its_first_rows(f, i, x):
    # the series cut at node i, whose tables end there, gives bitwise the
    # P and ψ(x, t) of node i of the whole series
    full = _dyadic_series(f)
    t = i / 64
    cut = ComplexSeries(TimeGrid(t, i), full.values[: i + 1], full.params)
    assert cut.grid.nodes[-1] == full.grid.nodes[i]
    assert bound_overlap(cut, t) == bound_overlap(full, t)
    assert np.array_equal(reconstruct_psi_x(cut, x, t), reconstruct_psi_x(full, x, t))


@pytest.mark.parametrize(
    "p, alpha, a",
    [
        (1.0 - 0.3j, 0.7, 0.0),
        (1.0 + 0.3j, 0.7, 0.0),
        (1.0 + 3.0j, 0.7, 0.0),  # Re u < 0: reflected erfcx
        (1.0 + 3.0j, 2.0, 0.2),  # Re u < 0 at a > 0
        (1.0 + 3.0j, 2.0, 1.5),
        (1.0 - 3.0j, 5.0, 2.0),
        (0.8 + 0.1j, 0.05, 3.0),
    ],
)
def test_chirp_tail_vs_mpmath(p, alpha, a):
    # T(p, α, a) = ∫_a^∞ e^{−px+iαx²}dx by mpmath quadrature; the tail
    # beyond a + 64 is below e^{−51}
    def f(x):
        return mpmath.exp(-p * x + 1j * alpha * x * x)

    with mpmath.workdps(20):
        want = complex(mpmath.quad(f, [a + d for d in (0, 0.5, 1, 2, 4, 8, 16, 32, 64)], maxdegree=10))
    got = _chirp_tail(np.array([p]), alpha, a)[0]
    assert abs(got - want) <= 1e-15


def test_chirp_tail_far_edge_is_zero():
    # e^{−pa} underflows; the result is 0, not 0·∞ or NaN, on both sides
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _chirp_tail(np.array([1.0 + 3.0j, 1.0 - 3.0j]), 2.0, np.array([1e4, 800.0]))
    assert got.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# ⟨ψ_b|φ_F(t)⟩ in closed form
# ---------------------------------------------------------------------------

_BV_PARAMS = [default_units(f) for f in (0.0, 0.5, 1.0, 2.0)] + [
    derive_params(0.7, 1.9, 1.3, F) for F in (0.0, 0.4)
]


@pytest.mark.parametrize("t", [0.01, 1.0, 4.0])
@pytest.mark.parametrize(
    "p", _BV_PARAMS, ids=["f0", "f0.5", "f1", "f2", "hbar0.7-F0", "hbar0.7-F0.4"]
)
def test_bound_volkov_matches_x_quadrature(p, t):
    # scipy quad of ψ_b·φ_F over x, folded at the kink x = 0 (ψ_b is even,
    # so one volkov_phi call gives φ_F at ±x) and split at the packet
    # centre x_c; the real and imaginary passes share their samples.
    # t = 0.01 is the first node of a 400-step grid to t = 4
    x_c = p.field * t * t / (2.0 * p.mass)
    xm = overlap_domain_halfwidth(p, t)

    @functools.cache
    def integrand(x):
        return complex(bound_state(x, p) * np.sum(volkov_phi(np.array([x, -x]), t, p)))

    want = 0.0
    for lo, hi in ((0.0, x_c), (x_c, xm)):
        for part, unit in ((lambda x: integrand(x).real, 1.0), (lambda x: integrand(x).imag, 1j)):
            want += unit * quad(part, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=1000)[0]
    assert abs(_bound_volkov(p, t) - want) <= 1e-8


def _bound_volkov_four_poles(p, t):
    # the partial-fraction sum over the four poles p_j = ±iℏB, −Ft ± iℏB in
    # 30-digit mpmath, with w(ζ) = e^{−ζ²}erfc(−iζ) and the chirped Cauchy
    # integral ±iπ·w(±ζ) (± the sign of Im ζ) plus its sector terms;
    # returns the overlap and the sectors that fired
    with mpmath.workdps(30):
        hbar, m, B, F = (mpmath.mpf(v) for v in (p.hbar, p.mass, p.B, p.field))
        t = mpmath.mpf(t)
        a, b, d = t / (2 * m * hbar), hbar * B, F * t
        poles = [1j * b, -1j * b, -d + 1j * b, -d - 1j * b]
        root = mpmath.expjpi(mpmath.mpf(1) / 4) * mpmath.sqrt(a)
        total, sectors = 0, set()
        for j, pj in enumerate(poles):
            residue = 1 / mpmath.fprod(pj - pk for k, pk in enumerate(poles) if k != j)
            zeta = root * (pj + d / 2)
            sign = 1 if zeta.imag > 0 else -1
            cauchy = sign * 1j * mpmath.pi * mpmath.exp(-zeta**2) * mpmath.erfc(-1j * sign * zeta)
            arg = mpmath.arg(zeta)
            if 0 < arg < mpmath.pi / 4:
                cauchy -= 2j * mpmath.pi * mpmath.exp(-zeta**2)
                sectors.add("(0, π/4)")
            elif -mpmath.pi < arg < -3 * mpmath.pi / 4:
                cauchy += 2j * mpmath.pi * mpmath.exp(-zeta**2)
                sectors.add("(−π, −3π/4)")
            total += residue * cauchy
        value = 2 * b**3 / mpmath.pi * mpmath.exp(-1j * a * F**2 * t**2 / 12) * total
        return complex(value), sectors


@pytest.mark.parametrize(
    "p, t, sectors",
    [
        (default_units(0.5e-10), 2.0, set()),  # F·t = 1e-10
        (default_units(0.5e-6), 2.0, set()),  # F·t = 1e-6
        (default_units(0.5e-3), 2.0, set()),  # F·t = 1e-3
        (derive_params(0.7, 1.9, 1.3, 1e-3), 1.0, set()),
        (default_units(2.0), 4.0, {"(0, π/4)", "(−π, −3π/4)"}),  # F·t > 2ℏB
        (derive_params(0.7, 1.9, 1.3, 0.4), 20.0, {"(0, π/4)", "(−π, −3π/4)"}),
    ],
)
def test_bound_volkov_vs_mpmath(p, t, sectors):
    # the four-pole sum divides by F·t, which 30 digits absorb down to
    # F·t = 1e-10; the library sums the Taylor series of the divided
    # difference there
    want, fired = _bound_volkov_four_poles(p, t)
    assert fired == sectors
    assert abs(_bound_volkov(p, t) - want) <= 1e-12


# ---------------------------------------------------------------------------
# the solution's cached kernel tables
# ---------------------------------------------------------------------------

def test_solution_is_frozen_and_read_only():
    sol = solve_psi0(default_units(1.0), TimeGrid(1.0, 50))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.grid = TimeGrid(2.0, 50)
    with pytest.raises(ValueError, match="read-only"):
        sol.psi0[0] = 0.0


@pytest.mark.parametrize("i", [1, 2, 63, 400])
def test_kernel_tables_are_per_node_tables(i):
    # node i reads the first entries of tables built once over the whole
    # grid; they are bitwise the tables built for node i alone
    p = default_units(1.0)
    sol = solve_psi0(p, TimeGrid(4.0, 400))
    s_all, g_all, wl_all, wr_all, xk_all = sol._kernel
    s = np.arange(i + 1) * sol.grid.h
    wl, wr = _linear_panels(i - 1)
    assert s_all[: i + 1].tobytes() == s.tobytes()
    assert g_all[: i + 1].tobytes() == _field_phase(p, s).tobytes()
    assert wl_all[:i].tobytes() == wl.tobytes()
    assert wr_all[:i].tobytes() == wr.tobytes()
    xk = np.sqrt(2.0 * p.hbar * volterra._PHASE_SWITCH * s[:-1] * s[1:] / (p.mass * sol.grid.h))
    assert xk_all[:i].tobytes() == xk.tobytes()
    assert not any(a.flags.writeable for a in sol._kernel)


def test_node_factors_are_built_once_per_node(monkeypatch):
    # a profile ψ(·, t) and P(t) at one node build the node's factors once;
    # another t replaces them, and asking the first t again builds it anew
    built = []
    node = volterra._Node

    def counting(series, t):
        built.append(t)
        return node(series, t)

    monkeypatch.setattr(volterra, "_Node", counting)
    sol = _small_solve()
    sol = ComplexSeries(sol.grid, sol.values, sol.params)
    for x in np.linspace(-20.0, 40.0, 50).tolist():
        reconstruct_psi_x(sol, x, 4.0)
    reconstruct_psi_x(sol, np.linspace(-3.0, 3.0, 7), 4.0)
    bound_overlap(sol, 4.0)
    assert built == [4.0]
    reconstruct_psi_x(sol, 1.0, 2.0)
    bound_overlap(sol, 2.0)
    reconstruct_psi_x(sol, 1.0, 4.0)
    assert built == [4.0, 2.0, 4.0]


def test_one_read_only_node_is_held():
    sol = _small_solve()
    sol = ComplexSeries(sol.grid, sol.values, sol.params)
    for t in (1.0, 4.0, 2.0):
        reconstruct_psi_x(sol, 1.0, t)
    bound_overlap(sol, 3.0)
    nodes = [v for v in vars(sol).values() if isinstance(v, volterra._Node)]
    assert len(nodes) == 1 and nodes[0].t == 3.0 and nodes[0].i == 150
    node = nodes[0]
    for a in (node.s, node.C, node.wl, node.wr, node.cl, node.cr):
        assert a.shape[0] in (150, 151)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_interleaved_nodes_and_series_match_fresh_series():
    # two series whose calls switch node at almost every step give bitwise
    # what a fresh series gives for each call alone
    sources = (_small_solve(), _dyadic_series(2.0))

    def fresh(j):
        return ComplexSeries(sources[j].grid, sources[j].values, sources[j].params)

    kept = [fresh(0), fresh(1)]
    x = [-3.0, 0.7, 12.5]
    for k, t in enumerate((4.0, 2.0, 4.0, 1.0, 1.0, 3.0, 2.0, 4.0)):
        j = k % 2
        assert bound_overlap(kept[j], t) == bound_overlap(fresh(j), t), (j, t)
        got = [reconstruct_psi_x(kept[j], v, t) for v in x]
        assert got == [reconstruct_psi_x(fresh(j), v, t) for v in x], (j, t)
        assert np.array_equal(reconstruct_psi_x(kept[j], x, t), got)
        assert [reconstruct_psi_x(kept[j], v, t) for v in np.array(x)] == got


# reconstruct_psi_x(ψ(0,·) of the march, x, 4) at N = 1200, one scalar
# call per x, written with repr
_PSI_PINNED = {
    1.0: {
        -20.0: (2.8374326480199927e-05-8.627175000065507e-05j),
        -1.25: (-0.04205937071201234-0.021448241726097134j),
        11.0: (-0.1593590290238565+0.048516279464193096j),
        40.0: (4.4174778371288553e-07+4.628864403032084e-05j),
    },
    2.0: {
        -7.5: (-6.050606407109575e-05+0.00041653635410470726j),
        0.5: (-0.11625306204726019+0.05370908869463205j),
        24.5: (0.009455933240796171-0.019049951714884446j),
        33.0: (0.0016788971486451035+0.00043230367677095025j),
    },
}


@pytest.mark.parametrize("f", sorted(_PSI_PINNED))
def test_reconstruct_psi_x_pinned_values(f):
    # a stopgap: the benchmark's pinned ψ(x, t) reference allows 1e-9, and
    # the Fresnel terms' cancellation (ROADMAP item 6) turns a one-ulp
    # change in how X = A/s is formed into 1e-9 to 1e-8 of max|ψ|, which
    # only a seed-0 benchmark run would see.  Delete this test once ROADMAP
    # items 1b/6 re-record that reference
    sol = solve_psi0(default_units(f), TimeGrid(4.0, 1200))
    want = _PSI_PINNED[f]
    scale = max(map(abs, want.values()))
    for x, v in want.items():
        assert abs(reconstruct_psi_x(sol, x, 4.0) - v) <= 1e-12 * scale, x


# ---------------------------------------------------------------------------
# known faults
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="T₁ = 2e^{iX}/√X + 4iΦ cancels, and e^{−z²} from z·z carries a phase "
    "error of about X·ε: 5.7e-8 relative at X = 1e4, 3.9e-4 at 1e6.  The stable "
    "form e^{iX}(2/√X + 2i√π·e^{iπ/4}·erfcx(z)) moves ψ(x, 4) beyond PSI_TOL, so "
    "it waits for an mpmath reference of ψ(x, t)",
)
@pytest.mark.parametrize("X", [1e4, 1e5, 1e6])
def test_fresnel_T_vs_mpmath(X):
    # T₁(X) = ∫_X^∞ u^{−3/2}e^{iu}du = 2e^{iX}/√X + 4iΦ(√X),
    # Φ(w) = (√π/2)e^{iπ/4}erfc(w e^{−iπ/4}), in 40 digits
    with mpmath.workdps(40):
        w = mpmath.sqrt(X)
        rot = mpmath.expjpi(mpmath.mpf(1) / 4)
        phi = mpmath.sqrt(mpmath.pi) / 2 * rot * mpmath.erfc(w / rot)
        want = complex(2 * mpmath.expj(X) / w + 4j * phi)
    got = _fresnel_T(np.array([X]))[0][0]
    assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("x", [1e10, -1e10, 1e200])
def test_reconstruct_far_x_raises(x):
    # A = mx²/(2ℏ) and the Fresnel terms overflow: an error naming the first
    # such x, with no RuntimeWarning (an error under the suite's filter)
    sol = solve_psi0(default_units(1.0), TimeGrid(4.0, 400))
    for xs in (x, np.array([1.0, x, 2.0 * x])):
        with pytest.raises(ConvergenceError, match=re.escape(f"at x={x:g}, t=4")):
            reconstruct_psi_x(sol, xs, 4.0)


@pytest.mark.xfail(
    strict=True,
    reason="the exact panels take the Fresnel terms at X = A/s up to about 1e9, "
    "far past where _fresnel_T is accurate: |ψ(3000, 4)| = 4.24 and "
    "|ψ(1e5, 4)| = 1.7e7.  The fix waits for an mpmath reference of ψ(x, t)",
)
@pytest.mark.parametrize("x", [3000.0, 1e5])
def test_reconstruct_large_x_bounded(x):
    # a normalised state stays below about 1 everywhere
    sol = solve_psi0(default_units(1.0), TimeGrid(4.0, 400))
    assert abs(reconstruct_psi_x(sol, x, 4.0)) <= 1.0
