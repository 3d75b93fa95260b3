import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltawell import approx
from deltawell.approx import (
    DecayAnsatz,
    YArgs,
    decay_closed_pair,
    decay_closed_psi0,
    first_scheme_psi0,
    wkb_constants,
    y_integral,
    _decay_pair,
)
from deltawell.errors import PrecisionLossError
from deltawell.params import default_units
from deltawell.propagator import volkov_phi
from deltawell.scenario import PRESETS
from oracles import y_paper_series

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# first scheme
# ---------------------------------------------------------------------------

def test_first_scheme_field_free_collapse():
    # erf + erfc = 1 makes the scheme exact at F = 0
    p = default_units(0.0)
    t = 3.0
    assert abs(first_scheme_psi0(p, t) - np.exp(0.5j * t)) < 1e-13


def test_first_scheme_initial_value():
    p = default_units(0.7)
    assert abs(first_scheme_psi0(p, 0.0) - 1.0) < 1e-15


def test_first_scheme_weak_field_accuracy():
    from deltawell.volterra import TimeGrid, solve_psi0

    p = default_units(0.1)
    sol = solve_psi0(p, TimeGrid(10.0, 2000))
    got = first_scheme_psi0(p, 10.0)
    # the scheme tracks the amplitude well but accumulates a phase drift
    # (it has no level shift); the complex deviation, computed against the
    # solver oracle, is 0.180 here — dominated by phase, not magnitude
    assert abs(abs(got) - abs(sol.psi0[-1])) <= 0.05
    assert abs(got - sol.psi0[-1]) <= 0.25


# ---------------------------------------------------------------------------
# WKB constants
# ---------------------------------------------------------------------------

def test_wkb_shift_value():
    delta, _ = wkb_constants(default_units(0.1))
    assert delta == pytest.approx(-0.00625, rel=1e-14)


def test_wkb_rate_value():
    _, gamma = wkb_constants(default_units(1.0))
    assert gamma == pytest.approx(math.exp(-2.0 / 3.0), rel=1e-14)
    assert gamma == pytest.approx(0.513417, abs=1e-6)
    # within 5% of the exact reference rate 0.52916
    assert abs(gamma - 0.52916) / 0.52916 < 0.05


def test_wkb_rate_monotone_and_zero_limit():
    _, g05 = wkb_constants(default_units(0.05))
    _, g10 = wkb_constants(default_units(0.1))
    assert 0.0 < g05 < g10
    d0, g0 = wkb_constants(default_units(0.0))
    assert g0 == 0.0 and d0 == 0.0


# ---------------------------------------------------------------------------
# Y(t): the quadrature against closed forms, mpmath and the paper's series
# ---------------------------------------------------------------------------

def test_y_at_zero_args():
    assert y_integral(YArgs(0.0, 0.0)) == pytest.approx(1.0)
    assert y_integral(YArgs(0.0, 0.0), "quadrature") == pytest.approx(1.0)


def test_y_field_free_erf_form():
    # ξ₁ = 0: Y = ½√(π/ξ₂) erf(√ξ₂); value 0.746824 at ξ₂ = 1
    got = y_integral(YArgs(0.0, 1.0))
    want = 0.5 * math.sqrt(math.pi) * math.erf(1.0)
    assert abs(got - want) < 1e-12
    assert want == pytest.approx(0.746824, abs=1e-6)


@pytest.mark.parametrize("xi2", [0.1, 1.0, 5.0, 1.0 + 2.0j])
def test_y_erf_closed_form_grid(xi2):
    want = complex(0.5 * mpmath.sqrt(mpmath.pi / xi2) * mpmath.erf(mpmath.sqrt(xi2)))
    got = y_integral(YArgs(0.0, xi2))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_y_series_vs_quadrature():
    want = y_paper_series(1.0, 1.0 + 1.0j)
    got = y_integral(YArgs(1.0 + 0.0j, 1.0 + 1.0j))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_y_has_one_rule():
    with pytest.raises(ValueError, match="unknown method"):
        y_integral(YArgs(1.0, 1.0), "series")


@pytest.mark.parametrize("xi1, xi2", [
    (math.nan, 0.0), (1.0, complex(0.0, math.inf)), (np.array([0.5, -math.inf]), 1.0),
])
def test_y_rejects_non_finite_arguments(xi1, xi2):
    with pytest.raises(ValueError, match="non-finite arguments"):
        y_integral(YArgs(xi1, xi2))


def test_first_scheme_rejects_negative_time():
    with pytest.raises(ValueError, match="requires t >= 0"):
        first_scheme_psi0(default_units(0.5), np.array([0.0, 1.0, -0.5]))


def test_decay_closed_form_rejects_unknown_form_and_negative_time():
    params = default_units(0.5)
    ansatz = DecayAnsatz.from_wkb(params)
    with pytest.raises(ValueError, match="unknown form 'bogus'"):
        decay_closed_psi0(params, 1.0, ansatz, "bogus")
    with pytest.raises(ValueError, match="requires t >= 0"):
        decay_closed_psi0(params, -1.0, ansatz)


@pytest.mark.parametrize("form", ["ansatz_only", "additive", "multiplicative", "combined"])
def test_decay_closed_form_on_no_times_is_empty(form):
    params = default_units(0.5)
    vals = decay_closed_psi0(params, np.array([]), DecayAnsatz.from_wkb(params), form)
    assert vals.shape == (0,) and vals.dtype == np.complex128


@pytest.mark.parametrize("xi2", [30.0, 100.0, 400.0, 1000.0])
def test_y_large_xi2_vs_mpmath_quad(xi2):
    # where the paper's series cancels beyond double precision: Y stays
    # finite and accurate, in milliseconds
    x1 = mpmath.mpc(1.0, 1.0)
    want = complex(mpmath.quad(lambda z: mpmath.exp(-x1 * z**6 - xi2 * z**2), [0, 0.01, 0.1, 1]))
    got = y_integral(YArgs(1.0 + 1.0j, xi2))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_y_quadrature_array_matches_scalar_calls():
    p = default_units(1.0)
    a = DecayAnsatz.explicit(p, 0.52916, -0.10722, c=0.45)
    t = np.linspace(0.0, 10.0, 301)
    Y = y_integral(YArgs.from_time(p, t, a.E))
    assert isinstance(Y, np.ndarray) and Y.shape == t.shape
    for ti, yi in zip(t, Y):
        want = y_integral(YArgs.from_time(p, ti, a.E), "quadrature")
        assert abs(yi - want) <= 1e-13 * abs(want), ti


_XI = st.complex_numbers(max_magnitude=40.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.lists(st.tuples(_XI, _XI), min_size=1, max_size=5),
    extra=st.lists(st.tuples(_XI, _XI), max_size=3),
    data=st.data(),
)
def test_y_array_is_its_one_node_calls(nodes, extra, data):
    # every node (ξ₁, ξ₂) has its own panel edges and convergence: its value
    # is its one-node call's, in any order and beside any other nodes
    xi1, xi2 = (np.array(v) for v in zip(*nodes))
    Y = y_integral(YArgs(xi1, xi2))
    assert Y.shape == (len(nodes),) and Y.tolist() == [y_integral(YArgs(*n)) for n in nodes]
    order = data.draw(st.permutations(range(len(nodes) + len(extra))))
    xi1, xi2 = (np.array(v)[order] for v in zip(*(nodes + extra)))
    mixed = y_integral(YArgs(xi1, xi2))
    assert [mixed[order.index(i)] for i in range(len(nodes))] == Y.tolist()


def test_y_array_blocks_do_not_change_values():
    # more nodes than one pass takes: a 2-D grid of 600 nodes against a
    # slice that starts inside a block and against one-node calls
    rng = np.random.default_rng(3)
    xi1 = (rng.uniform(-5, 40, 600) + 1j * rng.uniform(-40, 40, 600)).reshape(20, 30)
    Y = y_integral(YArgs(xi1, 2.0 - 1.0j))
    assert Y.shape == (20, 30)
    assert np.array_equal(Y.ravel()[100:], y_integral(YArgs(xi1.ravel()[100:], 2.0 - 1.0j)))
    for k in (0, 255, 256, 599):
        assert Y.ravel()[k] == y_integral(YArgs(xi1.ravel()[k], 2.0 - 1.0j))


def test_y_args_from_time():
    p = default_units(0.5)
    args = YArgs.from_time(p, 2.0, complex(p.E_b))
    # ξ₁ purely imaginary when E_b is real
    assert abs(args.xi1.real) <= 1e-12 * abs(args.xi1)
    assert args.xi1.imag == pytest.approx(0.25 * 0.125 * 8.0 / 3.0, rel=1e-12)
    assert args.xi2 == pytest.approx(1j * 1.0)  # Et/(iℏ) = −iEt = +0.5·2·i


# ---------------------------------------------------------------------------
# decay-ansatz closed forms
# ---------------------------------------------------------------------------

def test_ansatz_validation():
    p = default_units(0.5)
    with pytest.raises(ValueError):
        DecayAnsatz.explicit(p, -0.1, 0.0)
    with pytest.raises(ValueError):
        DecayAnsatz.explicit(p, 0.1, 0.0, c=1.5)
    a = DecayAnsatz.explicit(p, 0.1896, -0.0738, 0.65)
    assert a.E == pytest.approx(-0.5 - 0.0738 - 0.0948j)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["E_f", "gamma", "delta"])
def test_ansatz_rejects_non_finite(field, bad):
    values = {"E_f": -0.5, "gamma": 0.1, "delta": 0.0, field: bad}
    with pytest.raises(ValueError, match=field):
        DecayAnsatz(**values)


def test_combined_endpoints():
    p = default_units(0.5)
    a1 = DecayAnsatz.explicit(p, 0.1896, -0.0738, c=1.0)
    a0 = DecayAnsatz.explicit(p, 0.1896, -0.0738, c=0.0)
    t = 4.0
    assert decay_closed_psi0(p, t, a1, "combined") == decay_closed_psi0(p, t, a1, "additive")
    assert decay_closed_psi0(p, t, a0, "combined") == decay_closed_psi0(p, t, a0, "multiplicative")


def test_all_forms_start_at_sqrtB():
    p = default_units(0.7)
    a = DecayAnsatz.from_wkb(p, c=0.5)
    for form in ("additive", "multiplicative", "combined", "ansatz_only"):
        assert decay_closed_psi0(p, 0.0, a, form) == pytest.approx(1.0)


def test_additive_field_free_is_exact():
    # f = 0 with E = E_b: the ansatz is the exact solution and the closed
    # form collapses to √B e^{−iE_b t}
    p = default_units(0.0)
    a = DecayAnsatz.explicit(p, 0.0, 0.0)
    for t in (0.5, 3.0, 10.0):
        got = decay_closed_psi0(p, t, a, "additive")
        assert abs(got - np.exp(0.5j * t)) < 1e-10
        got_first = first_scheme_psi0(p, t)
        assert abs(got - got_first) < 1e-10


def test_combined_tracks_exact_with_reference_constants(exact_f05):
    # the measured ceiling of this closed form against the solver oracle
    # is 0.056 (at t ≈ 1.6, the first ripple); no c does better than 0.056
    sol = exact_f05
    p = sol.params
    a = DecayAnsatz.explicit(p, 0.1896, -0.0738, c=0.65)
    t = sol.grid.nodes[::40][1:]  # decimated comparison grid up to t = 20
    worst = 0.0
    for ti, psi_exact in zip(t, sol.psi0[::40][1:]):
        if ti > 10.0:
            break
        model = decay_closed_psi0(p, ti, a, "combined")
        worst = max(worst, abs(abs(model) ** 2 - abs(psi_exact) ** 2))
    assert worst <= 0.07


def test_decay_series_continuity():
    # no spurious branch jumps: adjacent samples change smoothly
    p = default_units(1.0)
    a = DecayAnsatz.explicit(p, 0.52916, -0.10722, c=0.45)
    t = np.linspace(0.02, 15.0, 400)
    vals = np.array([decay_closed_psi0(p, ti, a, "combined") for ti in t])
    steps = np.abs(np.diff(vals))
    assert steps.max() <= 60.0 * np.median(steps)


def test_multiplicative_pair_shares_y():
    p = default_units(0.5)
    a = DecayAnsatz.explicit(p, 0.1896, -0.0738, 0.65)
    add, mul = decay_closed_pair(p, 4.0, a)
    assert add == decay_closed_psi0(p, 4.0, a, "additive")
    assert mul == decay_closed_psi0(p, 4.0, a, "multiplicative")


def test_additive_at_series_domain_edge_vs_mpmath():
    # fig1a constants at t = 47.11 (|xi1| ~ 44, |xi2| ~ 24), where the
    # paper's 1F1 series, summed in double precision, is off by about 1e-7;
    # the closed form must carry Y to quadrature accuracy
    p = default_units(0.1)
    a = DecayAnsatz.explicit(p, 0.0010, -0.0072)
    t = 47.11
    args = YArgs.from_time(p, t, a.E)
    x1, x2 = mpmath.mpc(args.xi1), mpmath.mpc(args.xi2)
    Y = complex(mpmath.quad(lambda z: mpmath.exp(-x1 * z**6 - x2 * z**2), mpmath.linspace(0, 1, 41)))
    pref = math.sqrt(2.0 * t / math.pi) * np.exp(0.25j * math.pi)
    want = complex(volkov_phi(0.0, t, p)) + pref * np.exp(-1j * a.E * t) * Y
    add, _ = decay_closed_pair(p, t, a)
    assert abs(add - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("form", ["ansatz_only", "additive", "multiplicative", "combined"])
def test_closed_forms_array_matches_scalar_calls(form):
    p = default_units(1.0)
    a = DecayAnsatz.explicit(p, 0.52916, -0.10722, c=0.45)
    t = np.linspace(0.0, 10.0, 301)  # includes t = 0, spans many panel-count groups
    vals = decay_closed_psi0(p, t, a, form)
    assert isinstance(vals, np.ndarray) and vals.shape == t.shape
    for ti, v in zip(t, vals):
        want = decay_closed_psi0(p, ti, a, form)
        assert isinstance(want, complex)
        assert abs(v - want) <= 1e-13 * abs(want), (form, ti)


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig1c", "fig1d"])
def test_additive_on_presets_vs_mpmath(name):
    # Y at t_max/4, t_max/2 and t_max by mpmath, on z-panels that carry at
    # most ~6 rad of the phase |ξ₁|z⁶ + |ξ₂|z².  The error is measured against
    # the Y term: at fig1d and t = 20 the additive form cancels 70-fold
    # (|ψ| = 6.3e-6 against a Y term of 4.5e-4)
    row = PRESETS[name]
    p = default_units(row["f"])
    a = DecayAnsatz.explicit(p, row["gamma_d2"], row["delta_d2"])
    t = row["t_max"] * np.array([0.25, 0.5, 1.0])
    got = decay_closed_psi0(p, t, a, "additive")
    for ti, add in zip(t, got):
        args = YArgs.from_time(p, ti, a.E)
        K = math.ceil((abs(args.xi1) + abs(args.xi2)) / 6.0)
        pts = sorted({(k / K) ** (1.0 / 6.0) for k in range(K + 1)} | {k / 40 for k in range(41)})
        with mpmath.workdps(20):
            x1, x2 = mpmath.mpc(args.xi1), mpmath.mpc(args.xi2)
            Y = complex(mpmath.quad(lambda z: mpmath.exp(-x1 * z**6 - x2 * z**2), pts,
                                    method="gauss-legendre"))
        term = math.sqrt(2.0 * ti / math.pi) * np.exp(0.25j * math.pi) * np.exp(-1j * a.E * ti) * Y
        want = complex(volkov_phi(0.0, ti, p)) + term
        assert abs(add - want) <= 1e-11 * abs(term), (name, ti)


def test_decay_pair_node_values_do_not_depend_on_the_call():
    # the panels of G(√t) are fixed by (a, b) alone, so a node's value is the
    # same whichever other nodes share the call
    p = default_units(2.0)
    a = DecayAnsatz.explicit(p, 1.2115, -0.11235)
    t = np.linspace(0.0, 20.0, 2001)
    add, mul = _decay_pair(p, t, a)
    for part in (slice(0, 1), slice(0, 2), slice(0, 17), slice(0, 1000), slice(0, 2000), slice(1500, None)):
        add_k, mul_k = _decay_pair(p, t[part], a)
        assert np.all(np.abs(add_k - add[part]) <= 1e-13 * np.abs(add[part])), part
        assert np.all(np.abs(mul_k - mul[part]) <= 1e-13 * np.abs(mul[part])), part


def test_multiplicative_form_refuses_a_singular_denominator(monkeypatch):
    # only numerics bring 1 − √(2iℏB³t/(πm))·Y(t) to zero, so a stand-in G
    # puts the prefactor times G at √B on every node
    p = default_units(0.5)
    a = DecayAnsatz.explicit(p, 0.1896, -0.0738)
    pref = math.sqrt(2.0 * p.hbar * p.B**3 / (math.pi * p.mass)) * approx._EXP_IPI4
    monkeypatch.setattr(approx, "_g_integral", lambda aa, bb, s: np.full(s.shape, math.sqrt(p.B) / pref))
    with pytest.raises(PrecisionLossError, match=r"multiplicative form singular at t=1\.0 "):
        decay_closed_psi0(p, np.array([1.0, 2.0]), a, "multiplicative")


def test_y_quadrature_refuses_a_node_that_does_not_converge(monkeypatch):
    # only numerics keep two passes of G apart down to the panel cap, so a
    # stand-in pass moves every value by its step
    real = approx._g_pass
    monkeypatch.setattr(approx, "_g_pass", lambda a, b, aa, bb, s, step: real(a, b, aa, bb, s, step) + step)
    with pytest.raises(PrecisionLossError, match="did not reach 1e-12 at a=.*, s=1.0"):
        y_integral(YArgs(1.0, 0.5))
