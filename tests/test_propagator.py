import math

import numpy as np
import pytest
from scipy.integrate import quad

from deltawell.params import default_units, derive_params
from deltawell.propagator import _VolkovAt, _volkov_phi, bound_state, volkov_phi
from deltawell.specfun import moshinsky
from oracles import free_kernel, phi0_field_free


def _cquad(f, a, b, **kw):
    re, _ = quad(lambda x: f(x).real, a, b, **kw)
    im, _ = quad(lambda x: f(x).imag, a, b, **kw)
    return complex(re, im)


def test_free_kernel_reference_value():
    p = default_units(0.0)
    got = free_kernel(0.0, 1.0, 0.0, p)
    want = math.sqrt(1.0 / (2.0 * math.pi)) * np.exp(-0.25j * math.pi)
    assert abs(got - want) < 1e-15


def test_free_kernel_even_in_x():
    p = default_units(0.0)
    assert free_kernel(1.3, 2.0, 0.3, p) == free_kernel(-1.3, 2.0, 0.3, p)


def test_free_kernel_propagates_bound_state():
    # ∫dx' K0(0,t|x',0) ψ_b(x') = φ0(0,t); K0 depends on x−x' only
    p = default_units(0.0)
    t = 1.0
    got = _cquad(
        lambda xp: free_kernel(xp, t, 0.0, p) * bound_state(xp, p),
        -40.0, 40.0, limit=400, epsabs=1e-10, epsrel=1e-10,
    )
    assert abs(got - phi0_field_free(t, p)) < 1e-8


def test_free_kernel_semigroup_spot_check():
    # ∫dx" K0(x,t|x",s) K0(x",s|x',0) = K0(x,t|x',0), Gaussian-regularized
    # Fresnel integral extrapolated in the regulator
    p = default_units(0.0)
    x, xp, s, t = 0.7, -0.4, 0.6, 1.5

    def value(epsilon):
        half = math.sqrt(25.0 / epsilon)  # e^{-25} regulator tail
        u = np.linspace(-half, half, 400001)
        vals = (
            free_kernel(x - u, t, s, p)
            * free_kernel(u - xp, s, 0.0, p)
            * np.exp(-epsilon * u * u)
        )
        from scipy.integrate import simpson

        return complex(simpson(vals.real, x=u), simpson(vals.imag, x=u))

    v1, v2, v3 = value(4e-3), value(2e-3), value(1e-3)
    extrap = (8.0 * v3 - 6.0 * v2 + v1) / 3.0
    want = free_kernel(x - xp, t, 0.0, p)
    assert abs(extrap - want) < 1e-6


def test_volkov_initial_condition():
    p = default_units(1.0)
    x = 0.7
    assert abs(volkov_phi(x, 1e-8, p) - bound_state(x, p)) < 1e-6
    assert volkov_phi(x, 0.0, p) == bound_state(x, p)


def test_volkov_rejects_negative_time():
    with pytest.raises(ValueError, match="requires t >= 0"):
        volkov_phi(0.0, -1.0, default_units(0.1))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_volkov_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match="non-finite argument"):
        volkov_phi(np.array([0.0, x]), 1.0, default_units(0.1))


@pytest.mark.parametrize("x, t", [
    (True, 1.0), (np.True_, 1.0), ("1", 1.0), (np.zeros(3, dtype=bool), 1.0), ([0.5, "1"], 1.0),
    (1.0, True), (1.0, "1.0"), (np.ones(2), np.ones(2, dtype=bool)), (1.0, 1.0 + 0.0j),
])
def test_volkov_refuses_boolean_and_non_real_input(x, t):
    # numpy would take True as 1, parse "1" and drop an imaginary part
    with pytest.raises(ValueError, match="must be real numbers"):
        volkov_phi(x, t, default_units(1.0))


def test_volkov_field_free_closed_form():
    # F = 0, x = 0: φ0(0,t) = √B e^{−iE_b t/ℏ} erfc(√(−iE_b t/ℏ)), with erfc from scipy
    for p in (default_units(0.0), derive_params(0.7, 1.9, 1.3, 0.0)):
        for t in (0.5, 2.0, 11.0, 50.0):
            assert abs(volkov_phi(0.0, t, p) - phi0_field_free(t, p)) < 1e-12


def test_volkov_even_in_x_at_zero_field():
    p = default_units(0.0)
    x = np.array([0.3, 1.1, 4.2])
    assert np.allclose(volkov_phi(x, 2.0, p), volkov_phi(-x, 2.0, p), rtol=0, atol=1e-15)


def test_volkov_norm_is_conserved():
    # unitary evolution of the normalized bound state, f = 1, t = 3.
    # The ballistic tail is algebraic (the bound state's momentum density
    # falls like p⁻⁴), so reaching 1e−6 needs the momentum cut
    # (4/3π)p⁻³ ≤ 2.5e−7, i.e. |x| ≲ x_c + 120·t.
    p = default_units(1.0)
    t = 3.0
    p_cut = 120.0
    xm = p.field * t * t / 2.0 + p_cut * t + 40.0 / p.B
    x = np.linspace(-xm, xm, 200001)
    dens = np.abs(volkov_phi(x, t, p)) ** 2
    from scipy.integrate import simpson

    assert simpson(dens, x=x) == pytest.approx(1.0, abs=1e-6)


def test_phi0_at_zero_time():
    p = derive_params(1.0, 1.0, 2.0, 0.0)  # B = 2
    assert phi0_field_free(0.0, p) == pytest.approx(math.sqrt(2.0))


def test_phi0_long_time_decay():
    p = default_units(0.0)
    assert abs(phi0_field_free(50.0, p)) <= 0.2


def test_volkov_short_time_sqrt_slope():
    # φ_F(0,t) = √B(1 + c₁√t + O(t)) with c₁ = −(2/√π)√(i|E_b|/ℏ);
    # the residual after removing the √t term must vanish faster than √t
    p = default_units(1.0)
    c1 = -(2.0 / math.sqrt(math.pi)) * np.sqrt(0.5j)

    def resid(t):
        return abs(volkov_phi(0.0, t, p) - (1.0 + c1 * math.sqrt(t))) / math.sqrt(t)

    r_big, r_small = resid(1e-4), resid(1e-6)
    assert r_small < 0.2 * r_big
    assert r_small < 1e-2


def test_volkov_matches_moshinsky_composition():
    # φ_F against its defining Moshinsky composition at a generic point
    p = default_units(0.7)
    x, t = 1.3, 2.4
    F = p.field
    x_c = F * t * t / 2.0
    S_c = F * F * t**3 / 6.0
    want = np.exp(1j * (x * F * t - S_c)) * (
        moshinsky(x - x_c, -1j, t) + moshinsky(x_c - x, -1j, t)
    )
    assert abs(volkov_phi(x, t, p) - want) < 1e-14


@pytest.mark.parametrize("f", [0.0, 1.0, 2.0])
def test_volkov_phi_one_x_matches_array(f):
    # one float x at a time (`_VolkovAt`, the reconstruction's φ_F) runs
    # the Moshinsky steps on scalars, with an if for the reflection; both
    # branches of both terms occur on this grid.  Measured within 3.4e-16
    # of max|φ_F| (numpy's array and scalar complex products round
    # differently)
    p = default_units(f)
    x = np.linspace(-40.0, 60.0, 401)
    for t in (0.01, 1.0, 4.0):
        want = _volkov_phi(x, t, p)
        phi = _VolkovAt(t, p)
        got = np.array([phi(v) for v in x.tolist()])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), t
