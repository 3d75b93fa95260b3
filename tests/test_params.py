import math

import pytest
from hypothesis import given, strategies as st

from deltawell.params import default_units, derive_params


def test_reference_units():
    p = derive_params(1.0, 1.0, 1.0, 0.1)
    assert p.B == 1.0
    assert p.E_b == -0.5
    assert p.f == pytest.approx(0.1, abs=0)


def test_field_free_case():
    p = derive_params(1.0, 1.0, 1.0, 0.0)
    assert p.f == 0.0
    assert p.E_b == -0.5


def test_heavier_particle():
    p = derive_params(1.0, 2.0, 1.0, 0.5)
    assert p.B == 2.0
    assert p.E_b == -1.0
    # f = m·F/(ℏ²B³) = 2·0.5/8
    assert p.f == pytest.approx(0.125)


@pytest.mark.parametrize(
    "args",
    [(0.0, 1, 1, 0), (1, -1, 1, 0), (1, 1, 0, 0), (1, 1, 1, -0.1), (math.inf, 1, 1, 0)],
)
def test_domain_errors(args):
    with pytest.raises(ValueError):
        derive_params(*args)


@pytest.mark.parametrize("args", [
    (1e-200, 1.0, 1.0, 0.0),  # ℏ² underflows to 0: B = m·V₀/ℏ² divides by zero
    (1.0, 1e200, 1e200, 0.0),  # m·V₀ overflows: B = inf, E_b = −inf
])
def test_float_range_errors(args):
    with pytest.raises(ValueError, match="leaves the floating-point range"):
        derive_params(*args)


@given(
    F=st.floats(1e-6, 10.0),
    hbar=st.floats(0.1, 10.0),
    mass=st.floats(0.1, 10.0),
    v0=st.floats(0.1, 10.0),
)
def test_f_linear_in_field(F, hbar, mass, v0):
    p1 = derive_params(hbar, mass, v0, F)
    p2 = derive_params(hbar, mass, v0, 2.0 * F)
    assert p2.f == pytest.approx(2.0 * p1.f, rel=1e-12)


@given(
    hbar=st.floats(0.1, 10.0),
    mass=st.floats(0.1, 10.0),
    v0=st.floats(0.1, 10.0),
)
def test_bound_energy_depends_only_on_hbar_mass_B(hbar, mass, v0):
    p = derive_params(hbar, mass, v0, 0.0)
    assert p.E_b == pytest.approx(-(hbar**2) * p.B**2 / (2.0 * mass), rel=1e-14)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_input_is_refused(k, flag):
    # a bool is an int to Python, but True is not a field strength
    args = [1.0, 1.0, 1.0, 0.5]
    args[k] = flag
    with pytest.raises(ValueError, match="must be a number"):
        derive_params(*args)


def test_default_units_refuses_a_boolean():
    with pytest.raises(ValueError, match="field must be a number"):
        default_units(True)
