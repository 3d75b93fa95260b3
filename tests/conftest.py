import numpy as np
import pytest
from hypothesis import settings

from deltawell.params import default_units
from deltawell.volterra import TimeGrid, solve_psi0

# the same examples on every run, so that a property test passes or fails
# for the code and not for the draw
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def exact_f05():
    """Exact solve at f = 0.5 on a mid-resolution grid (shared by tests)."""
    params = default_units(0.5)
    return solve_psi0(params, TimeGrid(20.0, 4000)), params


@pytest.fixture(scope="session")
def exact_f1():
    params = default_units(1.0)
    return solve_psi0(params, TimeGrid(20.0, 8000)), params


def assert_close(got, want, tol, label=""):
    got, want = complex(got), complex(want)
    err = abs(got - want)
    assert err <= tol, f"{label}: |{got} - {want}| = {err:.3e} > {tol:g}"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
