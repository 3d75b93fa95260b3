import os

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
    return solve_psi0(default_units(0.5), TimeGrid(20.0, 4000))


@pytest.fixture(scope="session")
def exact_f1():
    return solve_psi0(default_units(1.0), TimeGrid(20.0, 8000))


def assert_close(got, want, tol, label=""):
    got, want = complex(got), complex(want)
    err = abs(got - want)
    assert err <= tol, f"{label}: |{got} - {want}| = {err:.3e} > {tol:g}"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    pytest.fail(f"the test left child process {pid or '(still running)'} behind")
