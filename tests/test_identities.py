import numpy as np
import pytest

from deltawell.approx import YArgs, y_integral
from deltawell.identities import (
    check_airy_erf_identity,
    check_airy_fourier,
    check_z6_identity,
    z6_closed_form,
)


# ---------------------------------------------------------------------------
# Airy-Fourier transform
# ---------------------------------------------------------------------------

def test_airy_fourier_normalization():
    r = check_airy_fourier(0.0)
    assert abs(r.lhs - 1.0) <= 1e-6
    assert r.abs_err <= 1e-6


def test_airy_fourier_unit_argument():
    r = check_airy_fourier(1.0)
    assert r.rhs == pytest.approx(np.exp(-1j / 3.0))
    assert r.abs_err <= 1e-6


def test_airy_fourier_conjugation():
    plus = check_airy_fourier(1.0)
    minus = check_airy_fourier(-1.0)
    assert abs(plus.lhs - np.conj(minus.lhs)) < 1e-10


@pytest.mark.parametrize("eta", [0.0, 1.0, -1.0, 2.0, 5.0])
def test_airy_fourier_grid(eta):
    r = check_airy_fourier(eta)
    assert r.abs_err <= 1e-6
    assert not r.flags


def test_airy_fourier_domain():
    with pytest.raises(ValueError):
        check_airy_fourier(6.0)


# ---------------------------------------------------------------------------
# z^6 identity
# ---------------------------------------------------------------------------

def test_z6_trivial_point():
    r = check_z6_identity(0.0)
    assert r.lhs == pytest.approx(1.0, abs=1e-14)
    assert r.rhs == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("xi1", [0.1, 1.0, 2.0, 5.0j, 1.0 + 3.0j])
def test_z6_grid(xi1):
    r = check_z6_identity(xi1)
    assert r.rel_err <= 1e-9


def test_z6_complex_agreement_levels():
    assert check_z6_identity(2.0).rel_err <= 1e-10
    assert check_z6_identity(5.0j).rel_err <= 1e-9


def test_z6_domain():
    with pytest.raises(ValueError):
        check_z6_identity(60.0)


def test_consistency_chain_with_y_series():
    # Y(ξ₁, 0) and the z⁶ closed form are the same function through two
    # code paths (approx series vs identities RHS)
    for xi1 in (0.1, 1.0, 2.0, 5.0j, 1.0 + 3.0j):
        a = y_integral(YArgs(xi1, 0.0), "series")
        b = z6_closed_form(xi1)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# erf-Airy identity (regularized)
# ---------------------------------------------------------------------------

def test_airy_erf_zero_chi():
    r = check_airy_erf_identity(0.0)
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.abs_err == 0.0


def test_airy_erf_small_real_chi():
    r = check_airy_erf_identity(0.3)
    assert not r.flags
    assert r.rel_err <= 1e-3
    assert "eps ladder" in r.regularization


def test_airy_erf_complex_chi():
    chi = 0.3 * np.exp(1j * np.pi / 12.0)
    r = check_airy_erf_identity(chi)
    # weaker target reflecting conditional convergence; a flagged ladder
    # would mark the check inconclusive rather than failed
    assert r.flags or r.rel_err <= 1e-2
