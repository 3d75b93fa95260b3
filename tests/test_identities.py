import math

import numpy as np
import pytest

from deltawell import identities, specfun
from deltawell.errors import ConvergenceError
from deltawell.identities import (
    check_airy_erf_identity,
    check_airy_fourier,
    check_z6_identity,
    z6_closed_form,
)
from oracles import erf_airy_regularized


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


def test_airy_fourier_regression():
    # 41 η on [−5, 5] and ±√5, where the tail's bottom switches from −240
    # to 6c; ±5 reach the lowest tail bottom
    etas = [*np.linspace(-5.0, 5.0, 41), math.sqrt(5.0), -math.sqrt(5.0)]
    err, eta = max((check_airy_fourier(eta).abs_err, eta) for eta in etas)
    assert err <= 1e-12, eta


def test_airy_fourier_tail_table_ends_at_the_validated_range():
    # the table ends at the Airy–Fourier tail's bottom at |η| = 5, below
    # the ε-ladder's at |χ| = 1; a range below the table is an error, never
    # a shorter one
    cells = identities._airy_table()[0].size // 12 - identities._CELLS_ABOVE
    assert cells == identities._tail_cells(5.0)[1]
    assert identities._ladder_cells(1.0) < cells
    with pytest.raises(ValueError, match="validated"):
        identities._airy_fourier_tail(5.2)
    with pytest.raises(ValueError, match="validated"):
        check_airy_erf_identity(1.01)
    with pytest.raises(ValueError, match="below the table"):
        identities._erf_airy_ladder(2.4 + 0j)


def _count_airy_calls(monkeypatch):
    # sizes of the identities' _airy_both calls, and a count of specfun.airy_ai calls
    sizes, airy_ai_calls = [], []
    real = identities._airy_both

    def spy(s):
        sizes.append(np.size(s))
        return real(s)

    monkeypatch.setattr(identities, "_airy_both", spy)
    monkeypatch.setattr(specfun, "airy_ai", lambda *args: airy_ai_calls.append(args))
    assert not hasattr(identities, "airy_ai")
    return sizes, airy_ai_calls


def test_airy_fourier_tail_table_built_once(monkeypatch):
    sizes, airy_ai_calls = _count_airy_calls(monkeypatch)
    identities._airy_table.cache_clear()
    for eta, chi in zip(np.linspace(-2.0, 2.0, 10), np.linspace(0.05, 1.0, 10)):
        check_airy_fourier(eta)
        check_airy_erf_identity(chi)
    # one array call builds the table; the others are the scalar Ai(c), Ai′(c)
    assert sum(n > 1 for n in sizes) == 1
    assert len(sizes) == 11
    assert not airy_ai_calls


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
    # at ξ₂ = 0 the paper's Y series is its j = 0 term e^{−ξ₁}₁F₁(1;7/6;ξ₁);
    # the z⁶ closed form takes ₁F₁(1;13/6;ξ₁), so the two agree through the
    # contiguous relation (6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1 = ₁F₁(1;7/6;ξ₁)
    for xi1 in (0.1, 1.0, 2.0, 5.0j, 1.0 + 3.0j):
        a = np.exp(-xi1) * specfun.hyp1f1_one(7.0 / 6.0, xi1)
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


def test_airy_erf_ladder_non_finite_rung_raises():
    # outside |χ| ≤ 1 the unchecked ladder has a non-finite rung at χ = 1.6
    with pytest.raises(ConvergenceError, match="non-finite rung"):
        identities._erf_airy_ladder(1.6 + 0j)


def test_airy_erf_special_functions_called_once_per_chi(monkeypatch):
    identities._airy_table()
    sizes, airy_ai_calls = _count_airy_calls(monkeypatch)
    cerfc_calls = []
    real = identities.cerfc

    def spy(z):
        cerfc_calls.append(np.size(z))
        return real(z)

    monkeypatch.setattr(identities, "cerfc", spy)
    for chi in (0.05, 0.3, 0.8 + 0.5j):
        check_airy_erf_identity(chi)
    # Ai comes from the table; erf is one array call per χ
    assert not sizes and not airy_ai_calls
    assert len(cerfc_calls) == 3 and min(cerfc_calls) > 1


@pytest.mark.parametrize("chi", [0.05, 0.3, 1.0, 1.0 + 0.5j])
def test_airy_erf_rungs_match_quad_oracle(chi):
    rungs = identities._erf_airy_ladder(complex(chi))
    for j, got in enumerate(rungs):
        want, scale = erf_airy_regularized(chi, 0.05 / 2**j)
        # 1e-10 relative, or the rounding floor of a double-precision sum
        # over cancelling cells: at χ = 1, ε₀/4, Σ|cells| is 1.2e6·|I|, and
        # against 30-digit mpmath the rung is off by 1.8e-9 relative and
        # the quad oracle by 5.1e-9
        assert abs(got - want) <= max(1e-10 * abs(want), 1e-14 * scale), j
