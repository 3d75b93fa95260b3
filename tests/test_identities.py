import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import airy

from deltawell import identities, specfun
from deltawell.identities import (
    check_airy_erf_identity,
    check_airy_fourier,
    check_z6_identity,
)
from oracles import airy_fourier_segment, erf_airy_rotated, erf_airy_series


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


@pytest.mark.parametrize("check, points", [
    (check_airy_fourier, np.array([1 + 2j, 0.5 + 3j])),
    (check_airy_fourier, [0.5, 1j]),
    (check_airy_fourier, True),
    (check_z6_identity, True),
    (check_airy_erf_identity, [0.1, np.bool_(False)]),
    (check_airy_fourier, "1"),
    (check_z6_identity, [0.5, "2"]),
    (check_airy_erf_identity, np.array(["0.1"])),
], ids=["complex_eta_array", "complex_eta", "bool_eta", "bool_xi1", "bool_chi",
        "string_eta", "string_xi1", "string_array_chi"])
def test_grid_refuses_a_point_that_is_not_a_number(check, points):
    # numpy would take True as 1, parse "1" and drop an imaginary part with
    # only a ComplexWarning, and the check would run on that number
    with pytest.raises(ValueError, match="grid points must be"):
        check(points)


def test_airy_fourier_regression():
    # 8 001 η on [−5, 5] and ±√5, against the CLI gate of 1e-12; ±5 reach
    # the lowest cutoff.  The worst abs_err measured is 2.3e-14, at
    # η = 4.91875
    etas = np.array([*np.linspace(-5.0, 5.0, 8001), math.sqrt(5.0), -math.sqrt(5.0)])
    errs = [r.abs_err for r in check_airy_fourier(etas)]
    assert max(errs) <= 1e-12, etas[int(np.argmax(errs))]


@settings(max_examples=100, deadline=None)
@given(eta=st.floats(-5.0, 5.0))
def test_airy_fourier_property(eta):
    # over 4 001 η on [−5, 5] the worst abs_err was 2.0e-14, and lhs(−η)
    # was conj(lhs(η)) exactly: every step is odd in the sign of η.  The
    # second bound is about one ulp of |lhs| ≤ 1
    plus, minus = check_airy_fourier(eta), check_airy_fourier(-eta)
    assert plus.abs_err <= 1e-12
    assert abs(plus.lhs - np.conj(minus.lhs)) <= 1e-15


_ORACLE_ETAS = [0.0, 1.0, -1.0, 2.0, -2.0, math.sqrt(5.0), -math.sqrt(5.0), 5.0, -5.0]
# worst measured error against the quad oracle: 7.2e-15 on the tail and
# 7.4e-15 on the direct part, both at η = ±5; the bound is four times that
_ORACLE_TOL = 3e-14


@functools.cache
def _direct_oracle(eta):
    """∫_c^{16.05} Ai(σ)e^{iησ}dσ by ``quad``, from the check's cutoff c;
    beyond 16.05 the integral is below 1e-19."""
    c = identities._airy_fourier_sums(np.array([eta]))[0][0]
    return airy_fourier_segment(eta, c, 16.05)


@pytest.mark.parametrize("eta", _ORACLE_ETAS)
def test_airy_fourier_tail_matches_quad_oracle(eta):
    tail = identities._airy_fourier_sums(np.array([eta]))[1][0]
    assert abs(tail - (np.exp(-1j * eta**3 / 3.0) - _direct_oracle(eta))) <= _ORACLE_TOL


@pytest.mark.parametrize("eta", _ORACLE_ETAS)
def test_airy_fourier_direct_part_matches_quad_oracle(eta):
    got = check_airy_fourier(eta).lhs - identities._airy_fourier_sums(np.array([eta]))[1][0]
    assert abs(got - _direct_oracle(eta)) <= _ORACLE_TOL


def test_airy_fourier_tail_table_ends_at_the_validated_range():
    # the Airy–Fourier table ends at the cutoff at |η| = 5, and the
    # erf–Airy table at r = 20, where at |χ| = 1 the integrand, at most
    # Ai(r)e^{r}, has fallen below e^{−39}; a point beyond either range is
    # refused
    mids, _, w_ai = identities._airy_table()
    assert mids.size == w_ai.shape[0] == identities._CELLS_ABOVE + identities._cutoff_cells(5.0)
    c = identities._airy_fourier_sums(np.array([5.0, -5.0]))[0]
    assert c[0] == c[1] == pytest.approx(-80.1)
    assert mids[-1] - 0.5 * identities._CELL == pytest.approx(c[0])
    roots, w_ai = identities._erf_airy_table()
    r = np.abs(roots[0]) ** 2
    assert roots.shape == (3, 120) and 19.9 < r.max() < 20.0 and 0.0 < r.min() < 0.1
    assert airy(20.0)[0] * math.exp(20.0) < math.exp(-39.0)
    with pytest.raises(ValueError, match="validated"):
        identities._airy_fourier_sums(np.array([5.2]))
    with pytest.raises(identities.GridPointError, match="validated"):
        check_airy_erf_identity(1.01)


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
    identities._erf_airy_table.cache_clear()
    for eta, chi in zip(np.linspace(-2.0, 2.0, 10), np.linspace(0.05, 1.0, 10)):
        check_airy_fourier(eta)
        check_airy_erf_identity(chi)
    # one array call builds each table
    assert len(sizes) == 2 and min(sizes) > 1
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
        b = identities._z6_rhs(np.array([xi1], dtype=complex))[0]
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# erf-Airy identity
# ---------------------------------------------------------------------------

# the CLI gate, about ten times the worst relative error measured, 9.2e-15
# over 4 000 random χ in the unit disk
_ERF_GATE = 1e-13


def test_airy_erf_zero_chi():
    r = check_airy_erf_identity(0.0)
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.abs_err == 0.0


def test_airy_erf_small_real_chi():
    r = check_airy_erf_identity(0.3)
    assert not r.flags
    assert r.rel_err <= _ERF_GATE


def test_airy_erf_complex_chi():
    chi = 0.3 * np.exp(1j * np.pi / 12.0)
    r = check_airy_erf_identity(chi)
    assert not r.flags
    assert r.rel_err <= _ERF_GATE


def test_airy_erf_regression():
    # 96 phases at |χ| = 1, six of which numpy's complex abs rounds one ulp
    # above 1, and 4 000 seeded random χ in the unit disk.  The worst
    # measured are 5.7e-16 on the circle and 9.2e-15 in the disk
    rng = np.random.default_rng(0)
    disk = np.sqrt(rng.uniform(0.0, 1.0, 4000)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 4000))
    circle = np.exp(2j * np.pi * np.arange(96) / 96)
    for chis in (circle, disk):
        errs = [r.rel_err for r in check_airy_erf_identity(chis)]
        assert max(errs) <= 1e-14, chis[int(np.argmax(errs))]


@settings(max_examples=100, deadline=None)
@given(chi=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_airy_erf_property(chi):
    # the rotated integral is summed with the conjugate rays paired, so
    # lhs(χ̄) is conj(lhs(χ)) exactly
    r = check_airy_erf_identity(chi)
    assert not r.flags and r.rel_err <= _ERF_GATE
    assert check_airy_erf_identity(np.conj(chi)).lhs == np.conj(r.lhs)


def test_airy_erf_special_functions_called_once_per_chi(monkeypatch):
    identities._erf_airy_table()
    sizes, airy_ai_calls = _count_airy_calls(monkeypatch)
    erf_calls = []
    real = identities.erf

    def spy(z):
        erf_calls.append(np.shape(z))
        return real(z)

    monkeypatch.setattr(identities, "erf", spy)
    for chi in (0.05, 0.3, 0.8 + 0.5j):
        check_airy_erf_identity(chi)
    check_airy_erf_identity(np.array([0.05, 0.0, 0.3, 0.8 + 0.5j]))
    check_airy_erf_identity(np.zeros(300))
    # Ai comes from the table; erf is one array call per ray and block of
    # at most 256 χ, on the table's 120 nodes for each χ
    assert not sizes and not airy_ai_calls
    assert erf_calls == [(1, 120)] * 9 + [(4, 120)] * 3 + [(256, 120)] * 3 + [(44, 120)] * 3


def test_airy_erf_table_built_once_per_process():
    identities._erf_airy_table.cache_clear()
    for grid in (0.3, np.array([0.05, 0.2]), np.array([1.0, 0.8 + 0.5j, 0.1j])):
        check_airy_erf_identity(grid)
    info = identities._erf_airy_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)  # one look-up per grid
    roots, w_ai = identities._erf_airy_table()
    assert not roots.flags.writeable and not w_ai.flags.writeable


_ERF_ORACLE_CHIS = [
    0.05, 0.3, 1.0, (1.0 + 0.5j) / abs(1.0 + 0.5j),
    np.exp(0.2j * np.pi) * (1.0 - 2.0**-52), 0.7j, 0.9 * np.exp(0.6j * np.pi),
]


@pytest.mark.parametrize("chi", _ERF_ORACLE_CHIS)
def test_airy_erf_lhs_matches_quad_oracle(chi):
    # worst measured 1.8e-15 relative, at χ = 0.05; the bound is four times
    # that
    want = erf_airy_rotated(chi)
    assert abs(check_airy_erf_identity(chi).lhs - want) <= 8e-15 * abs(want)


@pytest.mark.parametrize("chi", _ERF_ORACLE_CHIS)
def test_airy_erf_rhs_matches_mpmath_series(chi):
    # worst measured 2.5e-16 relative, at χ = 0.05; the bound is four times
    # that
    want = erf_airy_series(chi)
    assert abs(check_airy_erf_identity(chi).rhs - want) <= 1e-15 * abs(want)


# ---------------------------------------------------------------------------
# grids: one call per grid, each point as if alone
# ---------------------------------------------------------------------------

_FINITE = dict(allow_nan=False, allow_infinity=False)
_SELECTORS = {
    "z6": (check_z6_identity, st.complex_numbers(max_magnitude=50.0, **_FINITE)),
    "airy_fourier": (check_airy_fourier, st.floats(-5.0, 5.0)),
    "airy_erf": (
        check_airy_erf_identity,
        st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1.0, **_FINITE)),
    ),
}


@pytest.mark.parametrize("name", _SELECTORS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_grid_point_is_its_one_point_call(name, data):
    # a point's report does not depend on the grid it is in: equal to its
    # one-point call, in any order and beside any other points
    check, point = _SELECTORS[name]
    grid = data.draw(st.lists(point, min_size=1, max_size=4))
    extra = data.draw(st.lists(point, max_size=3))
    reports = check(np.array(grid))
    assert isinstance(reports, tuple) and len(reports) == len(grid)
    assert list(reports) == [check(p) for p in grid]
    order = data.draw(st.permutations(range(len(grid) + len(extra))))
    mixed = check(np.array(grid + extra)[order])
    assert [mixed[order.index(i)] for i in range(len(grid))] == list(reports)


@pytest.mark.parametrize("check", [check_z6_identity, check_airy_fourier, check_airy_erf_identity])
def test_grid_refuses_a_point_outside_the_range_before_computing(check, monkeypatch):
    # the first point outside the validated range is named by its index,
    # before any point is computed
    assert check(np.array([])) == ()
    monkeypatch.setattr(identities, "y_integral", None)
    monkeypatch.setattr(identities, "_cutoff_cells", None)
    monkeypatch.setattr(identities, "_erf_airy_lhs", None)
    with pytest.raises(identities.GridPointError, match="validated only") as err:
        check(np.array([0.1, 0.2, 60.0, math.nan]))
    assert err.value.index == 2
    with pytest.raises(ValueError, match="1-D"):
        check(np.zeros((2, 2)))


# tracemalloc peaks of one 2 000-point grid drawn over the benchmark's
# ranges, after the tables were built, measured: z6 2.14 MB, airy_fourier
# 1.82 MB (its tail blocks of 256 η), airy_erf 2.37 MB (the
# ₁F₁ blocks of its right side; its left side's blocks of 256 χ peak at
# 1.8 MB).  The bound is about 1.5 times the largest and
# 6% of the resident size of a process that runs the checks (64 MiB).
# Without the blocks of 256 Y rows the z6 grid peaked at 4.53 MB, and
# without the ₁F₁ blocks the erf–Airy grid at 6.95 MB
_GRID_PEAK_BOUND = 4 << 20


@pytest.mark.parametrize("name", _SELECTORS)
def test_large_grid_memory_stays_bounded(name):
    rng = np.random.default_rng(11)
    n = 2000
    grid = {
        "z6": rng.uniform(0.0, 5.0, n) + 1j * rng.uniform(-5.0, 5.0, n),
        "airy_fourier": rng.uniform(-2.0, 2.0, n),
        "airy_erf": rng.uniform(0.0, 0.3, n) + 0j,
    }[name]
    check = _SELECTORS[name][0]
    check(grid[:1])  # the tables are per process, not per grid
    tracemalloc.start()
    try:
        reports = check(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == n and not any(r.flags for r in reports)
    assert peak <= _GRID_PEAK_BOUND, peak
