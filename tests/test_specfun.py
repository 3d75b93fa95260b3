import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from deltawell.errors import PrecisionLossError
from deltawell.identities import _airy_fourier_sums
from deltawell.specfun import (
    _airy_wave,
    airy_ai,
    airy_ai_prime,
    cerfc,
    hyp1f1_one,
    hyp1f1_one_family,
    moshinsky,
)

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# complementary error function
# ---------------------------------------------------------------------------

def test_cerfc_at_zero():
    assert cerfc(0.0) == pytest.approx(1.0, abs=1e-15)


def test_cerfc_reflection_at_point():
    z = 1.0 + 1.0j
    assert abs(cerfc(z) + cerfc(-z) - 2.0) < 1e-14


def test_cerfc_at_two_vs_series_oracle():
    # independent oracle: mpmath arbitrary-precision series evaluation
    ref = complex(mpmath.erfc(2))
    assert abs(cerfc(2.0) - ref) / abs(ref) < 1e-13
    assert ref == pytest.approx(0.004677734981063, rel=1e-12)


def test_cerfc_accuracy_grid_vs_oracle(rng):
    pts = []
    for r in (0.05, 0.5, 1.5, 3.0, 5.0, 8.0, 9.0, 15.0, 30.0):
        for th in np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False):
            pts.append(r * np.exp(1j * th))
    pts += list(rng.uniform(-6, 6, 120) + 1j * rng.uniform(-6, 6, 120))
    for z in pts:
        ref = complex(mpmath.erfc(complex(z)))
        if ref == 0 or not (math.isfinite(ref.real) and math.isfinite(ref.imag)):
            continue  # value not representable in double: overflow contract applies
        got = cerfc(complex(z))
        assert abs(got - ref) / abs(ref) < 1e-12, f"z={z}"


def test_cerfc_reflection_identity_grid():
    re, im = np.meshgrid(np.linspace(-5, 5, 21), np.linspace(-5, 5, 21))
    z = (re + 1j * im).ravel()
    resid = np.abs(cerfc(z) + cerfc(-z) - 2.0)
    # both terms are O(e^{25}) near the imaginary axis: tolerance is relative
    scale = np.maximum(np.abs(cerfc(z)), 1.0)
    assert np.max(resid / scale) < 1e-12


@given(st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False))
def test_cerfc_conjugation_symmetry(z):
    a = cerfc(np.conj(z))
    b = np.conj(cerfc(z))
    assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_cerfc_underflow_is_zero_not_error():
    assert cerfc(200.0) == 0.0


def test_cerfc_overflow_is_flagged_not_silent():
    # erfc(40i) ~ e^{1600}: not representable; must come back infinite
    v = cerfc(40.0j)
    assert np.isinf(v.real) or np.isinf(v.imag)


def test_cerfc_rejects_non_finite():
    with pytest.raises(ValueError):
        cerfc(complex(math.nan, 0.0))


# scipy's erfcx is called directly by the propagators and the overlap
# closed forms; these pin the behaviour they rely on

def test_erfcx_matches_scaled_oracle():
    for z in (0.5, 4.0 + 1.0j, 30.0, 2.0 - 17.0j):
        ref = complex(mpmath.exp(mpmath.mpc(z) ** 2) * mpmath.erfc(mpmath.mpc(z)))
        assert abs(special.erfcx(complex(z)) - ref) / abs(ref) < 1e-12


def test_erfcx_left_half_plane_vs_oracle():
    # Re z < 0, where erfcx grows like 2e^{z²}; up to −26.5 + 0.3j it is
    # still representable (about 1.8e305)
    for z in (-0.5, -3.0 + 2.0j, -5.0 - 4.0j, -26.5 + 0.3j, -30.0 + 30.0j, -8.0 + 8.1j):
        ref = complex(mpmath.exp(mpmath.mpc(z) ** 2) * mpmath.erfc(mpmath.mpc(z)))
        assert abs(special.erfcx(complex(z)) - ref) / abs(ref) < 1e-12, z


def test_erfcx_overflow_is_real_infinity():
    # 2e^{729} is not representable: infinite, with no NaN in the zero
    # imaginary part
    v = special.erfcx(-27.0 + 0.0j)
    assert np.isinf(v.real) and v.real > 0 and v.imag == 0.0


# ---------------------------------------------------------------------------
# Airy function
# ---------------------------------------------------------------------------

def test_airy_at_zero_vs_closed_form():
    ref = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert airy_ai(0.0) == pytest.approx(ref, rel=1e-14)
    assert ref == pytest.approx(0.3550280539, abs=1e-10)


def test_airy_normalization_integral():
    # ∫Ai = 1: decaying side truncated at +16, oscillatory tail summed
    # by the two waves' rotated tails below its cutoff c
    (c,), (tail,), _ = _airy_fourier_sums(np.array([0.0]))
    body, _ = quad(lambda s: airy_ai(s), c, 16.0, limit=800)
    assert abs(body + tail.real - 1.0) < 1e-6


@pytest.mark.parametrize("c", [30.0, 45.3, 80.1])
def test_airy_wave_matches_mpmath(c):
    # W±(u) = e^{∓iπ/3}·Ai(u·e^{∓iπ/3}) on the rays of the Airy–Fourier
    # tails, u = |c| ± iρ, and W₊ + W₋ = Ai(−u) on the real axis.  The worst
    # measured error is 1.2e-13 relative, at |c| = 80.1 and ρ = 10, from the
    # rounding of phases near ζ ≈ 480; the bound is four times that
    for sign in (1.0, -1.0):
        u = c + sign * 1j * np.array([0.0, 0.5, 3.0, 10.0])
        rot = mpmath.expjpi(-sign / mpmath.mpf(3))
        want = np.array([complex(rot * mpmath.airyai(rot * mpmath.mpc(v))) for v in u])
        assert np.max(np.abs(_airy_wave(u, sign) - want) / np.abs(want)) <= 5e-13
    plus, minus = _airy_wave(np.array([c]), 1.0)[0], _airy_wave(np.array([c]), -1.0)[0]
    assert abs(plus + minus - float(mpmath.airyai(-c))) <= 5e-13 * abs(plus)


def test_airy_ode_residual():
    h = 1e-3
    s = 1.0
    second = (airy_ai(s + h) - 2.0 * airy_ai(s) + airy_ai(s - h)) / h**2
    assert abs(second - s * airy_ai(s)) < 1e-6


def test_airy_absolute_accuracy_vs_oracle():
    # mpmath, not scipy: scipy's Airy is the implementation inside |s| <= 10;
    # the identity checks evaluate Ai down to -80.1, the rest of the range
    # is margin
    s = np.linspace(-240.0, 20.0, 2601)
    ref = np.array([float(mpmath.airyai(v)) for v in s])
    assert np.max(np.abs(airy_ai(s) - ref)) < 1e-12


def test_airy_prime_vs_oracle():
    s = np.linspace(-240.0, 20.0, 2601)
    ref = np.array([float(mpmath.airyai(v, derivative=1)) for v in s])
    assert np.max(np.abs(airy_ai_prime(s) - ref)) < 1e-11


def test_airy_decaying_side_relative_vs_oracle():
    # beyond s = 10 the asymptotic expansion holds to a relative bound
    s = np.linspace(10.0, 100.0, 451)
    for f, d in ((airy_ai, 0), (airy_ai_prime, 1)):
        ref = np.array([float(mpmath.airyai(v, derivative=d)) for v in s])
        assert np.max(np.abs(f(s) / ref - 1.0)) < 5e-13


def test_airy_oscillation_sign_alternation():
    # Ai has exactly six zeros in [-10, 0]; bracketed by sign changes only
    s = np.linspace(-10.0, 0.0, 4001)
    signs = np.sign(airy_ai(s))
    flips = np.nonzero(np.diff(signs) != 0)[0]
    assert len(flips) == 6
    # alternation: consecutive sign-change brackets flip direction
    directions = np.diff(signs)[flips]
    assert np.all(directions[1:] * directions[:-1] < 0)


def test_airy_rejects_non_finite():
    with pytest.raises(ValueError):
        airy_ai(math.inf)


# ---------------------------------------------------------------------------
# confluent hypergeometric 1F1(1; b; z)
# ---------------------------------------------------------------------------

def test_hyp_empty_product():
    assert hyp1f1_one(7.0 / 6.0, 0.0) == pytest.approx(1.0, abs=0)


def test_hyp_exponential_identity():
    # 1F1(1;2;z) = (e^z - 1)/z, oracle by direct series at z = 1
    assert abs(hyp1f1_one(2.0, 1.0) - (math.e - 1.0)) < 1e-13


def test_hyp_z6_consistency_quadrature():
    lhs = math.exp(-1.0) * ((6.0 / 7.0) * hyp1f1_one(13.0 / 6.0, 1.0).real + 1.0)
    ref, _ = quad(lambda z: math.exp(-(z**6)), 0.0, 1.0, epsabs=1e-13)
    assert abs(lhs - ref) < 1e-12


@pytest.mark.parametrize("b", [7.0 / 6.0, 13.0 / 6.0])
@pytest.mark.parametrize("z", [1.0, 5.0j, -3.0 + 2.0j])
def test_hyp_contiguous_recurrence(b, z):
    lhs = hyp1f1_one(b, z)
    rhs = 1.0 + (z / b) * hyp1f1_one(b + 1.0, z)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_hyp_domain_error():
    with pytest.raises(ValueError):
        hyp1f1_one(0.0, 1.0)
    with pytest.raises(ValueError):
        hyp1f1_one(-1.5, 1.0)


def test_hyp_accuracy_grid_vs_oracle(rng):
    # each b's grid goes through the array form as well, which must give
    # every z the value of its scalar call
    zs = list(rng.uniform(-50, 50, 40) + 1j * rng.uniform(-50, 50, 40))
    zs += [50.0j, -50.0j, 14.9j, 15.1j, 41.7j, -35.0 + 0.0j, 50.0 + 0.0j]
    zs = [complex(z) for z in zs if abs(z) <= 50]
    # 7/6 + 100 and 11/6 + 200: large-b members, where v^{n−1} is 1/n wide at v = 1
    for b in (7.0 / 6.0, 3.0 / 2.0, 11.0 / 6.0, 13.0 / 6.0, 17.0 / 6.0, 37.0 / 6.0, 61.0,
              7.0 / 6.0 + 100.0, 11.0 / 6.0 + 200.0):
        grid = hyp1f1_one(b, np.array(zs))
        for z, got_grid in zip(zs, grid):
            ref = complex(mpmath.hyp1f1(1, b, z))
            got = hyp1f1_one(b, z)
            assert got_grid == got, (b, z)
            assert abs(got - ref) / max(abs(ref), 1e-300) < 1e-11, (b, z)
    # large negative real parts
    cases = (
        (7.0 / 6.0, -20.0), (7.0 / 6.0, -40.0), (13.0 / 6.0, -30.0 + 5.0j),
        (7.0 / 6.0, -13.046 - 47.48j), (13.0 / 6.0, -11.237 + 43.342j),
    )
    for b, z in cases:
        ref = complex(mpmath.hyp1f1(1, b, z))
        got = hyp1f1_one(b, np.array([z, 0.5j]))[0]
        assert got == hyp1f1_one(b, z)
        assert abs(got - ref) / abs(ref) < 1e-11, (b, z)


_HYP_Z = st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    b=st.sampled_from([7.0 / 6.0, 3.0 / 2.0, 13.0 / 6.0, 37.0 / 6.0]),
    z=st.lists(_HYP_Z, min_size=1, max_size=6),
    extra=st.lists(_HYP_Z, max_size=4),
    data=st.data(),
)
def test_hyp_array_is_its_scalar_calls(b, z, extra, data):
    # a z's value does not depend on the other z of the call: equal to its
    # scalar call, in any order and beside any other z
    got = hyp1f1_one(b, np.array(z))
    assert got.shape == (len(z),) and got.dtype == np.complex128
    assert got.tolist() == [hyp1f1_one(b, x) for x in z]
    order = data.draw(st.permutations(range(len(z) + len(extra))))
    mixed = hyp1f1_one(b, np.array(z + extra)[order])
    assert [mixed[order.index(i)] for i in range(len(z))] == got.tolist()


def test_hyp_array_keeps_its_shape():
    z = np.array([[1.0, 5.0j, -3.0 + 2.0j], [0.0, 30.0, -40.0j]])
    got = hyp1f1_one(13.0 / 6.0, z)
    assert got.shape == z.shape
    assert got.ravel().tolist() == [hyp1f1_one(13.0 / 6.0, x) for x in z.ravel().tolist()]
    assert hyp1f1_one(13.0 / 6.0, np.array([])).shape == (0,)


@pytest.mark.parametrize(
    "b, z",
    [(1.0, -20.0), (1.0, -30.0), (1.0, -40.0), (0.5, -30.0 + 5.0j), (0.9, -13.046 - 47.48j),
     (1.25, 2.0)],
)
def test_hyp_rejects_b_off_the_sixth_grid(b, z):
    # b - 1 must be a positive multiple of 1/6; other b are refused
    with pytest.raises(ValueError):
        hyp1f1_one(b, z)


@pytest.mark.parametrize("z", [1e5, -1e5])
def test_hyp_unconverged_series_raises(z):
    # at b ≈ |z| ≈ 1e5 the integral would need about 1.4e5 panels, beyond
    # its cap: no value comes back rather than gigabytes being allocated
    with pytest.raises(PrecisionLossError, match="panels"):
        hyp1f1_one(100001.0 + 1.0 / 6.0, z)
    # in an array, the z past the cap fails the call and is named, a
    # panel count beyond the integer range included
    for big in (z, 1e300):
        with pytest.raises(PrecisionLossError, match="panels at b=.*z=" + re.escape(f"({big:g}")):
            hyp1f1_one(7.0 / 6.0, np.array([1.0, big, 2.0]))


@pytest.mark.parametrize("b, z", [(7.0 / 6.0, 800.0), (13.0 / 6.0, 710.0)])
def test_hyp_overflow_raises(b, z):
    # e^z overflows the double range: an error, not NaN
    with pytest.raises(PrecisionLossError, match="not finite"):
        hyp1f1_one(b, z)
    with pytest.raises(PrecisionLossError, match="not finite at b=.*z=" + re.escape(f"({z:g}")):
        hyp1f1_one(b, np.array([1.0, z]))


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_hyp_family_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="non-finite"):
        hyp1f1_one_family(7.0 / 6.0, 3, z)
    with pytest.raises(ValueError, match="non-finite"):
        hyp1f1_one(7.0 / 6.0, z)


def test_hyp_family_rejects_empty_count():
    with pytest.raises(ValueError, match="count"):
        hyp1f1_one_family(7.0 / 6.0, 0, 1.0)


@pytest.mark.parametrize("count", [2.5, 3.0, True])
def test_hyp_family_rejects_non_integer_count(count):
    with pytest.raises(ValueError, match="integer count"):
        hyp1f1_one_family(7.0 / 6.0, count, 1.0)


def test_hyp_family_matches_scalar():
    # every member is bitwise the scalar call at its b
    for b0, z in ((7.0 / 6.0, 23.0j - 4.0), (3.0 / 2.0, 5.0), (13.0 / 6.0, -30.0 + 10.0j)):
        fam = hyp1f1_one_family(b0, 25, z)
        assert fam.shape == (25,) and fam.dtype == np.complex128
        assert fam.tolist() == [hyp1f1_one(b0 + m, z) for m in range(25)], (b0, z)
        for m in (0, 3, 11, 24):
            ref = complex(mpmath.hyp1f1(1, b0 + m, z))
            assert abs(fam[m] - ref) / abs(ref) < 1e-10, (b0, z, m)


# ---------------------------------------------------------------------------
# Moshinsky function
# ---------------------------------------------------------------------------

def test_moshinsky_field_free_identity():
    # M(0;i;T) + M(0;−i;T) = e^{iT/2} with B = 1
    for T in (0.25, 1.0, 9.0):
        got = moshinsky(0.0, 1.0j, T) + moshinsky(0.0, -1.0j, T)
        assert abs(got - np.exp(0.5j * T)) < 1e-14


def test_moshinsky_wavefront_suppression():
    # ahead of the front the amplitude vanishes: erfc along arg −π/4
    assert abs(moshinsky(1.0, 1.0, 1e-6)) < 1e-3


def test_moshinsky_plane_wave_limit():
    # |M − e^{i(kx − k²t/2)}| = |erfc(−ζ)|/2 → (2√π·√(t/2))^{-1}; the
    # asymptotic oracle gives 3.99e-3 at t = 1e4 and crosses 1e-3 at
    # t ≈ 1.6e5 (x = k = 1)
    for t, bound in ((1e4, 4.5e-3), (2e5, 1e-3)):
        plane = np.exp(1j * (1.0 - 0.5 * t))
        diff = abs(moshinsky(1.0, 1.0, t) - plane)
        oracle = 1.0 / (2.0 * math.sqrt(math.pi) * math.sqrt(t / 2.0))
        assert diff <= bound
        assert diff == pytest.approx(oracle, rel=0.05)


def test_moshinsky_generic_value_vs_oracle():
    x, k, t = 1.3, 0.7 - 0.4j, 2.1
    zeta = (x - k * t) / complex(mpmath.sqrt(2j * t))
    ref = complex(
        0.5 * mpmath.exp(1j * (k * x - 0.5 * k * k * t)) * mpmath.erfc(zeta)
    )
    assert abs(moshinsky(x, k, t) - ref) / abs(ref) < 1e-13


def test_moshinsky_modulus_bound(rng):
    for _ in range(200):
        x = rng.uniform(-10, 10)
        t = rng.uniform(0.05, 20.0)
        k = rng.choice([1j, -1j]) * rng.uniform(0.2, 2.0)
        w = k * x - 0.5 * k * k * t
        bound = math.exp(abs(np.imag(w)))
        zeta = (x - k * t) / (math.sqrt(2.0 * t) * np.exp(0.25j * math.pi))
        if zeta.real >= 0.0:
            # erfc factor ≤ 2 holds with margin in this sector
            assert abs(moshinsky(x, k, t)) <= bound * 1.005
        else:
            # reflected sector: |erfc| = |2 − erfc(−ζ)| may exceed 2
            assert abs(moshinsky(x, k, t)) <= bound * 1.25


def test_moshinsky_rejects_bad_time():
    with pytest.raises(ValueError):
        moshinsky(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        moshinsky(1.0, 1.0, -1.0)


def test_moshinsky_rejects_non_finite_argument():
    with pytest.raises(ValueError, match="non-finite argument"):
        moshinsky(np.nan, 1j, 1.0)


def test_moshinsky_small_time_limit():
    # as t → 0⁺, M(x; k; t) → e^{ikx} for x < 0 (the erfc tends to 2)
    assert abs(moshinsky(-2.0, 1.0j, 1e-10) - np.exp(-2.0j * 1.0j)) < 1e-4
