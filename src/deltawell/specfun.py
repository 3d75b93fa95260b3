"""Special functions used by the propagators, solvers and identity checks.

All functions are vectorized over numpy arrays.  scipy is used where it is
both faster and more accurate than an own implementation; the rest is
written here:

* ``cerfc`` / ``erfcx`` — complementary error function of complex argument
  and its scaled variant e^{z²}·erfc(z).  Computed through the Faddeeva
  function w(ζ) = e^{−ζ²}erfc(−iζ) with region switching: a Maclaurin
  series near the origin, a rational (Fourier/tangent) approximation in
  the mid range and the Laplace continued fraction far out.  scipy's
  Faddeeva routines are as accurate, but the reconstruction of ψ(x,t)
  amplifies erfc rounding to ~1e−9, so a swap would move the pinned
  benchmark reference; it waits until that reference is re-recorded.
* ``airy_ai`` / ``airy_ai_prime`` — Airy Ai and Ai′ on the real line:
  ``scipy.special.airy`` inside |s| ≤ 10 (0.08–0.6 µs a point, ~6e−16
  absolute error), own asymptotic expansions beyond, where scipy falls
  back to AMOS Bessel routines at 4–6 µs a point against ~0.5 µs here.
* ``hyp1f1_one_family`` / ``hyp1f1_one`` — confluent hypergeometric
  ₁F₁(1; b; z) for complex z: forward series with a cancellation
  monitor, a Kummer-transformed series for Re z < −1, and an exact
  finite-interval integral representation for large |z|.  Kept in-house:
  scipy's complex ``hyp1f1`` is off by 2.7e−10 at b = 11/6, z = 30i.
* ``moshinsky`` — M(x; k; t) = ½ e^{i(kx − k²t/2)} erfc{(x − kt)/√(2it)},
  evaluated through erfcx so the product of a huge exponential and a tiny
  erfc never overflows.
* ``gl_panels`` / ``gl_rule`` — the composite 12-point Gauss–Legendre rule
  on equal or on given panels, shared by the ₁F₁ integral, the Y(t)
  quadrature and the identity checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import PrecisionLossError

__all__ = [
    "cerfc",
    "erfcx",
    "airy_ai",
    "airy_ai_prime",
    "hyp1f1_one",
    "moshinsky",
    "moshinsky_t0",
    "gl_panels",
    "gl_rule",
]

_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI


def _asfarray_complex(z):
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.complexfloating):
        z = z.astype(np.complex128)
    return z


# ---------------------------------------------------------------------------
# Faddeeva function w(ζ) on the closed upper half plane
# ---------------------------------------------------------------------------

def _weideman_coeffs(n_terms: int):
    # Rational expansion of w on Im ζ ≥ 0 built from equispaced samples of
    # e^{−t²}(L²+t²) under the tangent map; see SIAM J. Numer. Anal. 31 (1994).
    m = 2 * n_terms
    L = math.sqrt(n_terms / math.sqrt(2.0))
    k = np.arange(-m + 1, m)
    t = L * np.tan(k * math.pi / (2 * m))
    f = np.exp(-(t**2)) * (L**2 + t**2)
    f = np.concatenate(([0.0], f))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[1 : n_terms + 1][::-1].copy()


_WEIDEMAN_N = 64
_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coeffs(_WEIDEMAN_N)


def _w_rational(zeta):
    L = _WEIDEMAN_L
    iz = 1j * zeta
    Z = (L + iz) / (L - iz)
    p = np.zeros_like(Z)
    for c in _WEIDEMAN_A:
        p = p * Z + c
    return 2.0 * p / (L - iz) ** 2 + _INV_SQRT_PI / (L - iz)


def _w_contfrac(zeta, depth: int = 13):
    # Laplace continued fraction; reliable for |ζ| ≳ 9 on Im ζ ≥ 0.
    r = np.zeros_like(zeta)
    for n in range(depth, 0, -1):
        r = (0.5 * n) / (zeta - r)
    return 1j * _INV_SQRT_PI / (zeta - r)


_W_SWITCH = 9.0  # validated against an mpmath oracle in the test suite


def _faddeeva_upper(zeta):
    """w(ζ) for Im ζ ≥ 0 (not checked), complex array in, complex array out."""
    out = np.empty_like(zeta)
    big = np.abs(zeta) >= _W_SWITCH
    if big.any():
        out[big] = _w_contfrac(zeta[big])
    if (~big).any():
        out[~big] = _w_rational(zeta[~big])
    return out


def _erf_series(z):
    # Maclaurin series of erf; used only for |z| ≤ 1 where it is benign.
    z2 = z * z
    term = z.copy()
    total = z.copy()
    for k in range(1, 24):
        term = term * (-z2) / k
        total = total + term / (2 * k + 1)
    return (2.0 * _INV_SQRT_PI) * total


def erfcx(z):
    """Scaled complementary error function e^{z²}·erfc(z), complex z.

    Safe against overflow for Re z ≥ 0; for Re z < 0 the true value grows
    like 2e^{z²} and is returned as computed (it may legitimately be inf).
    """
    z = _asfarray_complex(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("erfcx: non-finite argument")
    out = np.empty_like(z)

    right = z.real >= 0.0
    small = right & (np.abs(z) <= 1.0)
    if small.any():
        zs = z[small]
        out[small] = np.exp(zs * zs) * (1.0 - _erf_series(zs))
    mid = right & ~small
    if mid.any():
        out[mid] = _faddeeva_upper(1j * z[mid])
    left = ~right
    if left.any():
        zl = z[left]
        with np.errstate(over="ignore"):
            out[left] = 2.0 * np.exp(zl * zl) - erfcx(-zl)
    return out[0] if scalar else out


def cerfc(z):
    """Complementary error function erfc(z) for complex z.

    Evaluated as e^{−z²}·erfcx(z) with the exponential re-attached only
    when representable: results that underflow the double range come back
    as 0, results that overflow come back as complex infinities (never as
    a silently wrong finite number).
    """
    z = _asfarray_complex(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("cerfc: non-finite argument")
    out = np.empty_like(z)

    right = z.real >= 0.0
    if right.any():
        zr = z[right]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out[right] = np.exp(-zr * zr) * erfcx(zr)
    left = ~right
    if left.any():
        out[left] = 2.0 - cerfc(-z[left])
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# Airy Ai on the real line
# ---------------------------------------------------------------------------

_AIRY_ASYM_CUT = 10.0  # scipy inside, own asymptotic series outside (module docstring)


def _airy_u_coeffs(count: int):
    u = np.empty(count)
    u[0] = 1.0
    for k in range(count - 1):
        u[k + 1] = u[k] * (3 * k + 0.5) * (3 * k + 1.5) * (3 * k + 2.5) / (
            54.0 * (k + 1) * (k + 0.5)
        )
    return u


_AIRY_U = _airy_u_coeffs(40)
_AIRY_V = _AIRY_U * (6.0 * np.arange(40) + 1.0) / (1.0 - 6.0 * np.arange(40))
_AIRY_V[0] = 1.0


def _alt_tail(zeta, coeffs, step, offset):
    # Σⱼ (−1)ʲ coeffs[j] ζ^{−(step·j + offset)}, each lane truncated at its
    # smallest term (optimal truncation of the asymptotic series).
    total = np.zeros_like(zeta)
    power = zeta ** (-float(offset))
    fac = zeta ** (-float(step))
    prev = np.full_like(zeta, np.inf)
    alive = np.ones(zeta.shape, dtype=bool)
    sign = 1.0
    for c in coeffs:
        term = c * power
        mag = np.abs(term)
        alive &= mag < prev
        total += np.where(alive, sign * term, 0.0)
        prev = mag
        power = power * fac
        sign = -sign
        if not np.any(alive & (mag > 1e-18)):
            break
    return total


def _airy_asym_pos(s):
    zeta = (2.0 / 3.0) * s**1.5
    sum_u = _alt_tail(zeta, _AIRY_U, 1, 0)
    sum_v = _alt_tail(zeta, _AIRY_V, 1, 0)
    pre = np.exp(-zeta) / (2.0 * _SQRT_PI)
    return pre * sum_u / s**0.25, -pre * sum_v * s**0.25


def _airy_asym_neg(s):
    u = -s
    zeta = (2.0 / 3.0) * u**1.5
    pc = _alt_tail(zeta, _AIRY_U[0::2], 2, 0)
    ps = _alt_tail(zeta, _AIRY_U[1::2], 2, 1)
    qc = _alt_tail(zeta, _AIRY_V[0::2], 2, 0)
    qs = _alt_tail(zeta, _AIRY_V[1::2], 2, 1)
    phase = zeta - 0.25 * math.pi
    cosp = np.cos(phase)
    sinp = np.sin(phase)
    ai = (cosp * pc + sinp * ps) / (_SQRT_PI * u**0.25)
    aip = (u**0.25 / _SQRT_PI) * (sinp * qc - cosp * qs)
    return ai, aip


def _airy_both(s):
    s = np.asarray(s, dtype=np.float64)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if not np.all(np.isfinite(s)):
        raise ValueError("airy_ai: non-finite argument")
    ai = np.empty_like(s)
    aip = np.empty_like(s)

    inner = np.abs(s) <= _AIRY_ASYM_CUT
    pos = s > _AIRY_ASYM_CUT
    neg = s < -_AIRY_ASYM_CUT
    if inner.any():
        ai[inner], aip[inner], _, _ = special.airy(s[inner])
    if pos.any():
        ai[pos], aip[pos] = _airy_asym_pos(s[pos])
    if neg.any():
        ai[neg], aip[neg] = _airy_asym_neg(s[neg])
    if scalar:
        return ai[0], aip[0]
    return ai, aip


def airy_ai(s):
    """Airy function Ai(s) for real s, |error| ≲ 1e−13 absolute."""
    return _airy_both(s)[0]


def airy_ai_prime(s):
    """Derivative Ai′(s) for real s (companion to :func:`airy_ai`)."""
    return _airy_both(s)[1]


# ---------------------------------------------------------------------------
# Confluent hypergeometric ₁F₁(1; b; z)
# ---------------------------------------------------------------------------

_HYP_SERIES_CUT = 15.0
_HYP_CANCEL_BOUND = 1e10

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


def gl_rule(lo, hi):
    """Nodes and weights, shape (k, 12), of the 12-point Gauss–Legendre rule
    on each interval [lo[k], hi[k]]."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * _GL_X[None, :], half[:, None] * _GL_W[None, :]


def gl_panels(lo: float, hi: float, n_panels: int):
    """Nodes and weights of the composite 12-point Gauss–Legendre rule with
    ``n_panels`` equal panels on [lo, hi]."""
    edges = np.linspace(lo, hi, n_panels + 1)
    x, w = gl_rule(edges[:-1], edges[1:])
    return x.ravel(), w.ravel()


def _hyp1f1_kummer(b: float, z: complex):
    # ₁F₁(1;b;z) = e^z ₁F₁(b−1;b;−z); the transformed series has no
    # growing hump for Re z < 0.
    w = -np.clongdouble(z)
    term = np.clongdouble(1.0)
    total = np.clongdouble(1.0)
    for k in range(2000):
        term = term * w * np.longdouble(b - 1 + k) / (
            np.longdouble(b + k) * np.longdouble(k + 1)
        )
        total = total + term
        if abs(complex(term)) <= 1e-20 * max(abs(complex(total)), 1e-300):
            break
    return complex(np.exp(np.clongdouble(z)) * total)


def _hyp1f1_series_vec(bs: np.ndarray, z: complex, monitored) -> np.ndarray:
    # shared-k forward series in 80-bit accumulation for a batch of b
    # values (term ratio z/(b+k)); raises when a lane selected by the bool
    # mask ``monitored`` lost more than _HYP_CANCEL_BOUND to cancellation
    bs = bs.astype(np.longdouble)
    zl = np.clongdouble(z)
    term = np.ones(bs.shape, dtype=np.clongdouble)
    total = np.ones(bs.shape, dtype=np.clongdouble)
    peak = np.ones(bs.shape, dtype=np.longdouble)
    for k in range(2000):
        term = term * (zl / (bs + k))
        total = total + term
        mag = np.abs(term)
        np.maximum(peak, mag, out=peak)
        if np.all(mag <= 1e-20 * np.maximum(np.abs(total), 1e-300)):
            break
    lost = monitored & (peak > _HYP_CANCEL_BOUND * np.maximum(np.abs(total), 1e-300))
    if lost.any():
        raise PrecisionLossError(
            f"hyp1f1 series cancellation beyond condition bound at b={bs[lost][0]}, z={z}"
        )
    return total.astype(np.complex128)


def hyp1f1_one_family(b0: float, count: int, z: complex) -> np.ndarray:
    """[₁F₁(1; b0 + m; z) for m in 0..count−1], sharing work across the family.

    The whole family shares one vectorized forward series while it is well
    conditioned; members with b < |z| + 2 switch to the Kummer-transformed
    series for Re z < −1, and for large |z| to the exact integral
    representation, all sharing one set of quadrature nodes (b ≤ 1: one
    recurrence step, or the Kummer series when Re z < −1).
    """
    if not (b0 > 0.0):
        raise ValueError(f"hyp1f1_one_family requires b0 > 0, got {b0}")
    z = complex(z)
    bs = b0 + np.arange(count, dtype=np.float64)
    if abs(z) <= _HYP_SERIES_CUT:
        kummer = (bs < abs(z) + 2.0) & (z.real < -1.0)
        out = _hyp1f1_series_vec(bs, z, ~kummer)
        for m in np.nonzero(kummer)[0]:
            out[m] = _hyp1f1_kummer(bs[m], z)
        return out
    out = np.empty(count, dtype=np.complex128)
    series = bs >= abs(z) + 2.0
    if series.any():
        out[series] = _hyp1f1_series_vec(bs[series], z, True)
    hard = np.nonzero(~series)[0]
    if hard.size:
        # ₁F₁(1;b;z) = 6(b−1) ∫₀¹ v^{6(b−1)−1} e^{z(1−v⁶)} dv  (b > 1); the
        # exponent 6(b−1)−1 is a nonnegative integer for every b the solvers
        # request, so the integrand is entire and composite Gauss-Legendre
        # converges fast.
        n_panels = max(8, int(3.0 * abs(z) / math.pi) + 8)
        v, w = gl_panels(0.0, 1.0, n_panels)
        ew = w * np.exp(z * (1.0 - v**6))
        for m in hard:
            b = bs[m]
            if b <= 1.0 and z.real < -1.0:
                # the step below cancels to e^z here; Kummer has no hump
                out[m] = _hyp1f1_kummer(b, z)
            elif b <= 1.0:
                # one step of F(1;b;z) = 1 + (z/b) F(1;b+1;z)
                out[m] = 1.0 + (z / b) * hyp1f1_one(b + 1.0, z)
            else:
                out[m] = 6.0 * (b - 1.0) * np.sum(ew * v ** (6.0 * (b - 1.0) - 1.0))
    return out


def hyp1f1_one(b: float, z: complex) -> complex:
    """₁F₁(1; b; z) for b > 0 and complex z; relative error ≲ 1e−11 for |z| ≤ 50.

    The m = 0 member of :func:`hyp1f1_one_family`.
    """
    if not (b > 0.0) or not math.isfinite(b):
        raise ValueError(f"hyp1f1_one requires b > 0, got {b}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("hyp1f1_one: non-finite z")
    return complex(hyp1f1_one_family(b, 1, z)[0])


# ---------------------------------------------------------------------------
# Moshinsky function
# ---------------------------------------------------------------------------

def moshinsky(x, k, t):
    """Moshinsky function M(x; k; t) = ½ e^{i(kx − k²t/2)} erfc{(x − kt)/√(2it)}.

    Requires t > 0; √(2it) is on the principal branch, √(2t)·e^{iπ/4}.
    Combining the exponential prefactor with the scaled erfc gives the
    overflow-free form  M = ½ e^{ix²/(2t)} erfcx(ζ)  (Re ζ ≥ 0), with the
    reflection erfc(ζ) = 2 − erfc(−ζ) applied first when Re ζ < 0.
    """
    x = np.asarray(x, dtype=np.float64)
    k = _asfarray_complex(k)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("moshinsky requires t > 0 (see moshinsky_t0 for the limit)")
    scalar = x.ndim == 0 and k.ndim == 0 and t.ndim == 0
    x, k, t = (np.atleast_1d(a) for a in np.broadcast_arrays(x, k, t))

    zeta = (x - k * t) / (np.sqrt(2.0 * t) * np.exp(0.25j * math.pi))
    osc = 0.5 * np.exp(0.5j * x * x / t)
    out = np.empty(zeta.shape, dtype=np.complex128)

    right = zeta.real >= 0.0
    if right.any():
        out[right] = osc[right] * erfcx(zeta[right])
    left = ~right
    if left.any():
        kl, xl, tl = k[left], x[left], t[left]
        with np.errstate(over="ignore"):
            plane = np.exp(1j * (kl * xl - 0.5 * kl * kl * tl))
        out[left] = plane - osc[left] * erfcx(-zeta[left])
    return out[0] if scalar else out


def moshinsky_t0(x, k):
    """The t → 0⁺ limit of M(x; k; t): e^{ikx} for x < 0, ½ at x = 0, 0 for x > 0."""
    x = np.asarray(x, dtype=np.float64)
    k = _asfarray_complex(k)
    out = np.where(x < 0, np.exp(1j * k * x), np.where(x == 0, 0.5, 0.0))
    return out if out.ndim else complex(out)
