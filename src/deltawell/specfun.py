"""Special functions used by the propagators, solvers and identity checks.

All functions are vectorized over numpy arrays.  scipy is used where it is
both faster and more accurate than an own implementation; the rest is
written here:

* ``cerfc`` / ``erfcx`` — complementary error function of complex argument
  and its scaled variant e^{z²}·erfc(z).  erfcx is ``scipy.special.erfcx``
  (the Faddeeva function w(iz)); cerfc is e^{−z²}·erfcx(z) on Re z ≥ 0 and
  the reflection 2 − erfc(−z) on Re z < 0.  ``scipy.special.erfc`` is not
  used directly: its rounding, amplified by the reconstruction of ψ(x,t),
  moves ψ(x,4) of the benchmark's seed-0 overlap job to 1.44× its pinned
  tolerance.
* ``airy_ai`` / ``airy_ai_prime`` — Airy Ai and Ai′ on the real line:
  ``scipy.special.airy`` inside |s| ≤ 10 (0.08–0.6 µs a point, ~6e−16
  absolute error), beyond it the first 26 terms of the asymptotic
  expansions (DLMF §9.7) by Horner's rule, 0.2–0.3 µs a point where scipy
  falls back to AMOS Bessel routines at 3–5 µs.
* ``hyp1f1_one_family`` / ``hyp1f1_one`` — confluent hypergeometric
  ₁F₁(1; b; z) for complex z and b − 1 a positive multiple of 1/6, the
  only b the Y series and the z⁶ closed form use.  Members with
  b ≥ |z| + 1 take the forward series, which raises on cancellation or
  when 2000 terms do not converge; all others the exact integral
  representation (DLMF §13.4)
  n∫₀¹ v^{n−1} e^{z(1−v⁶)} dv, n = 6(b − 1).  Kept in-house: scipy's
  complex ``hyp1f1`` is off by 2.7e−10 at b = 11/6, z = 30i.
* ``moshinsky`` — M(x; k; t) = ½ e^{i(kx − k²t/2)} erfc{(x − kt)/√(2it)},
  evaluated through erfcx so the product of a huge exponential and a tiny
  erfc never overflows.
* ``gl_panels`` / ``gl_rule`` — the composite 12-point Gauss–Legendre rule
  on equal or on given panels, shared by the ₁F₁ integral, the Y(t)
  quadrature and the identity checks.

``cerfc`` and ``moshinsky`` check their arguments, then call unchecked
cores that inner loops call directly; erfcx's core is scipy's ufunc.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import special

from .errors import PrecisionLossError

__all__ = [
    "cerfc",
    "erfcx",
    "airy_ai",
    "airy_ai_prime",
    "hyp1f1_one",
    "moshinsky",
    "gl_panels",
    "gl_rule",
]

_SQRT_PI = math.sqrt(math.pi)


def _asfarray_complex(z):
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.complexfloating):
        z = z.astype(np.complex128)
    return z


# ---------------------------------------------------------------------------
# complementary error function
# ---------------------------------------------------------------------------

def erfcx(z):
    """Scaled complementary error function e^{z²}·erfc(z), complex z
    (``scipy.special.erfcx``).

    Never overflows for Re z ≥ 0; for Re z < 0 the value grows like 2e^{z²}
    and comes back infinite where that is not representable.
    """
    z = _asfarray_complex(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("erfcx: non-finite argument")
    return special.erfcx(z)


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
    out = _cerfc(z)
    return out[0] if scalar else out


def _cerfc(z: np.ndarray) -> np.ndarray:
    # cerfc on a finite complex array, unchecked
    out = np.empty_like(z)
    right = z.real >= 0.0
    if right.any():
        zr = z[right]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out[right] = np.exp(-zr * zr) * special.erfcx(zr)
    left = ~right
    if left.any():
        out[left] = 2.0 - _cerfc(-z[left])
    return out


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


_AIRY_U = _airy_u_coeffs(26)
_AIRY_V = _AIRY_U * (6.0 * np.arange(26) + 1.0) / (1.0 - 6.0 * np.arange(26))
_AIRY_V[0] = 1.0


def _airy_asym_pos(s):
    # Σ_k (−1)^k u_k ζ^{−k} by Horner's rule: at |s| > 10 (ζ > 21.08) the
    # terms fall monotonically through k = 39, and the 26th is 2.3e−18
    zeta = (2.0 / 3.0) * s**1.5
    x = -1.0 / zeta
    pre = np.exp(-zeta) / (2.0 * _SQRT_PI)
    return pre * polyval(x, _AIRY_U) / s**0.25, -pre * polyval(x, _AIRY_V) * s**0.25


def _airy_asym_neg(s):
    u = -s
    zeta = (2.0 / 3.0) * u**1.5
    x = -1.0 / zeta**2
    pc = polyval(x, _AIRY_U[0::2])
    ps = polyval(x, _AIRY_U[1::2]) / zeta
    qc = polyval(x, _AIRY_V[0::2])
    qs = polyval(x, _AIRY_V[1::2]) / zeta
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

_HYP_CANCEL_BOUND = 1e10
_HYP_SERIES_TERMS = 2000

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


def _hyp1f1_series_vec(bs: np.ndarray, z: complex) -> np.ndarray:
    # shared-k forward series in 80-bit accumulation for a batch of b
    # values (term ratio z/(b+k)); raises when a lane lost more than
    # _HYP_CANCEL_BOUND to cancellation or the terms have not fallen below
    # 1e-20 of the sum after _HYP_SERIES_TERMS terms
    bs = bs.astype(np.longdouble)
    zl = np.clongdouble(z)
    term = np.ones(bs.shape, dtype=np.clongdouble)
    total = np.ones(bs.shape, dtype=np.clongdouble)
    peak = np.ones(bs.shape, dtype=np.longdouble)
    for k in range(_HYP_SERIES_TERMS):
        term = term * (zl / (bs + k))
        total = total + term
        mag = np.abs(term)
        np.maximum(peak, mag, out=peak)
        if np.all(mag <= 1e-20 * np.maximum(np.abs(total), 1e-300)):
            break
    else:
        raise PrecisionLossError(
            f"hyp1f1 series not converged after {_HYP_SERIES_TERMS} terms at z={z}"
        )
    lost = peak > _HYP_CANCEL_BOUND * np.maximum(np.abs(total), 1e-300)
    if lost.any():
        raise PrecisionLossError(
            f"hyp1f1 series cancellation beyond condition bound at b={bs[lost][0]}, z={z}"
        )
    return total.astype(np.complex128)


def hyp1f1_one_family(b0: float, count: int, z: complex) -> np.ndarray:
    """[₁F₁(1; b0 + m; z) for m in 0..count−1], b0 − 1 a positive multiple
    of 1/6 (ValueError otherwise).

    Members with b ≥ |z| + 1 share one forward series, whose terms fall
    from the first on; every other member takes the exact integral
    representation, all of them in one matrix product.
    """
    n0 = 6.0 * (b0 - 1.0)
    if not (math.isfinite(n0) and n0 > 0.5 and abs(n0 - round(n0)) <= 1e-9):
        raise ValueError(f"hyp1f1 requires b - 1 to be a positive multiple of 1/6, got b={b0}")
    z = complex(z)
    bs = b0 + np.arange(count, dtype=np.float64)
    out = np.empty(count, dtype=np.complex128)
    series = bs >= abs(z) + 1.0
    if series.any():
        out[series] = _hyp1f1_series_vec(bs[series], z)
    if not series.all():
        # ₁F₁(1;b;z) = n ∫₀¹ v^{n−1} e^{z(1−v⁶)} dv with n = 6(b−1) a positive
        # integer: the integrand is entire, and as n < 6|z| here the panels
        # resolve both v^{n−1} and the phase
        n = round(n0) + 6 * np.arange(count)[~series]
        v, w = gl_panels(0.0, 1.0, max(8, int(3.0 * abs(z) / math.pi) + 8))
        out[~series] = n * (v ** (n[:, None] - 1) @ (w * np.exp(z * (1.0 - v**6))))
    return out


def hyp1f1_one(b: float, z: complex) -> complex:
    """₁F₁(1; b; z) for b − 1 a positive multiple of 1/6 and complex z;
    relative error ≲ 1e−11 for |z| ≤ 50.

    The m = 0 member of :func:`hyp1f1_one_family`.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("hyp1f1_one: non-finite z")
    return complex(hyp1f1_one_family(b, 1, z)[0])


# ---------------------------------------------------------------------------
# Moshinsky function
# ---------------------------------------------------------------------------

def moshinsky(x, k, t):
    """Moshinsky function M(x; k; t) = ½ e^{i(kx − k²t/2)} erfc{(x − kt)/√(2it)}.

    Requires finite x and k and finite t > 0; √(2it) is on the principal
    branch, √(2t)·e^{iπ/4}.  Combining the exponential prefactor with the
    scaled erfc gives the overflow-free form  M = ½ e^{ix²/(2t)} erfcx(ζ)
    (Re ζ ≥ 0), with the reflection erfc(ζ) = 2 − erfc(−ζ) applied first
    when Re ζ < 0.
    """
    x = np.asarray(x, dtype=np.float64)
    k = _asfarray_complex(k)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("moshinsky requires t > 0")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(k)) and np.all(np.isfinite(t))):
        raise ValueError("moshinsky: non-finite argument")
    scalar = x.ndim == 0 and k.ndim == 0 and t.ndim == 0
    x, k, t = (np.atleast_1d(a) for a in np.broadcast_arrays(x, k, t))
    out = _moshinsky(x, k, t)
    return out[0] if scalar else out


def _moshinsky(x: np.ndarray, k, t) -> np.ndarray:
    # moshinsky on a float array x, with a complex k and a float t each of
    # x's shape or a scalar, unchecked.  On grids far beyond the double
    # range x²/t and the plane wave overflow; the non-finite result is the
    # caller's to report, without warnings
    with np.errstate(all="ignore"):
        zeta = (x - k * t) / (np.sqrt(2.0 * t) * np.exp(0.25j * math.pi))
        osc = 0.5 * np.exp(0.5j * x * x / t)
        out = np.empty(zeta.shape, dtype=np.complex128)

        right = zeta.real >= 0.0
        if right.any():
            out[right] = osc[right] * special.erfcx(zeta[right])
        left = ~right
        if left.any():
            kl, tl = (a[left] if np.ndim(a) else a for a in (k, t))
            xl = x[left]
            plane = np.exp(1j * (kl * xl - 0.5 * kl * kl * tl))
            out[left] = plane - osc[left] * special.erfcx(-zeta[left])
    return out
