"""Special functions used by the propagators, solvers and identity checks.

All functions are vectorized over numpy arrays, with one evaluation rule
each.  scipy is used where it is both faster and more accurate than an
own implementation; the rest is written here:

* ``cerfc`` — complementary error function of complex argument,
  ``scipy.special.erfc`` behind a finiteness check.
* ``airy_ai`` / ``airy_ai_prime`` — Airy Ai and Ai′ on the real line:
  ``scipy.special.airy`` inside |s| ≤ 10 (0.08–0.6 µs a point, ~6e−16
  absolute error), beyond it the first 26 terms of the asymptotic
  expansions (DLMF §9.7) by Horner's rule, 0.2–0.3 µs a point where scipy
  falls back to AMOS Bessel routines at 3–5 µs.
* ``hyp1f1_one_family`` / ``hyp1f1_one`` — confluent hypergeometric
  ₁F₁(1; b; z) for complex z and b − 1 a positive multiple of 1/6, the
  only b the Y series and the z⁶ closed form use, by the exact integral
  representation (DLMF §13.4) n∫₀¹ v^{n−1} e^{z(1−v⁶)} dv, n = 6(b − 1).
  Kept in-house: scipy's complex ``hyp1f1`` is off by 2.7e−10 at
  b = 11/6, z = 30i.
* ``moshinsky`` — M(x; k; t) = ½ e^{i(kx − k²t/2)} erfc{(x − kt)/√(2it)},
  evaluated through ``scipy.special.erfcx`` so the product of a huge
  exponential and a tiny erfc never overflows.
* ``gl_panels`` / ``gl_rule`` — the composite 12-point Gauss–Legendre rule
  on equal or on given panels, shared by the ₁F₁ integral, the Y(t)
  quadrature and the identity checks.

``moshinsky`` checks its arguments, then calls an unchecked core that
inner loops call directly.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import special

from .errors import PrecisionLossError

__all__ = [
    "cerfc",
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

def cerfc(z):
    """Complementary error function erfc(z) for complex z
    (``scipy.special.erfc``).

    Results that underflow the double range come back as 0, results that
    overflow as complex infinities (never as a silently wrong finite
    number).
    """
    z = _asfarray_complex(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("cerfc: non-finite argument")
    return special.erfc(z)


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

_HYP_MAX_PANELS = 32_768  # cap on the panels of the ₁F₁ integral
_HYP_BLOCK = 1 << 21  # entries of one block of the ₁F₁ matrix product (16 MB)

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


def hyp1f1_one_family(b0: float, count: int, z: complex) -> np.ndarray:
    """[₁F₁(1; b0 + m; z) for m in 0..count−1], b0 − 1 a positive multiple
    of 1/6, count ≥ 1 and z finite (ValueError otherwise).

    Every member takes the integral representation (DLMF §13.4)
    n∫₀¹ v^{n−1} e^{z(1−v⁶)} dv, n = 6(b − 1) a positive integer, whose
    integrand is entire: one set of 12-point Gauss–Legendre panels, fine
    enough for both the phase of e^{z(1−v⁶)} and the width 1/n of v^{n−1}
    at v = 1, serves all members in one matrix product.  Raises
    PrecisionLossError when more than 32 768 panels would be needed or the
    result is not finite.
    """
    n0 = 6.0 * (b0 - 1.0)
    if not (math.isfinite(n0) and n0 > 0.5 and abs(n0 - round(n0)) <= 1e-9):
        raise ValueError(f"hyp1f1 requires b - 1 to be a positive multiple of 1/6, got b={b0}")
    if count < 1:
        raise ValueError(f"hyp1f1_one_family requires count >= 1, got {count}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("hyp1f1: non-finite z")
    n = round(n0) + 6 * np.arange(count)
    panels = max(8, int((3.0 * abs(z) + n[-1] / 4.0) / math.pi) + 8)
    if panels > _HYP_MAX_PANELS:
        raise PrecisionLossError(f"hyp1f1 integral needs {panels} panels at b={b0 + count - 1}, z={z}")
    v, w = gl_panels(0.0, 1.0, panels)
    # members in blocks of at most _HYP_BLOCK powers v^{n−1}
    blocks = np.array_split(n, -(-count * v.size // _HYP_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        e = w * np.exp(z * (1.0 - v**6))
        out = np.concatenate([m * (v ** (m[:, None] - 1) @ e) for m in blocks])
    if not np.all(np.isfinite(out)):
        raise PrecisionLossError(f"hyp1f1 integral is not finite at b={b0}, z={z}")
    return out


def hyp1f1_one(b: float, z: complex) -> complex:
    """₁F₁(1; b; z) for b − 1 a positive multiple of 1/6 and complex z;
    relative error ≲ 5e−12 against mpmath for |z| ≤ 50 and b ≤ 1211/6,
    largest where |₁F₁| is small next to the integrand.

    The m = 0 member of :func:`hyp1f1_one_family`.
    """
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
