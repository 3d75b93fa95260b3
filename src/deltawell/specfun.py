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
  falls back to AMOS Bessel routines at 3–5 µs.  Below s = −10 that is
  the oscillatory wave ``_airy_wave`` which the Airy–Fourier tail of the
  identity checks also sums: Ai and Ai′ are its real and imaginary parts.
* ``hyp1f1_one`` / ``hyp1f1_one_family`` — confluent hypergeometric
  ₁F₁(1; b; z) for complex z and b − 1 a positive multiple of 1/6, the
  b of the paper's Y series and of the z⁶ closed form (which alone calls
  it, at b = 13/6, on a whole grid of z), by the exact integral
  representation (DLMF §13.4) n∫₀¹ v^{n−1} e^{z(1−v⁶)} dv, n = 6(b − 1),
  for one b and an array of z; the family is its values at b, b + 1, …
  for one z.  Kept in-house: scipy's complex ``hyp1f1`` is off by
  2.7e−10 at b = 11/6, z = 30i.
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
import numbers

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
_EXP_IPI4 = np.exp(0.25j * math.pi)


def _check_numbers(values, what: str, number=numbers.Real) -> None:
    """ValueError unless values (a scalar, a nested sequence or an array)
    hold only numbers of the kind ``number``, numbers.Real or
    numbers.Complex, and no boolean: numpy would take True as 1, parse a
    numeric string and drop an imaginary part with only a warning."""
    kind = "real" if number is numbers.Real else "complex"

    def refused(t):
        return issubclass(t, (bool, np.bool_)) or not issubclass(t, number)

    if isinstance(values, np.ndarray) and values.dtype != object:
        if refused(values.dtype.type):
            raise ValueError(f"{what} must be {kind} numbers, got an array of {values.dtype}")
    else:
        for v in np.asarray(values, dtype=object).flat:
            if refused(type(v)):
                raise ValueError(f"{what} must be {kind} numbers, got {v!r}")


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


def _airy_wave(u, sign, coeffs=_AIRY_U):
    # W±(u) = e^{∓iπ/3}·Ai(u·e^{∓iπ/3}) for sign = ±1, the two waves of
    # Ai(−u) = W₊(u) + W₋(u) (DLMF 9.2.11), for u near the positive real
    # axis with |u| ≥ 10: e^{±i(ζ−π/4)} Σ_k u_k (∓i/ζ)^k / (2√π u^{1/4}),
    # ζ = (2/3)u^{3/2} (DLMF 9.7.5), every step odd in the sign, so that
    # W₋(ū) is the conjugate of W₊(u).  For real u, Ai(−u) = 2·Re W₊(u),
    # and Ai′(−u) = 2√u·Im W₊(u) with the v_k of ``_AIRY_V`` for the u_k.
    # ζ's rounding is the phase's: a real u^{3/2} by pow, a complex one u·√u
    root = np.sqrt(u)
    zeta = (2.0 / 3.0) * (u**1.5 if np.isrealobj(u) else u * root)
    series = polyval(-sign * 1j / zeta, coeffs)
    return np.exp(sign * 1j * (zeta - 0.25 * math.pi)) * series / (2.0 * _SQRT_PI * np.sqrt(root))


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
        u = -s[neg]
        ai[neg] = 2.0 * _airy_wave(u, 1.0).real
        aip[neg] = 2.0 * np.sqrt(u) * _airy_wave(u, 1.0, _AIRY_V).imag
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
_HYP_BLOCK = 1 << 16  # terms of one block of the ₁F₁ sums (1 MB of complex)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


def gl_rule(lo, hi):
    """Nodes and weights, shape lo.shape + (12,), of the 12-point
    Gauss–Legendre rule on each interval [lo, hi] of the arrays lo, hi."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[..., None] + half[..., None] * _GL_X, half[..., None] * _GL_W


def gl_panels(lo: float, hi: float, n_panels: int):
    """Nodes and weights of the composite 12-point Gauss–Legendre rule with
    ``n_panels`` equal panels on [lo, hi]."""
    edges = np.linspace(lo, hi, n_panels + 1)
    x, w = gl_rule(edges[:-1], edges[1:])
    return x.ravel(), w.ravel()


def _hyp1f1_order(b: float) -> int:
    # n = 6(b − 1), which must be a positive integer
    n = 6.0 * (b - 1.0)
    if not (math.isfinite(n) and n > 0.5 and abs(n - round(n)) <= 1e-9):
        raise ValueError(f"hyp1f1 requires b - 1 to be a positive multiple of 1/6, got b={b}")
    return round(n)


def _hyp1f1_panels(b: float, n: int, z: np.ndarray) -> np.ndarray:
    # panels for each z, fine enough for both the phase of e^{z(1−v⁶)} and the
    # width 1/n of v^{n−1} at v = 1; compared with the cap before the cast,
    # so a huge |z| raises rather than wrapping around
    panels = np.maximum(8.0, np.floor((3.0 * np.abs(z) + n / 4.0) / math.pi) + 8.0)
    if panels.size and panels.max() > _HYP_MAX_PANELS:
        i = np.argmax(panels)
        raise PrecisionLossError(f"hyp1f1 integral needs {panels[i]:.6g} panels at b={b}, z={z[i]}")
    return panels.astype(int)


def _hyp1f1_sums(n: int, z: np.ndarray, panels: int) -> np.ndarray:
    # n∫₀¹ v^{n−1} e^{z(1−v⁶)} dv on `panels` equal panels for each z of the
    # 1-D array: each entry is its own sum over the nodes, so it does not
    # depend on the other z of the call
    v, w = gl_panels(0.0, 1.0, panels)
    with np.errstate(over="ignore", invalid="ignore"):
        e = w * np.exp(np.multiply.outer(z, 1.0 - v**6))
        return n * (e * v ** (n - 1)).sum(axis=-1)


def hyp1f1_one(b: float, z):
    """₁F₁(1; b; z) for b − 1 a positive multiple of 1/6 and finite complex
    z, a scalar (complex result) or an array (complex array); relative
    error ≲ 5e−12 against mpmath for |z| ≤ 50 and b ≤ 1211/6, largest where
    |₁F₁| is small next to the integrand.

    The integral of the module docstring on 12-point Gauss–Legendre panels:
    the z that share a panel count take one pass, in blocks of at most
    _HYP_BLOCK terms, and each value is the one the z gets alone.
    PrecisionLossError beyond 32 768 panels or for a non-finite result.
    """
    n = _hyp1f1_order(b)
    z = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(z)):
        raise ValueError("hyp1f1: non-finite z")
    flat = z.ravel()
    panels = _hyp1f1_panels(b, n, flat)
    out = np.empty(flat.shape, dtype=np.complex128)
    for p in np.unique(panels):
        group = np.flatnonzero(panels == p)
        for part in np.array_split(group, -(-group.size * 12 * p // _HYP_BLOCK)):
            out[part] = _hyp1f1_sums(n, flat[part], p)
    bad = ~np.isfinite(out)
    if bad.any():
        raise PrecisionLossError(f"hyp1f1 integral is not finite at b={b}, z={flat[np.argmax(bad)]}")
    out = out.reshape(z.shape)
    return complex(out) if z.ndim == 0 else out


def hyp1f1_one_family(b0: float, count: int, z: complex) -> np.ndarray:
    """[₁F₁(1; b0 + m; z) for m in 0..count−1], b0 − 1 a positive multiple
    of 1/6, count an integer ≥ 1 and z finite (ValueError otherwise): each
    member is :func:`hyp1f1_one` at b0 + m."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"hyp1f1_one_family requires an integer count >= 1, got {count!r}")
    z = complex(z)
    return np.array([hyp1f1_one(b0 + m, z) for m in range(count)])


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
        zeta = (x - k * t) / (np.sqrt(2.0 * t) * _EXP_IPI4)
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

