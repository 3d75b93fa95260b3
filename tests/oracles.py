"""Field-free closed forms that the tests check the library against, the
x-domain of the overlap oracles, a quadrature of the regularized
erf–Airy integral, the paper's ₁F₁ series for Y and an extremum counter
for ripple tests.

They share no code with ``deltawell``: φ₀ takes erfc from scipy, where
``volkov_phi`` builds on the Moshinsky function of ``deltawell.specfun``;
the erf–Airy oracle takes Ai and erf from scipy and integrates with
``quad``, where ``identities`` uses its own Airy, erfc and Gauss–Legendre
grid; the Y series sums mpmath's ``hyp1f1`` where ``approx`` integrates
by Gauss–Legendre panels.  None validates its inputs.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import airy, erf, erfc


def free_kernel(x, t, tau, params):
    """Field-free propagator K₀(x,t|0,τ) = √(m/(2πiℏs)) e^{imx²/(2ℏs)}, s = t − τ > 0."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(t, dtype=np.float64) - np.asarray(tau, dtype=np.float64)
    hbar, m = params.hbar, params.mass
    root = np.sqrt(m / (2.0 * math.pi * hbar * s)) * np.exp(-0.25j * math.pi)
    return root * np.exp(0.5j * m * x * x / (hbar * s))


def phi0_field_free(t, params):
    """Field-free homogeneous solution at the origin,
    φ₀(0,t) = √B e^{−iE_b t/ℏ} erfc(√(−iE_b t/ℏ)), t ≥ 0."""
    t = np.asarray(t, dtype=np.float64)
    hbar, B, E_b = params.hbar, params.B, params.E_b
    # −iE_b t/ℏ = i|E_b|t/ℏ, principal root is on the e^{iπ/4} ray
    arg = np.sqrt(np.abs(E_b) * t / hbar) * np.exp(0.25j * math.pi)
    return math.sqrt(B) * np.exp(-1j * E_b * t / hbar) * erfc(arg)


def overlap_domain_halfwidth(params, t):
    """Spatial truncation |x| ≤ x_c(t) + 40/B + 10√(ℏt/m) of an x-integral
    against ψ_b: the ψ_b factor bounds the tail by e^{−40} and the
    ballistic spread is covered."""
    x_c = params.field * t * t / (2.0 * params.mass)
    return x_c + 40.0 / params.B + 10.0 * math.sqrt(params.hbar * t / params.mass)


def erf_airy_regularized(chi, eps):
    """∫ dσ/√σ Ai(σ) erf(χ√σ) e^{−εσ²}, √σ = i√|σ| on σ < 0, by ``quad`` on
    unit cells of [−L, 20], and Σ|cell integral|, the scale of its rounding.

    On σ < 0 the integrand is bounded by e^{|χ|²|σ| − εσ²}, which is e^{−40}
    at σ = −L; Ai(20) ~ 1e−27 ends the positive side for |arg χ| ≤ π/4."""
    chi = complex(chi)
    g = abs(chi) ** 2
    L = (g + math.sqrt(g * g + 160.0 * eps)) / (2.0 * eps)

    def f(s):
        root = math.sqrt(s) if s >= 0.0 else 1j * math.sqrt(-s)
        z = chi * root
        ratio = erf(z) / root if z != 0 else 2.0 * chi / math.sqrt(math.pi)
        return airy(s)[0] * ratio * math.exp(-eps * s * s)

    edges = np.linspace(-L, 20.0, math.ceil(L + 20.0) + 1)
    with warnings.catch_warnings():
        # where the cells cancel, quad reports the rounding it cannot beat
        warnings.simplefilter("ignore", IntegrationWarning)
        cells = [
            quad(f, a, b, complex_func=True, epsabs=0.0, epsrel=1e-13, limit=100)[0]
            for a, b in zip(edges[:-1], edges[1:])
        ]
    value = complex(math.fsum(c.real for c in cells), math.fsum(c.imag for c in cells))
    return value, math.fsum(abs(c) for c in cells)


def airy_fourier_segment(eta, lo, hi):
    """∫_lo^hi Ai(σ)e^{iησ} dσ by ``quad`` on cells of at most unit width."""
    def f(s):
        return airy(s)[0] * complex(math.cos(eta * s), math.sin(eta * s))

    edges = np.linspace(lo, hi, math.ceil(hi - lo) + 1)
    with warnings.catch_warnings():
        # quad reports the rounding of scipy's Ai, about 2e-15 a cell
        warnings.simplefilter("ignore", IntegrationWarning)
        cells = [
            quad(f, a, b, complex_func=True, epsabs=0.0, epsrel=1e-13, limit=100)[0]
            for a, b in zip(edges[:-1], edges[1:])
        ]
    return complex(math.fsum(c.real for c in cells), math.fsum(c.imag for c in cells))


def y_paper_series(xi1, xi2):
    """Y = ∫₀¹ e^{−ξ₁z⁶−ξ₂z²}dz as the paper's series in 30-digit mpmath,

        Y = e^{−ξ₁} Σ_j (−ξ₂)^j/j! · ₁F₁(1; 7/6 + j/3; ξ₁)/(2j + 1),

    the Taylor series of e^{−ξ₂z²} integrated term by term against
    e^{−ξ₁z⁶}.  Summed until j > |ξ₂| and a term falls below 1e-30 of the
    sum.  The terms peak near |ξ₂|^{|ξ₂|}/|ξ₂|!, so 30 digits hold only for
    moderate |ξ₂|: at ξ₂ = 100 the sum is wrong."""
    with mpmath.workdps(30):
        x1, x2 = mpmath.mpc(xi1), mpmath.mpc(xi2)
        total, coef, j = mpmath.mpc(0), mpmath.mpf(1), 0
        while True:
            term = coef * mpmath.hyp1f1(1, mpmath.mpf(7) / 6 + mpmath.mpf(j) / 3, x1) / (2 * j + 1)
            total += term
            if j > abs(x2) and abs(term) <= mpmath.mpf(10) ** -30 * abs(total):
                return complex(mpmath.exp(-x1) * total)
            j += 1
            coef *= -x2 / j


def count_extrema(t: np.ndarray, y: np.ndarray, t_lo: float, t_hi: float) -> tuple:
    """(#local maxima, #local minima) of y on t ∈ [t_lo, t_hi], from sign
    changes of the discrete derivative; used for ripple detection."""
    m = (t >= t_lo) & (t <= t_hi)
    dy = np.sign(np.diff(y[m]))
    dy = dy[dy != 0]
    flips = np.diff(dy)
    return int(np.sum(flips < 0)), int(np.sum(flips > 0))
