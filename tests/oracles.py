"""Field-free closed forms that the tests check the library against, the
x-domain of the overlap oracles, the two sides of the erf–Airy identity,
the paper's ₁F₁ series for Y, the Stark pole of the well in the field,
the Laplace transform of ψ(0,t) from the Stark Green's function, an
extremum counter for ripple tests and the dataset rows by ``repr``.

They share no code with ``deltawell``: φ₀ takes erfc from scipy, where
``volkov_phi`` builds on the Moshinsky function of ``deltawell.specfun``;
the erf–Airy left side takes Ai and erf from scipy and integrates with
``quad``, where ``identities`` uses its own Airy table and Gauss–Legendre
grid; its right side sums the moment series in mpmath, where
``identities`` takes the library's ₁F₁; the Y series sums mpmath's
``hyp1f1`` where ``approx`` integrates by Gauss–Legendre panels; the Stark
pole and the Green's function take scipy's complex ``airy``, where the
library has no resonance function at all and marches in time; the rows
take each float's text from ``repr``, where ``scenario`` computes its
digits and layout in numpy.  None validates its inputs.
"""

import cmath
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


def erf_airy_rotated(chi):
    """The erf–Airy identity's left side continued in χ, by ``quad`` on unit
    cells of [0, 30]:

        (2χ/√π) ∫₀^∞ Ai(r) Σ_ζ F(ζχ²r) dr,  F(w) = (√π/2)·erf(√−w)/√−w,

    with ζ the cube roots of −1 (DLMF 9.2.11 rotates σ < 0 onto r > 0).  At
    |χ| ≤ 1 the integrand beyond 30 is below Ai(30)e^{30} ~ 1e-36."""
    chi = complex(chi)
    zetas = [-1.0, complex(0.5, math.sqrt(0.75)), complex(0.5, -math.sqrt(0.75))]

    def f(r):
        total = 0j
        for zeta in zetas:
            root = cmath.sqrt(-zeta * chi * chi * r)
            total += erf(root) / root if abs(root) > 1e-8 else 2.0 / math.sqrt(math.pi)
        return airy(r)[0] * total

    edges = np.arange(31.0)
    with warnings.catch_warnings():
        # quad reports the rounding of scipy's Ai and erf on a few cells
        warnings.simplefilter("ignore", IntegrationWarning)
        cells = [
            quad(f, a, b, complex_func=True, epsabs=0.0, epsrel=1e-13, limit=100)[0]
            for a, b in zip(edges[:-1], edges[1:])
        ]
    return chi * complex(math.fsum(c.real for c in cells), math.fsum(c.imag for c in cells))


def erf_airy_series(chi):
    """The erf–Airy identity's right side as its series in 30-digit mpmath,

        (2χ/√π)·e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1} = (2χ/√π)·Σ_k (−ξ₁)^k/(k!(6k + 1)),

    ξ₁ = χ⁶/3: the left side integrated term by term against the Airy
    moments of DLMF 9.10.17.  Summed until a term falls below 1e-32 of the
    sum, with no ₁F₁."""
    with mpmath.workdps(30):
        c = mpmath.mpc(chi)
        x = c**6 / 3
        total, coef, k = mpmath.mpc(0), mpmath.mpf(1), 0
        while True:
            term = coef / (6 * k + 1)
            total += term
            if abs(term) <= mpmath.mpf(10) ** -32 * abs(total):
                return complex(2 * c / mpmath.sqrt(mpmath.pi) * total)
            k += 1
            coef *= -x / k


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


def stark_pole(params, f_step=0.05):
    """(Γ, Δ) of the Stark resonance E = E_b + Δ − iℏΓ/2 of the well in the
    field F > 0: the zero of

        D(E) = 1 − (2mV₀/ℏ²)(π/α)·Ai(z)[Bi(z) + iAi(z)],
        α = (2mF/ℏ²)^{1/3},  z = −2mE/(ℏ²α²)

    (Geltman, J. Phys. B 11 (1978) 3323), by Newton's method with scipy's
    complex ``airy``.  The field is raised from 0 in steps of at most
    f_step in the relative strength f = mF/(ℏ²B³), each zero seeding the
    next, from E_b: seeded far from it, Newton can land on another zero."""
    hbar, m, v0, F = params.hbar, params.mass, params.v0, params.field
    B = m * v0 / hbar**2
    E_b = -(hbar**2) * B**2 / (2.0 * m)
    steps = max(1, math.ceil(m * F / (hbar**2 * B**3) / f_step - 1e-12))
    E = complex(E_b)
    for k in range(1, steps + 1):
        alpha = (2.0 * m * F * k / steps / hbar**2) ** (1.0 / 3.0)
        c = 2.0 * m * v0 / hbar**2 * math.pi / alpha
        dz = -2.0 * m / (hbar**2 * alpha**2)  # dz/dE
        for _ in range(60):
            ai, aip, bi, bip = airy(dz * E)
            D = 1.0 - c * ai * (bi + 1j * ai)
            step = D / (-c * dz * (aip * (bi + 1j * ai) + ai * (bip + 1j * aip)))
            E -= step
            if abs(step) <= 1e-14 * abs(E):
                break
        else:
            raise ArithmeticError(f"Newton did not converge at F = {F * k / steps}")
    return float(-2.0 * E.imag / hbar), float(E.real - E_b)


def stark_green(params, x, y, E):
    """Green's function G(x,y;E) = (E − H_F)⁻¹ of H_F = p²/2m − Fx, F > 0,
    for E in the upper half plane (DLMF §9.2):

        G = −(2m/ℏ²)(π/α)·Ai(ζ(min(x,y)))·[Bi + iAi](ζ(max(x,y))),
        ζ(x) = −α(x + E/F),  α = (2mF/ℏ²)^{1/3},

    Ai decaying as x → −∞ and Bi + iAi outgoing as x → +∞; the jump of
    (ℏ²/2m)∂ₓG at x = y is 1 by the Wronskian W{Ai, Bi} = 1/π."""
    hbar, m, F = params.hbar, params.mass, params.field
    alpha = (2.0 * m * F / hbar**2) ** (1.0 / 3.0)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    ai_lo = airy(-alpha * (lo + E / F))[0]
    ai_hi, _, bi_hi, _ = airy(-alpha * (hi + E / F))
    return -(2.0 * m / hbar**2) * (math.pi / alpha) * ai_lo * (bi_hi + 1j * ai_hi)


def laplace_psi0(params, p, cells=110, nodes=24):
    """ψ̂(0,p) = ∫₀^∞ e^{−pt}ψ(0,t)dt for Re p > 0, from the Laplace
    transform of the Schrödinger equation at E = iℏp:

        ψ̂(0,p) = φ̂(0,p)/D(p),  D(p) = 1 + V₀G(0,0;E),
        φ̂(0,p) = iℏ∫G(0,y;E)ψ_b(y)dy,

    the y-integral by ``nodes``-point Gauss–Legendre on ``cells`` equal
    cells of [−40/B, 48/B], which has a cell edge at y = 0, the kink of ψ_b
    and of G.  Four times the cells move it by at most 7e-13 at
    Re p ≥ 0.5, |p| ≤ 2.3 in units ℏB²/m."""
    hbar, B = params.hbar, params.B
    E = 1j * hbar * p
    edges = np.linspace(-40.0, 48.0, cells + 1) / B
    u, wu = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)[:, None]
    y = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * u
    psi_b = math.sqrt(B) * np.exp(-B * np.abs(y))
    phi = 1j * hbar * np.sum(half * wu * stark_green(params, 0.0, y, E) * psi_b)
    return phi / (1.0 + params.v0 * stark_green(params, 0.0, 0.0, E))


def count_extrema(t: np.ndarray, y: np.ndarray, t_lo: float, t_hi: float) -> tuple:
    """(#local maxima, #local minima) of y on t ∈ [t_lo, t_hi], from sign
    changes of the discrete derivative; used for ripple detection."""
    m = (t >= t_lo) & (t <= t_hi)
    dy = np.sign(np.diff(y[m]))
    dy = dy[dy != 0]
    flips = np.diff(dy)
    return int(np.sum(flips < 0)), int(np.sum(flips > 0))


def csv_rows_repr(cols: list, lo: int, hi: int) -> str:
    """Rows lo … hi − 1 of the flat dataset columns, as ``scenario._csv_rows``
    writes them, by ``repr`` of each float: the float columns, then the
    bytes array of every row's method."""
    *floats, names = cols
    cells = [map(repr, c[lo:hi].tolist()) for c in floats]
    return "\n".join(map(",".join, zip(*cells, (n.decode() for n in names[lo:hi].tolist()))))
