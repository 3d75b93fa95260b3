"""Weak-field closed forms for the amplitude at the well.

Two approximation schemes:

* the field-free-dressed ("first") scheme, which at the origin is
      ψ(0,t) ≈ φ_F(0,t) + √B e^{−iE_b t/ℏ} erf(√(−iE_b t/ℏ)),
  and away from it a series in σ-derivatives of the two-erfc kernel
  T_f(x,t,σ), with the k-th term damped by 1/(k!·3^k);

* the exponential-decay ansatz ψ(0,τ) = √B e^{−iEτ/ℏ} with complex
  quasi-energy E = E_b + Δ − iΓ/2, which closes under the time integral
  and yields the additive / multiplicative / c-mixed forms built on

      Y(t) = ∫₀¹ dz e^{−ξ₁z⁶ − ξ₂z²},
      ξ₁ = f²E_b³t³/(3iℏ³),  ξ₂ = Et/(iℏ).

Y is evaluated either by its ₁F₁ series (three families of terms, one per
residue of the ξ₂ power mod 3) or by direct adaptive quadrature; a
cancellation monitor routes degenerate cases from the series to the
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .errors import PrecisionLossError
from .params import PhysParams
from .propagator import volkov_phi
from .specfun import cerfc, erfcx, gl_panels, hyp1f1_one_family

__all__ = [
    "DecayAnsatz",
    "YArgs",
    "first_scheme_psi0",
    "first_scheme_psi_x",
    "wkb_constants",
    "y_integral",
    "decay_closed_pair",
    "decay_closed_psi0",
]

_EXP_IPI4 = np.exp(0.25j * math.pi)


# ---------------------------------------------------------------------------
# first scheme
# ---------------------------------------------------------------------------

def first_scheme_psi0(params: PhysParams, t):
    """φ_F(0,t) + √B e^{−iE_b t/ℏ} erf(√(−iE_b t/ℏ)): the integral term of
    the exact equation evaluated with field-free kernel and amplitude."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError("first_scheme_psi0 requires t >= 0")
    hbar, B, E_b = params.hbar, params.B, params.E_b
    arg = np.sqrt(np.abs(E_b) * t / hbar) * _EXP_IPI4
    erf_term = 1.0 - cerfc(arg)
    return volkov_phi(0.0, t, params) + math.sqrt(B) * np.exp(-1j * E_b * t / hbar) * erf_term


def _t_kernel(x: float, t: float, sigma, params: PhysParams):
    """T_f(x,t,σ): the two-erfc combination
    √(i|E_b|/ℏ)/β·{e^{−2αβ}erfc(α/√t − β√t) − e^{2αβ}erfc(α/√t + β√t)}
    with α = |x|√(m/(2iℏ)) and β = √(i|E_b|/ℏ)√(1 − xBf − σf^{2/3}),
    evaluated through erfcx so the e^{±2αβ} factors never overflow."""
    sigma = np.asarray(sigma, dtype=np.float64)
    hbar, m, B, f, E_b = params.hbar, params.mass, params.B, params.f, params.E_b
    root_e = math.sqrt(abs(E_b) / hbar) * _EXP_IPI4  # √(i|E_b|/ℏ)
    alpha = abs(x) * math.sqrt(m / (2.0 * hbar)) * np.exp(-0.25j * math.pi)
    under = 1.0 - x * B * f - sigma * f ** (2.0 / 3.0)
    beta = root_e * np.sqrt(under.astype(np.complex128))
    a_st = alpha / math.sqrt(t)
    b_st = beta * math.sqrt(t)
    # e^{∓2αβ}erfc(a ∓ b) = e^{−a²−b²} erfcx(a ∓ b) when Re(a ∓ b) ≥ 0
    q = np.exp(-(a_st * a_st) - b_st * b_st)
    w_minus = a_st - b_st
    w_plus = a_st + b_st
    term_minus = np.where(
        w_minus.real >= 0.0,
        q * erfcx(w_minus),
        2.0 * np.exp(-2.0 * alpha * beta) - q * erfcx(-w_minus),
    )
    term_plus = np.where(
        w_plus.real >= 0.0,
        q * erfcx(w_plus),
        2.0 * np.exp(2.0 * alpha * beta) - q * erfcx(-w_plus),
    )
    return root_e / beta * (term_minus - term_plus)


def _fd_weights(order: int, npts: int) -> np.ndarray:
    """Central finite-difference weights for d^order/dσ^order on the
    symmetric integer stencil of npts points (Fornberg recursion),
    in units of the step (divide by h^order)."""
    if npts % 2 == 0 or npts <= order:
        raise ValueError("stencil must be odd-sized and wider than the order")
    half = npts // 2
    grid = np.arange(-half, half + 1, dtype=np.float64)
    # Vandermonde solve: exact for polynomials up to degree npts−1
    V = np.vander(grid, npts, increasing=True).T
    rhs = np.zeros(npts)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(V, rhs)


def first_scheme_psi_x(params: PhysParams, x: float, t: float, K: int = 1) -> complex:
    """First-scheme wavefunction away from the origin: φ_f(x,t) plus the
    partial sum through k = K of (1/(k!3^k)) ∂σ^{3k} T_f|_{σ=0}.

    σ-derivatives are central finite differences (order-4 stencils,
    Richardson-extrapolated once); raises PrecisionLossError when the
    stencil straddles the branch point of β_f."""
    if t <= 0.0:
        raise ValueError("first_scheme_psi_x requires t > 0")
    if K < 0:
        raise ValueError("K must be >= 0")
    B, hbar, E_b, f = params.B, params.hbar, params.E_b, params.f
    pre = (math.sqrt(B) / 2.0) * np.exp(-1j * E_b * t / hbar)

    if f == 0.0:
        # σ drops out entirely; all derivative terms vanish
        return complex(volkov_phi(x, t, params) + pre * _t_kernel(x, t, 0.0, params))

    h_sigma = min(max(1e-2 * f ** (-2.0 / 3.0), 1e-4), 1e-1)
    # β_f has a branch point where 1 − xBf − σf^{2/3} = 0; refuse to
    # evaluate if σ = 0 or any stencil point sits on the wrong side
    half_max = (3 * K + 6) // 2
    reach = half_max * h_sigma * f ** (2.0 / 3.0)
    u0 = 1.0 - x * B * f
    if abs(u0) <= reach or abs(u0) < 1e-12:
        raise PrecisionLossError(
            f"sigma stencil straddles the branch point of beta_f at x={x}"
        )
    total = 0.0 + 0.0j
    for k in range(K + 1):
        d = 3 * k
        if d == 0:
            deriv = complex(_t_kernel(x, t, 0.0, params))
        else:
            npts = d + 5 if (d + 5) % 2 == 1 else d + 6  # accuracy order ≥ 4
            half = npts // 2
            w = _fd_weights(d, npts)
            offs = np.arange(-half, half + 1, dtype=np.float64)

            def stencil_deriv(hh):
                vals = _t_kernel(x, t, offs * hh, params)
                return complex(np.dot(w, vals)) / hh**d

            d1 = stencil_deriv(h_sigma)
            d2 = stencil_deriv(h_sigma / 2.0)
            deriv = (16.0 * d2 - d1) / 15.0  # one Richardson step on O(h⁴)
        total += deriv / (math.factorial(k) * 3.0**k)
    return complex(volkov_phi(x, t, params) + pre * total)


# ---------------------------------------------------------------------------
# exponential-decay ansatz machinery
# ---------------------------------------------------------------------------

def wkb_constants(params: PhysParams) -> tuple:
    """Semiclassical level shift and decay rate:
    Δ = −(5ℏ²B²/(8m))f², Γ = (ℏ²B²/m)e^{−2/(3f)} (Γ → 0 as f → 0⁺)."""
    hbar, m, B, f = params.hbar, params.mass, params.B, params.f
    delta = -(5.0 * hbar**2 * B**2 / (8.0 * m)) * f * f
    gamma = 0.0 if f == 0.0 else (hbar**2 * B**2 / m) * math.exp(-2.0 / (3.0 * f))
    return delta, gamma


@dataclass(frozen=True)
class DecayAnsatz:
    """Complex quasi-energy E = E_b + Δ − iΓ/2 plus the mixing weight c."""

    E_f: float
    gamma: float
    delta: float
    c: float = 1.0

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must lie in [0, 1], got {self.c}")

    @property
    def E(self) -> complex:
        return self.E_f - 0.5j * self.gamma

    @classmethod
    def explicit(cls, params: PhysParams, gamma: float, delta: float, c: float = 1.0):
        return cls(E_f=params.E_b + delta, gamma=gamma, delta=delta, c=c)

    @classmethod
    def from_wkb(cls, params: PhysParams, c: float = 1.0):
        delta, gamma = wkb_constants(params)
        return cls.explicit(params, gamma, delta, c)


@dataclass(frozen=True)
class YArgs:
    """Arguments (ξ₁, ξ₂) of Y(t) and the sixth-root variable χ, ξ₁ = χ⁶/3."""

    xi1: complex
    xi2: complex

    @property
    def chi(self) -> complex:
        return (3.0 * self.xi1) ** (1.0 / 6.0)

    @classmethod
    def from_time(cls, params: PhysParams, t: float, E: complex):
        hbar, f, E_b = params.hbar, params.f, params.E_b
        xi1 = f * f * E_b**3 * t**3 / (3j * hbar**3)
        xi2 = E * t / (1j * hbar)
        return cls(xi1=complex(xi1), xi2=complex(xi2))


_Y_TERM_TOL = 1e-14
_Y_CANCEL_BOUND = 1e10
_Y_STAGNATION = 10


def _y_family(k: int, b0: float, xi1: complex, xi2: complex) -> tuple:
    """A_k = Σ_n (−ξ₂)^{3n+k}/(3n+k)! · ₁F₁(1; n+b0; ξ₁)/(6n+2k+1)
    (without the overall e^{−ξ₁}); returns (sum, peak |partial sum|)."""
    n_max = int(abs(xi2)) + 16
    fam = hyp1f1_one_family(b0, n_max, xi1)
    coef = (-xi2) ** k / math.factorial(k) if k else 1.0
    total = 0.0 + 0.0j
    peak = 0.0
    stagnant = 0
    z3 = (-xi2) ** 3
    for n in range(n_max):
        term = coef * fam[n] / (6 * n + 2 * k + 1)
        total += term
        peak = max(peak, abs(total))
        j = 3 * n + k
        coef = coef * z3 / ((j + 1) * (j + 2) * (j + 3))
        if abs(term) < _Y_TERM_TOL * max(abs(total), 1e-300):
            stagnant += 1
            if stagnant >= _Y_STAGNATION:
                break
        else:
            stagnant = 0
    return total, peak


def _y_series(xi1: complex, xi2: complex) -> complex:
    a0, p0 = _y_family(0, 7.0 / 6.0, xi1, xi2)
    a1, p1 = _y_family(1, 3.0 / 2.0, xi1, xi2)
    a2, p2 = _y_family(2, 11.0 / 6.0, xi1, xi2)
    total = np.exp(-xi1) * (a0 + a1 + a2)
    peak = max(p0, p1, p2) * abs(np.exp(-xi1))
    if peak > _Y_CANCEL_BOUND * max(abs(total), 1e-300):
        raise PrecisionLossError(
            f"Y series cancellation beyond condition bound at xi1={xi1}, xi2={xi2}"
        )
    return complex(total)


def _y_gl_pass(xi1: complex, xi2: complex, n_panels: int) -> complex:
    z, w = gl_panels(0.0, 1.0, n_panels)
    return complex(np.sum(w * np.exp(-xi1 * z**6 - xi2 * z**2)))


def _y_quadrature(xi1: complex, xi2: complex) -> complex:
    # adaptive panel doubling; the start resolves the max local phase
    # slope 6|ξ₁| + 2|ξ₂| to ≲ 1.5 rad/panel (integrand is entire).
    # The attainable absolute accuracy is bounded below by roundoff on
    # the integrand peak e^{max(0,−Re ξ₁) + max(0,−Re ξ₂)}.
    n = max(4, int((6.0 * abs(xi1) + 2.0 * abs(xi2)) / (1.5 * math.pi)) + 4)
    floor = 1e-14 * math.exp(max(0.0, -xi1.real) + max(0.0, -xi2.real))
    prev = _y_gl_pass(xi1, xi2, n)
    for _ in range(5):
        n *= 2
        cur = _y_gl_pass(xi1, xi2, n)
        if abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)) + floor:
            return cur
        prev = cur
    raise PrecisionLossError(
        f"Y quadrature did not reach 1e-12 at xi1={xi1}, xi2={xi2}"
    )


def y_integral(args: YArgs, method: str = "auto") -> complex:
    """Y = ∫₀¹ e^{−ξ₁z⁶ − ξ₂z²} dz by the ₁F₁ series or by quadrature."""
    xi1, xi2 = complex(args.xi1), complex(args.xi2)
    if not (np.isfinite(xi1) and np.isfinite(xi2)):
        raise ValueError("y_integral: non-finite arguments")
    if method == "series":
        return _y_series(xi1, xi2)
    if method == "quadrature":
        return _y_quadrature(xi1, xi2)
    if method == "auto":
        if abs(xi1) <= 60.0 and abs(xi2) <= 25.0:
            try:
                return _y_series(xi1, xi2)
            except PrecisionLossError:
                return _y_quadrature(xi1, xi2)
        return _y_quadrature(xi1, xi2)
    raise ValueError(f"unknown method {method!r}")


_DECAY_FORMS = ("ansatz_only", "additive", "multiplicative", "combined")


def decay_closed_pair(params: PhysParams, t: float, ansatz: DecayAnsatz) -> tuple:
    """(additive, multiplicative) closed forms sharing one Y evaluation."""
    if t < 0.0:
        raise ValueError("decay_closed_pair requires t >= 0")
    sqB = math.sqrt(params.B)
    if t == 0.0:
        return complex(sqB), complex(sqB)
    hbar, m, B = params.hbar, params.mass, params.B
    E = ansatz.E
    phi = complex(volkov_phi(0.0, t, params))
    pref = math.sqrt(2.0 * hbar * B**3 * t / (math.pi * m)) * _EXP_IPI4
    Y = y_integral(YArgs.from_time(params, t, E))
    additive = phi + pref * np.exp(-1j * E * t / hbar) * Y
    # replacing √B e^{−iEτ} → ψ(0,τ) inside the integral term divides the
    # closed prefactor by √B (invisible in B = 1 units)
    den = 1.0 - pref * Y / sqB
    if abs(den) < 1e-12:
        raise PrecisionLossError(
            f"multiplicative form singular at t={t} (denominator {den})"
        )
    return complex(additive), complex(phi / den)


def decay_closed_psi0(
    params: PhysParams, t: float, ansatz: DecayAnsatz, form: str = "combined"
) -> complex:
    """Closed forms for ψ(0,t) built on the decay ansatz:

    * ``ansatz_only``:    √B e^{−iEt/ℏ}
    * ``additive``:       φ_f(0,t) + √(2iℏB³t/(πm)) e^{−iEt/ℏ} Y(t)
    * ``multiplicative``: φ_f(0,t)·(1 − √(2iℏB³t/(πm)) Y(t))^{−1}
    * ``combined``:       c·additive + (1−c)·multiplicative
    """
    if form not in _DECAY_FORMS:
        raise ValueError(f"unknown form {form!r}")
    if t < 0.0:
        raise ValueError("decay_closed_psi0 requires t >= 0")
    if form == "ansatz_only":
        return complex(math.sqrt(params.B) * np.exp(-1j * ansatz.E * t / params.hbar))
    additive, multiplicative = decay_closed_pair(params, t, ansatz)
    if form == "additive":
        return additive
    if form == "multiplicative":
        return multiplicative
    return complex(ansatz.c * additive + (1.0 - ansatz.c) * multiplicative)
