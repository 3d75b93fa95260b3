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

Y is evaluated by composite Gauss–Legendre quadrature over all time nodes
at once; its ₁F₁ series (three families of terms, one per residue of the
ξ₂ power mod 3) is kept as the independent check.
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
    """Arguments (ξ₁, ξ₂) of Y(t) and the sixth-root variable χ, ξ₁ = χ⁶/3;
    scalars for one node or arrays for a time grid."""

    xi1: complex
    xi2: complex

    @property
    def chi(self) -> complex:
        return (3.0 * self.xi1) ** (1.0 / 6.0)

    @classmethod
    def from_time(cls, params: PhysParams, t, E: complex):
        hbar, f, E_b = params.hbar, params.f, params.E_b
        xi1 = f * f * E_b**3 * t**3 / (3j * hbar**3)
        xi2 = E * t / (1j * hbar)
        return cls(xi1=xi1, xi2=xi2)


_Y_TERM_TOL = 1e-14
_Y_CANCEL_BOUND = 1e10
_Y_STAGNATION = 10
_Y_MAX_PANELS = 10_000  # cap on the start count: phase slopes up to ~4.7e4 rad


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


def _y_quadrature(xi1: np.ndarray, xi2: np.ndarray) -> np.ndarray:
    # adaptive panel doubling per node; the start resolves the max local
    # phase slope 6|ξ₁| + 2|ξ₂| to ≲ 1.5 rad/panel (integrand is entire).
    # The attainable absolute accuracy is bounded below by roundoff on
    # the integrand peak e^{max(0,−Re ξ₁) + max(0,−Re ξ₂)}.  Nodes with the
    # same start count share each pass, in chunks of nodes × panels ≲ 4096.
    slope = (6.0 * np.abs(xi1) + 2.0 * np.abs(xi2)) / (1.5 * math.pi)
    log_peak = np.maximum(0.0, -xi1.real) + np.maximum(0.0, -xi2.real)
    # compared as floats: a huge or non-finite slope must not wrap in the cast
    if not (np.all(log_peak <= 700.0) and np.all(slope < _Y_MAX_PANELS - 3)):
        raise PrecisionLossError("Y integrand overflows or oscillates beyond the quadrature")
    start = slope.astype(np.int64) + 4
    floor = 1e-14 * np.exp(log_peak)
    out = np.empty(xi1.shape, dtype=np.complex128)
    for n0 in np.unique(start):
        group = np.nonzero(start == n0)[0]
        for idx in np.array_split(group, 1 + group.size * n0 // 4096):
            prev = np.full(idx.size, np.nan)  # the start pass is never accepted
            for n in n0 * 2 ** np.arange(6):
                z, w = gl_panels(0.0, 1.0, n)
                cur = np.exp(-xi1[idx, None] * z**6 - xi2[idx, None] * z**2) @ w
                done = np.abs(cur - prev) <= 1e-12 * np.maximum(1.0, np.abs(cur)) + floor[idx]
                out[idx[done]] = cur[done]
                idx, prev = idx[~done], cur[~done]
                if not idx.size:
                    break
            else:
                raise PrecisionLossError(
                    f"Y quadrature did not reach 1e-12 at xi1={xi1[idx[0]]}, xi2={xi2[idx[0]]}"
                )
    return out


def y_integral(args: YArgs, method: str = "quadrature"):
    """Y = ∫₀¹ e^{−ξ₁z⁶ − ξ₂z²} dz.

    ``quadrature`` (the default, used by the closed forms) takes scalar or
    array arguments and returns a complex or a complex array.  ``series``
    evaluates the paper's ₁F₁ series at one node, the independent check
    of the quadrature."""
    xi1, xi2 = np.broadcast_arrays(np.asarray(args.xi1, complex), np.asarray(args.xi2, complex))
    if not np.all(np.isfinite(xi1) & np.isfinite(xi2)):
        raise ValueError("y_integral: non-finite arguments")
    if method == "series":
        return _y_series(complex(xi1), complex(xi2))
    if method == "quadrature":
        Y = _y_quadrature(xi1.ravel(), xi2.ravel()).reshape(xi1.shape)
        return complex(Y) if Y.ndim == 0 else Y
    raise ValueError(f"unknown method {method!r}")


_DECAY_FORMS = ("ansatz_only", "additive", "multiplicative", "combined")


def _decay_pair(params: PhysParams, t: np.ndarray, ansatz: DecayAnsatz) -> tuple:
    """(additive, multiplicative) arrays over the times t ≥ 0, sharing one Y
    pass; at t = 0 the prefactor vanishes and both equal √B."""
    hbar, m, B = params.hbar, params.mass, params.B
    E = ansatz.E
    phi = volkov_phi(0.0, t, params)
    pref = np.sqrt(2.0 * hbar * B**3 * t / (math.pi * m)) * _EXP_IPI4
    Y = y_integral(YArgs.from_time(params, t, E))
    additive = phi + pref * np.exp(-1j * E * t / hbar) * Y
    # replacing √B e^{−iEτ} → ψ(0,τ) inside the integral term divides the
    # closed prefactor by √B (invisible in B = 1 units)
    den = 1.0 - pref * Y / math.sqrt(B)
    i = int(np.argmin(np.abs(den)))
    if abs(den[i]) < 1e-12:
        raise PrecisionLossError(f"multiplicative form singular at t={t[i]} (denominator {den[i]})")
    return additive, phi / den


def decay_closed_pair(params: PhysParams, t: float, ansatz: DecayAnsatz) -> tuple:
    """(additive, multiplicative) closed forms at one time t ≥ 0."""
    additive, multiplicative = _decay_pair(params, np.array([t], dtype=np.float64), ansatz)
    return complex(additive[0]), complex(multiplicative[0])


def decay_closed_psi0(params: PhysParams, t, ansatz: DecayAnsatz, form: str = "combined"):
    """Closed forms for ψ(0,t) built on the decay ansatz, for a scalar t
    (complex result) or a time array (complex array):

    * ``ansatz_only``:    √B e^{−iEt/ℏ}
    * ``additive``:       φ_f(0,t) + √(2iℏB³t/(πm)) e^{−iEt/ℏ} Y(t)
    * ``multiplicative``: φ_f(0,t)·(1 − √(2iℏB³t/(πm)) Y(t))^{−1}
    * ``combined``:       c·additive + (1−c)·multiplicative
    """
    if form not in _DECAY_FORMS:
        raise ValueError(f"unknown form {form!r}")
    t = np.asarray(t, dtype=np.float64)
    tt = np.atleast_1d(t)
    if np.any(tt < 0.0):
        raise ValueError("decay_closed_psi0 requires t >= 0")
    if form == "ansatz_only":
        vals = math.sqrt(params.B) * np.exp(-1j * ansatz.E * tt / params.hbar)
    else:
        additive, multiplicative = _decay_pair(params, tt, ansatz)
        # additive and multiplicative are the c = 1 and c = 0 ends of combined
        c = {"additive": 1.0, "multiplicative": 0.0}.get(form, ansatz.c)
        vals = c * additive + (1.0 - c) * multiplicative
    return complex(vals[0]) if t.ndim == 0 else vals
