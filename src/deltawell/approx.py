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

The substitution u = √t·z gives Y(t) = t^{−1/2}G(√t) with

      G(s) = ∫₀^s du e^{−au⁶ − bu²},  a = f²E_b³/(3iℏ³),  b = E/(iℏ),

free of t, so the closed prefactor's √t cancels.  One composite
Gauss–Legendre pass over [0, √t_max], on panels at equal steps of
max(u, |b|u², |a|u⁶) (within a factor 3 of the phase bound), gives G at
the panel edges by a cumulative sum;
each node adds one 12-point rule on its partial panel.  The panels depend
on (a, b) alone, so a node's value does not depend on the rest of the
grid.  Y's ₁F₁ series (three families of terms, one per residue of the ξ₂
power mod 3) is kept as the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .errors import PrecisionLossError
from .params import PhysParams
from .propagator import volkov_phi
from .specfun import cerfc, gl_rule, hyp1f1_one_family, moshinsky

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
    with α = |x|√(m/(2iℏ)) and β = √(i|E_b|/ℏ)√(1 − xBf − σf^{2/3}).

    With k = β√(2im/ℏ), e^{∓2αβ}erfc(α/√t ∓ β√t) = 2e^{−β²t}M(|x|; ±k; ℏt/m),
    so the e^{±2αβ} factors never overflow."""
    sigma = np.asarray(sigma, dtype=np.float64)
    hbar, m, B, f, E_b = params.hbar, params.mass, params.B, params.f, params.E_b
    root_e = math.sqrt(abs(E_b) / hbar) * _EXP_IPI4  # √(i|E_b|/ℏ)
    under = 1.0 - x * B * f - sigma * f ** (2.0 / 3.0)
    beta = root_e * np.sqrt(under.astype(np.complex128))
    k = beta * math.sqrt(2.0 * m / hbar) * _EXP_IPI4
    T = hbar * t / m
    pair = moshinsky(abs(x), k, T) - moshinsky(abs(x), -k, T)
    return 2.0 * root_e / beta * np.exp(-beta * beta * t) * pair


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


# bound on the stencils' disagreement relative to |ψ|.  Every value returned
# under it was within it of mpmath's σ-derivatives on the tested grid (unit
# and non-unit parameters, f = 0.1…1, |x| ≤ 4, t = 0.5…20).  K = 1 stays
# under 3e-6 there except at non-unit t = 20, where the step is too coarse
# for the kernel's phase and the K = 1 value is 3e-4 off.
_SIGMA_FD_TOL = 5e-6


def first_scheme_psi_x(params: PhysParams, x: float, t: float, K: int = 1) -> complex:
    """First-scheme wavefunction away from the origin: φ_f(x,t) plus the
    partial sum through k = K of (1/(k!3^k)) ∂σ^{3k} T_f|_{σ=0}.

    σ-derivatives are central finite differences (order-4 stencils,
    Richardson-extrapolated once).  Raises PrecisionLossError when the
    stencil straddles the branch point of β_f, or when the stencils at h
    and h/2 disagree by more than _SIGMA_FD_TOL of the result: the h⁻³ᵏ
    amplification of the kernel's rounding, or a step too coarse for the
    kernel's phase, then leaves no reliable digits at that level."""
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
    spread = 0.0  # Σ_k |d1 − d2|/(k!3^k): the disagreement of the two stencils
    for k in range(K + 1):
        d = 3 * k
        c = math.factorial(k) * 3.0**k
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
            spread += abs(d1 - d2) / c
        total += deriv / c
    psi = complex(volkov_phi(x, t, params) + pre * total)
    if abs(pre) * spread > _SIGMA_FD_TOL * abs(psi):
        raise PrecisionLossError(
            f"sigma-derivative stencils disagree by {abs(pre) * spread / abs(psi):.1e} "
            f"of psi at x={x}, t={t}, K={K}"
        )
    return psi


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
_Y_PHASE_STEP = 1.5  # step of _g_phase per panel in the first pass of G
_Y_MAX_PANELS = 32_768  # cap on the panels of one pass of G
_Y_CHUNK = 4096  # intervals per rule evaluation in _g_panels


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


def _g_phase(aa: float, bb: float, u):
    # max(u, bb·u², aa·u⁶) with aa = |a|, bb = |b|: within a factor 3 of the
    # bound aa·u⁶ + bb·u² + u on the phase and the log-magnitude change of
    # the integrand of G over [0, u]
    return np.fmax(u, np.fmax(bb * u * u, aa * u**6))


def _g_edges(aa: float, bb: float, n: int, step: float) -> np.ndarray:
    # u_j solving _g_phase(u) = j·step, j = 0..n: the smallest root of the
    # three single-term equations, a function of j alone, whatever n is
    target = step * np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmin(target, np.fmin(np.sqrt(target / bb), (target / aa) ** (1.0 / 6.0)))


def _g_panels(a: complex, b: complex, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # ∫ e^{−au⁶ − bu²} du over each [lo, hi] by one 12-point rule, in place
    # and in chunks of _Y_CHUNK intervals, so the temporaries stay bounded
    # whatever the number of nodes
    out = np.empty(np.size(lo), dtype=np.complex128)
    for k in range(0, out.size, _Y_CHUNK):
        u, w = gl_rule(lo[k : k + _Y_CHUNK], hi[k : k + _Y_CHUNK])
        u *= u
        x = -a * u
        x *= u
        x -= b
        x *= u
        np.exp(x, out=x)
        x *= w
        x.sum(axis=1, out=out[k : k + _Y_CHUNK])
    return out


def _g_pass(a: complex, b: complex, s: np.ndarray, step: float) -> np.ndarray:
    # G at the nodes s: the panels between the edges of _g_edges summed up to
    # each node's panel by one cumulative sum, plus its partial panel
    aa, bb = abs(a), abs(b)
    n = max(1, math.ceil(_g_phase(aa, bb, s.max()) / step))
    edges = _g_edges(aa, bb, n, step)
    G_edges = np.r_[0.0, np.cumsum(_g_panels(a, b, edges[:-1], edges[1:]))]
    j = np.searchsorted(edges, s, side="right") - 1
    return G_edges[j] + _g_panels(a, b, edges[j], s)


def _g_integral(a: complex, b: complex, s: np.ndarray) -> np.ndarray:
    """G(s) = ∫₀^s e^{−au⁶ − bu²} du at the nodes s ≥ 0.

    Panel edges lie at equal steps of max(u, |b|u², |a|u⁶), 1.5 to start,
    so they depend on (a, b) and the step only: a node's value does not
    depend on the other nodes of the call.  Each pass is
    checked against one with half the step; a node is accepted once the two
    agree to 1e-12 relative, plus a floor for the roundoff on the integrand
    peak e^{max(0,−Re a)s⁶ + max(0,−Re b)s²}.
    """
    log_peak = max(0.0, -a.real) * s**6 + max(0.0, -b.real) * s * s
    phase = _g_phase(abs(a), abs(b), s.max())
    # compared so that a non-finite bound fails too
    if not (log_peak.max() <= 700.0 and phase <= 0.5 * _Y_PHASE_STEP * _Y_MAX_PANELS):
        raise PrecisionLossError("Y integrand overflows or oscillates beyond the quadrature")
    floor = 1e-14 * s * np.exp(log_peak)
    out = np.empty(s.shape, dtype=np.complex128)
    idx = np.arange(s.size)
    step = _Y_PHASE_STEP
    prev = _g_pass(a, b, s, step)
    while phase <= 0.5 * step * _Y_MAX_PANELS:
        step *= 0.5
        cur = _g_pass(a, b, s[idx], step)
        done = np.abs(cur - prev) <= 1e-12 * np.maximum(s[idx], np.abs(cur)) + floor[idx]
        out[idx[done]] = cur[done]
        idx, prev = idx[~done], cur[~done]
        if not idx.size:
            return out
    raise PrecisionLossError(f"Y quadrature did not reach 1e-12 at a={a}, b={b}, s={s[idx[0]]}")


def y_integral(args: YArgs, method: str = "quadrature"):
    """Y = ∫₀¹ e^{−ξ₁z⁶ − ξ₂z²} dz.

    ``quadrature`` (the default) takes scalar or array arguments and
    returns a complex or a complex array: each node is G(1) with
    (a, b) = (ξ₁, ξ₂), one node at a time.  The closed forms do not call
    it; they take Y(t) = t^{−1/2}G(√t) for a whole grid from one pass.
    ``series`` evaluates the paper's ₁F₁ series at one node, the
    independent check of the quadrature."""
    xi1, xi2 = np.broadcast_arrays(np.asarray(args.xi1, complex), np.asarray(args.xi2, complex))
    if not np.all(np.isfinite(xi1) & np.isfinite(xi2)):
        raise ValueError("y_integral: non-finite arguments")
    if method == "series":
        return _y_series(complex(xi1), complex(xi2))
    if method == "quadrature":
        one = np.ones(1)
        Y = np.fromiter(
            (_g_integral(x1, x2, one)[0] for x1, x2 in zip(xi1.flat, xi2.flat)),
            dtype=np.complex128, count=xi1.size,
        ).reshape(xi1.shape)
        return complex(Y) if Y.ndim == 0 else Y
    raise ValueError(f"unknown method {method!r}")


_DECAY_FORMS = ("ansatz_only", "additive", "multiplicative", "combined")


def _decay_pair(params: PhysParams, t: np.ndarray, ansatz: DecayAnsatz) -> tuple:
    """(additive, multiplicative) arrays over the times t ≥ 0, sharing one Y
    pass; at t = 0 the prefactor vanishes and both equal √B."""
    hbar, m, B = params.hbar, params.mass, params.B
    E = ansatz.E
    phi = volkov_phi(0.0, t, params)
    # u = √t·z turns √t·Y(t) into G(√t), whose a = ξ₁(1) and b = ξ₂(1) are
    # free of t; the √t of the prefactor cancels
    ab = YArgs.from_time(params, 1.0, E)
    prefY = math.sqrt(2.0 * hbar * B**3 / (math.pi * m)) * _EXP_IPI4 * _g_integral(
        complex(ab.xi1), complex(ab.xi2), np.sqrt(t)
    )
    additive = phi + np.exp(-1j * E * t / hbar) * prefY
    # replacing √B e^{−iEτ} → ψ(0,τ) inside the integral term divides the
    # closed prefactor by √B (invisible in B = 1 units)
    den = 1.0 - prefY / math.sqrt(B)
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
