"""Exact evolution: the scalar-gauge integral equation solved by product
integration.

At the origin the equation closes on itself,

    ψ(0,t) = φ_F(0,t) + λ ∫₀ᵗ ds s^{−1/2} g(s) ψ(0,t−s),
    λ = (i/ℏ)V₀ √(m/(2πiℏ)),     g(s) = e^{−iF²s³/(24mℏ)},

a weakly singular Volterra equation of the second kind.  The Abel weight
s^{−1/2} is integrated exactly against a piecewise polynomial interpolant
of the smooth factor g·ψ (linear by default, quadratic as an upgrade); on
a uniform grid the resulting weights depend only on the node distance, so
each step is one causal dot product and the march is O(N²) total.

Away from the origin the kernel picks up the factor e^{imx²/(2ℏs)} whose
phase diverges at the s → 0 endpoint.  Reconstruction therefore splits
panels into "smooth" (phase change below a threshold: factor absorbed
into the interpolant) and "oscillatory" (the weight s^{−1/2}e^{iA/s} is
integrated exactly through Fresnel/erfc closed forms), with the terminal
panel always treated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError
from .params import PhysParams
from .propagator import bound_state, volkov_phi
from .specfun import cerfc

__all__ = [
    "TimeGrid",
    "ComplexSeries",
    "VolterraSolution",
    "solve_psi0",
    "reconstruct_psi_x",
    "bound_overlap",
    "overlap_domain_halfwidth",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t₀ < … < t_N = t_max with step h = t_max/n_steps."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def h(self) -> float:
        return self.t_max / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    def index_of(self, t: float) -> int:
        """Grid index of a node time; raises if t is not (close to) a node."""
        i = int(round(t / self.h))
        if i < 0 or i > self.n_steps or abs(t - i * self.h) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a node of {self}")
        return i


@dataclass
class ComplexSeries:
    """A complex amplitude sampled on a TimeGrid: the shared currency of
    every ψ(0,t) producer (exact solver and all closed-form schemes)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n_steps + 1,):
            raise ValueError("values must have one sample per grid node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite sample in ComplexSeries")


@dataclass
class VolterraSolution:
    """ψ_F(0,t) on a grid plus solver metadata."""

    grid: TimeGrid
    psi0: np.ndarray
    rule: str
    err_est: float
    params: PhysParams
    flags: tuple = field(default_factory=tuple)

    @property
    def series(self) -> ComplexSeries:
        return ComplexSeries(self.grid, self.psi0)


# ---------------------------------------------------------------------------
# product-integration weights for the Abel kernel on a uniform grid
# ---------------------------------------------------------------------------

def _panel_moments(n_panels: int):
    # ν_m(k) = ∫_{k}^{k+1} ρ^{−1/2} (ρ−k)^m dρ  for m = 0, 1, 2 (unit step)
    k = np.arange(n_panels + 2, dtype=np.float64)
    r = np.sqrt(k)
    p0 = 2.0 * (r[1:] - r[:-1])
    p1 = (2.0 / 3.0) * (k[1:] ** 1.5 - k[:-1] ** 1.5)
    p2 = (0.4) * (k[1:] ** 2.5 - k[:-1] ** 2.5)
    kk = k[:-1]
    nu0 = p0
    nu1 = p1 - kk * p0
    nu2 = p2 - 2.0 * kk * p1 + kk * kk * p0
    return nu0, nu1, nu2


def abel_weights(n: int, h: float, rule: str = "linear") -> np.ndarray:
    """Weights ω so that Σ ω[j]·G(jh) ≈ ∫₀^{nh} s^{−1/2} G(s) ds.

    ``linear`` integrates the Abel weight exactly against a piecewise
    linear interpolant of G; ``quadratic`` against overlapping three-point
    parabolas (exact for polynomials of degree ≤ 2).
    """
    if n < 1:
        raise ValueError("need at least one panel")
    nu0, nu1, nu2 = _panel_moments(n)
    w = np.zeros(n + 1)
    if rule == "linear" or n == 1:
        wL = nu0 - nu1
        wR = nu1
        w[:-1] += wL[:n]
        w[1:] += wR[:n]
    elif rule == "quadratic":
        # panel k ≥ 1 uses nodes (k−1, k, k+1); panel 0 uses nodes (0, 1, 2)
        wl = 0.5 * (nu2 - nu1)
        wm = nu0 - nu2
        wr = 0.5 * (nu2 + nu1)
        w[0:n - 1] += wl[1:n]
        w[1:n] += wm[1:n]
        w[2:n + 1] += wr[1:n]
        w[0] += 0.5 * (nu2[0] - 3.0 * nu1[0] + 2.0 * nu0[0])
        w[1] += 2.0 * nu1[0] - nu2[0]
        w[2] += 0.5 * (nu2[0] - nu1[0])
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return w * math.sqrt(h)


def _coupling(params: PhysParams) -> complex:
    # λ = (i/ℏ)V₀√(m/(2πiℏ)); principal root of 1/i is e^{−iπ/4}
    hbar, m, v0 = params.hbar, params.mass, params.v0
    return (
        1j
        * v0
        / hbar
        * math.sqrt(m / (2.0 * math.pi * hbar))
        * np.exp(-0.25j * math.pi)
    )


def _cubic_phase_step(params: PhysParams, grid: TimeGrid) -> float:
    # largest per-panel advance of the kernel phase F²s³/(24mℏ)
    F, m, hbar = params.field, params.mass, params.hbar
    t, h = grid.t_max, grid.h
    return F * F * (t**3 - (t - h) ** 3) / (24.0 * m * hbar)


def _march(params: PhysParams, grid: TimeGrid, rule: str, forcing):
    N = grid.n_steps
    h = grid.h
    lam = _coupling(params)
    s_nodes = grid.nodes  # reused as s = t − τ offsets
    g = np.exp(-1j * params.field**2 * s_nodes**3 / (24.0 * params.mass * params.hbar))

    if forcing is None:
        phi = volkov_phi(0.0, grid.nodes, params)
    else:
        phi = np.asarray(forcing, dtype=np.complex128)
        if phi.shape != (N + 1,):
            raise ValueError("forcing must supply one sample per grid node")

    psi = np.empty(N + 1, dtype=np.complex128)
    psi[0] = phi[0]

    nu0, nu1, nu2 = _panel_moments(N + 1)
    sqh = math.sqrt(h)
    if rule == "linear":
        wL = (nu0 - nu1) * sqh
        wR = nu1 * sqh
        W = np.empty(N + 2)
        W[0] = wL[0]
        W[1:] = wR[: N + 1]
        W[1:-1] += wL[1 : N + 1]
        c = W[: N + 1] * g
        crev = c[::-1].copy()
        corr = wL[: N + 1] * g  # invalid left-role of panel i at node n = i
        denom = 1.0 - lam * c[0]
        for i in range(1, N + 1):
            known = np.dot(crev[N - i : N], psi[:i]) - corr[i] * psi[0]
            psi[i] = (phi[i] + lam * known) / denom
            if not (math.isfinite(psi[i].real) and math.isfinite(psi[i].imag)):
                raise ConvergenceError(f"non-finite solution at node {i} (t={i * h:g})")
    elif rule == "quadratic":
        wl = 0.5 * (nu2 - nu1) * sqh
        wm = (nu0 - nu2) * sqh
        wr = 0.5 * (nu2 + nu1) * sqh
        v0 = 0.5 * (nu2[0] - 3.0 * nu1[0] + 2.0 * nu0[0]) * sqh
        v1 = (2.0 * nu1[0] - nu2[0]) * sqh
        v2 = 0.5 * (nu2[0] - nu1[0]) * sqh
        # Toeplitz part over panels k ≥ 1: node n ← wr(n−1) + wm(n) + wl(n+1)
        WT = np.zeros(N + 1)
        WT[2:] += wr[1:N]
        WT[1:] += wm[1 : N + 1]
        WT[:] += wl[1 : N + 2]
        cT = WT * g
        cTrev = cT[::-1].copy()
        # first step has a single panel: linear (diagonal s=0 node is ψ₁)
        w_diag = (nu0[0] - nu1[0]) * sqh
        w_far = nu1[0] * sqh
        psi[1] = (phi[1] + lam * w_far * g[1] * psi[0]) / (1.0 - lam * w_diag)
        denom = 1.0 - lam * (cT[0] + v0)
        for i in range(2, N + 1):
            known = np.dot(cTrev[N - i : N], psi[:i])
            known += v1 * g[1] * psi[i - 1] + v2 * g[2] * psi[i - 2]
            known -= wl[i] * g[i - 1] * psi[1]
            known -= (wm[i] + wl[i + 1]) * g[i] * psi[0]
            psi[i] = (phi[i] + lam * known) / denom
            if not (math.isfinite(psi[i].real) and math.isfinite(psi[i].imag)):
                raise ConvergenceError(f"non-finite solution at node {i} (t={i * h:g})")
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return psi


def solve_psi0(
    params: PhysParams,
    grid: TimeGrid,
    rule: str = "linear",
    *,
    err_threshold: float = 1e-3,
    estimate_error: bool = True,
    forcing=None,
) -> VolterraSolution:
    """March the origin equation over the grid.

    Returns a flagged (never silently wrong) solution: ``err_est`` is a
    step-halving Richardson estimate of the max-norm error, and flags
    record a too-coarse grid (error estimate above ``err_threshold``, or a
    kernel phase advancing more than 0.5 rad per panel at t_max).
    ``forcing`` overrides the φ_F(0,t_i) samples (testing hook).
    """
    psi = _march(params, grid, rule, forcing)

    flags = []
    if _cubic_phase_step(params, grid) > 0.5:
        flags.append("phase_step_too_coarse")

    err_est = math.nan
    if estimate_error and grid.n_steps >= 8:
        n2 = grid.n_steps // 2
        coarse_grid = TimeGrid(t_max=n2 * 2 * grid.h, n_steps=n2)
        coarse_forcing = None if forcing is None else np.asarray(forcing)[::2][: n2 + 1]
        psi_c = _march(params, coarse_grid, rule, coarse_forcing)
        fine_at_coarse = psi[:: 2][: n2 + 1]
        order = 2.0 if rule == "linear" else 2.5
        err_est = float(
            np.max(np.abs(fine_at_coarse - psi_c)) / (2.0**order - 1.0)
        )
        if err_est > err_threshold:
            flags.append("err_est_above_threshold")

    return VolterraSolution(
        grid=grid,
        psi0=psi,
        rule=rule,
        err_est=err_est,
        params=params,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# reconstruction away from the origin
# ---------------------------------------------------------------------------

_PHASE_SWITCH = 0.05  # rad per panel: absorb-vs-exact handling of e^{iA/s}
_SQRT_PI_C = math.sqrt(math.pi) * np.exp(0.25j * math.pi)
_EXP_M_IPI4 = np.exp(-0.25j * math.pi)


def _fresnel_T(X: np.ndarray):
    """T₁(X) = ∫_X^∞ u^{−3/2}e^{iu}du and T₂(X) = ∫_X^∞ u^{−5/2}e^{iu}du
    (X > 0), via Φ(w) = ∫_w^∞ e^{iv²}dv = (√π/2)e^{iπ/4}erfc(w e^{−iπ/4})."""
    w = np.sqrt(X)
    phi = 0.5 * _SQRT_PI_C * cerfc(w * _EXP_M_IPI4)
    eiX = np.exp(1j * X)
    T1 = 2.0 * eiX / w + 4j * phi
    T2 = (2.0 / 3.0) * (eiX / (w * X) + 1j * T1)
    return T1, T2


def reconstruct_psi_x(sol: VolterraSolution, x: float, t: float) -> complex:
    """ψ_F(x,t) at a grid node, substituting ψ_F(0,·) back into the
    integral equation with the linear product rule; the endpoint
    oscillation of e^{imx²/(2ℏs)} is handled by exact oscillatory moments
    on every panel whose phase advance exceeds the switch threshold."""
    params = sol.params
    i = sol.grid.index_of(t)
    if x == 0.0:
        return complex(sol.psi0[i])
    if i == 0:
        return complex(bound_state(x, params))

    h = sol.grid.h
    hbar, m, F = params.hbar, params.mass, params.field
    A = m * x * x / (2.0 * hbar)
    eps = F * x / (2.0 * hbar)

    s = np.arange(i + 1) * h
    # smooth factor at the s-nodes (cubic kernel phase, drift phase, ψ samples)
    cubic = np.exp(-1j * F * F * s**3 / (24.0 * m * hbar))
    P = cubic * np.exp(1j * eps * s) * sol.psi0[i::-1]

    a = s[:-1]
    b = s[1:]
    dphi = np.empty(i)
    dphi[0] = np.inf
    dphi[1:] = A * h / (a[1:] * b[1:])
    osc = dphi > _PHASE_SWITCH

    total = 0.0 + 0.0j
    if np.any(~osc):
        sm = ~osc
        nu0 = 2.0 * (np.sqrt(b[sm]) - np.sqrt(a[sm]))
        nu1 = (2.0 / 3.0) * (b[sm] ** 1.5 - a[sm] ** 1.5) - a[sm] * nu0
        pl = P[:-1][sm] * np.exp(1j * A / a[sm])
        pr = P[1:][sm] * np.exp(1j * A / b[sm])
        total += np.sum(pl * (nu0 - nu1 / h) + pr * (nu1 / h))
    if np.any(osc):
        ao = a[osc]
        bo = b[osc]
        T1b, T2b = _fresnel_T(A / bo)
        with np.errstate(divide="ignore"):
            Xa = np.where(ao > 0, A / ao, np.inf)
        T1a = np.zeros_like(T1b)
        T2a = np.zeros_like(T2b)
        fin = np.isfinite(Xa)
        if fin.any():
            T1a[fin], T2a[fin] = _fresnel_T(Xa[fin])
        J0 = math.sqrt(A) * (T1b - T1a)
        J1 = A**1.5 * (T2b - T2a)
        M1 = (J1 - ao * J0) / h
        total += np.sum(P[:-1][osc] * (J0 - M1) + P[1:][osc] * M1)

    return complex(volkov_phi(x, t, params) + _coupling(params) * total)


def overlap_domain_halfwidth(params: PhysParams, t: float) -> float:
    """Spatial truncation |x| ≤ x_c(t) + 40/B + 10√(ℏt/m): the ψ_b factor
    bounds the tail by e^{−40} and the ballistic spread is covered."""
    x_c = params.field * t * t / (2.0 * params.mass)
    return x_c + 40.0 / params.B + 10.0 * math.sqrt(params.hbar * t / params.mass)


def bound_overlap(sol: VolterraSolution, t: float, quad_tol: float = 1e-6):
    """⟨ψ_b|ψ_F(t)⟩ by adaptive quadrature on the truncated domain, and the
    ionization probability P(t) = 1 − |⟨ψ_b|ψ_F(t)⟩|²."""
    params = sol.params
    i = sol.grid.index_of(t)
    if i == 0:
        return 1.0 + 0.0j, 0.0
    xm = overlap_domain_halfwidth(params, t)

    def integrand(x, part):
        v = bound_state(x, params) * reconstruct_psi_x(sol, x, t)
        return v.real if part == 0 else v.imag

    total = 0.0 + 0.0j
    for lo, hi in ((-xm, 0.0), (0.0, xm)):
        for part in (0, 1):
            val, abserr = quad(
                integrand, lo, hi, args=(part,), epsabs=quad_tol, epsrel=quad_tol,
                limit=300,
            )
            if not math.isfinite(val):
                raise ConvergenceError(f"overlap quadrature failed at t={t}")
            total += val if part == 0 else 1j * val
    overlap = complex(total)
    return overlap, 1.0 - abs(overlap) ** 2
