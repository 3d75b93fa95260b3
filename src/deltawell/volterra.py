"""Exact evolution: the scalar-gauge integral equation solved by product
integration.

At the origin the equation closes on itself,

    ψ(0,t) = φ_F(0,t) + λ ∫₀ᵗ ds s^{−1/2} g(s) ψ(0,t−s),
    λ = (i/ℏ)V₀ √(m/(2πiℏ)),     g(s) = e^{−iF²s³/(24mℏ)},

a weakly singular Volterra equation of the second kind.  The Abel weight
s^{−1/2} is integrated exactly against a piecewise polynomial interpolant
of the smooth factor g·ψ (linear by default, quadratic as an upgrade); on
a uniform grid the resulting weights depend only on the node distance, so
the rows form a lower-triangular Toeplitz system.  The march solves it by
divide and conquer (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
Comput. 6 (1985) 532): once the first half of a block is solved, its
whole history enters the second half through one FFT convolution, and
each leaf of 64 nodes is one direct convolution of its right-hand side
with the precomputed inverse of the leaf's Toeplitz operator.  A node
never reads a later node, and N steps cost O(N log² N).  One
table of unit-step panel moments (Toeplitz weights plus start and end
fix-ups) serves `abel_weights`, the march and the reconstruction.  The
moments are differences of powers of k and lose accuracy by cancellation
at large k (ν₂ is off by 2e-4 relative at k = 10⁴), so the quadratic
rule's weights degrade beyond about 10⁴ steps.

Away from the origin the kernel picks up the factor e^{imx²/(2ℏs)} whose
phase diverges at the s → 0 endpoint.  Reconstruction therefore splits
panels into "smooth" (phase change below a threshold: factor absorbed
into the interpolant) and "oscillatory" (the weight s^{−1/2}e^{iA/s} is
integrated exactly through Fresnel/erfc closed forms), with the terminal
panel always treated exactly.  The phase advance falls along s, so the
exact panels are the first K(x).  Reconstruction is vectorized over x:
the factors that do not depend on x are built once per call, the Fresnel
terms once per s-node, and x runs in chunks sorted by |x|.

The bound-state overlap integrates ψ_b·ψ(·,t) in x by a globally adaptive
Gauss–Kronrod (10, 21) rule with QUADPACK's error estimate and a panel
cap, reconstructing ψ at all new nodes of a round in one call.  ψ(·,t)
is only piecewise smooth in x: it steps wherever K(x) changes.  The first
switch points are panel edges; the later, smaller steps leave a noise
floor near 1e-7 on the overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

_ERR_THRESHOLD = 1e-3  # err_est above this flags the grid as too coarse
_OVERLAP_TOL = 1e-6  # absolute and relative tolerance of the overlap's x-integral
_OVERLAP_MAX_PANELS = 1024  # cap on the Gauss–Kronrod panels of one overlap
_OVERLAP_SWITCH_EDGES = 16  # reconstruction switch points per side used as panel edges
_LEAF = 64  # nodes per leaf of the block march


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

# rule name → order of its step-halving (Richardson) error estimate
RULE_ORDER = {"linear": 2.0, "quadratic": 2.5}


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


def _linear_panels(n: int):
    # weights of panel k = [k, k+1], k ≤ n, on its nodes k and k+1 (unit step)
    nu0, nu1, _ = _panel_moments(n)
    return nu0 - nu1, nu1


def _rule_weights(n: int, rule: str):
    """Unit-step pieces (T, start, end) of the rule's rows on up to n panels.

    Row i weights s-index j ≤ i by the Toeplitz weight T[j], plus start[j]
    for j ≤ 2, plus the end fix-ups end[0, i] at j = i and end[1, i] at
    j = i − 1, which take out the panels beyond s = i.  A one-panel row is
    the linear row for every rule.
    """
    if rule not in RULE_ORDER:
        raise ValueError(f"unknown rule {rule!r} (choose from {tuple(RULE_ORDER)})")
    if rule == "linear" or n == 1:
        wl, wr = _linear_panels(n)
        return wl + np.r_[0.0, wr[:n]], np.zeros(3), np.array([-wl, np.zeros(n + 1)])
    nu0, nu1, nu2 = _panel_moments(n + 1)
    # panel k ≥ 1 uses nodes (k−1, k, k+1); panel 0 uses nodes (0, 1, 2)
    wl, wm, wr = 0.5 * (nu2 - nu1), nu0 - nu2, 0.5 * (nu2 + nu1)
    T = wl[1:] + np.r_[0.0, wm[1 : n + 1]] + np.r_[0.0, 0.0, wr[1:n]]
    start = np.array([
        0.5 * (nu2[0] - 3.0 * nu1[0] + 2.0 * nu0[0]), 2.0 * nu1[0] - nu2[0], 0.5 * (nu2[0] - nu1[0])
    ])
    return T, start, np.array([-(wm[: n + 1] + wl[1:]), -wl[: n + 1]])


def abel_weights(n: int, h: float, rule: str = "linear") -> np.ndarray:
    """Weights ω so that Σ ω[j]·G(jh) ≈ ∫₀^{nh} s^{−1/2} G(s) ds.

    ``linear`` integrates the Abel weight exactly against a piecewise
    linear interpolant of G; ``quadratic`` against overlapping three-point
    parabolas (exact for polynomials of degree ≤ 2).
    """
    if n < 1:
        raise ValueError("need at least one panel")
    w, start, end = _rule_weights(n, rule)
    w[:3] += start[: n + 1]
    w[[n, n - 1]] += end[:, n]
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


def _march(params: PhysParams, grid: TimeGrid, rule: str, phi: np.ndarray):
    N = grid.n_steps
    T, start, end = _rule_weights(N, rule)
    lam = _coupling(params)
    F = params.field
    g = np.exp(-1j * F * F * grid.nodes**3 / (24.0 * params.mass * params.hbar))

    psi = np.empty(N + 1, dtype=np.complex128)
    psi[0] = phi[0]
    w1 = abel_weights(1, grid.h)  # one panel: the linear row for every rule
    psi[1] = (phi[1] + lam * w1[1] * g[1] * psi[0]) / (1.0 - lam * w1[0])

    # row i ≥ 2 is Toeplitz in the history, whose first three weights carry
    # the start fix-up; the end fix-ups act on the known ψ₀ and ψ₁
    sqh = math.sqrt(grid.h)
    c = T * sqh * g
    c[:3] += start[: N + 1] * sqh * g[:3]
    lc = lam * c
    rhs = phi + lam * sqh * (end[0] * g * psi[0] + end[1] * np.r_[0.0, g[:-1]] * psi[1])

    # unknowns x = ψ[2:] solve (1 − λc₀)x_i − Σ_{k≥1} λc_k x_{i−k} = b_i, where b
    # starts as the right-hand side plus the history of ψ₀ and ψ₁
    x = psi[2:]
    b = rhs[2:] + lc[2:] * psi[0] + lc[1:-1] * psi[1]
    n = N - 1
    L = min(_LEAF, N)
    # the inverse of a leaf's lower-triangular Toeplitz operator: the first
    # L coefficients of 1/a(z), a(z) = (1 − λc₀) − Σ_{k≥1} λc_k zᵏ, by
    # Newton's iteration inv ← inv·(2 − a·inv), which doubles the length
    a = np.r_[1.0 - lc[0], -lc[1:L]]
    inv = 1.0 / a[:1]
    while inv.size < L:
        m = min(2 * inv.size, L)
        e = -np.convolve(a[:m], inv)[:m]
        e[0] += 2.0
        inv = np.convolve(inv, e)[:m]
    kernels = {}
    for lo in range(0, n, L):
        hi = min(lo + L, n)
        # a direct convolution: ψ_i reads b_j for j ≤ i only
        x[lo:hi] = np.convolve(b[lo:hi], inv[: hi - lo])[: hi - lo]
        if hi == n:
            break
        # S = L × the largest power of two dividing hi/L: the S nodes before
        # hi are the left half of a block of 2S, and their history enters
        # the right half by one FFT convolution with c[1:2S]
        done = hi // L
        S = L * (done & -done)
        if S not in kernels:
            kernels[S] = np.fft.fft(lc[1 : 2 * S], 2 * S)
        hist = np.fft.ifft(np.fft.fft(x[hi - S : hi], 2 * S) * kernels[S])
        m = min(S, n - hi)
        b[hi : hi + m] += hist[S - 1 : S - 1 + m]

    bad = np.flatnonzero(~np.isfinite(psi))
    if bad.size:
        raise ConvergenceError(f"non-finite solution at node {bad[0]} (t={bad[0] * grid.h:g})")
    return psi


def solve_psi0(params: PhysParams, grid: TimeGrid, rule: str = "linear") -> VolterraSolution:
    """March the origin equation over the grid.

    Returns a flagged (never silently wrong) solution: ``err_est`` is a
    step-halving Richardson estimate of the max-norm error (NaN below 8
    steps), and flags record a too-coarse grid (error estimate above 1e-3,
    or a kernel phase advancing more than 0.5 rad per panel at t_max).
    """
    phi = volkov_phi(0.0, grid.nodes, params)
    psi = _march(params, grid, rule, phi)

    flags = []
    F, t, h = params.field, grid.t_max, grid.h
    if F * F * (t**3 - (t - h) ** 3) / (24.0 * params.mass * params.hbar) > 0.5:
        flags.append("phase_step_too_coarse")

    err_est = math.nan
    if grid.n_steps >= 8:
        n2 = grid.n_steps // 2
        coarse_grid = TimeGrid(t_max=n2 * 2 * grid.h, n_steps=n2)
        psi_c = _march(params, coarse_grid, rule, phi[::2][: n2 + 1])
        fine_at_coarse = psi[:: 2][: n2 + 1]
        err_est = float(
            np.max(np.abs(fine_at_coarse - psi_c)) / (2.0 ** RULE_ORDER[rule] - 1.0)
        )
        if err_est > _ERR_THRESHOLD:
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
_CHUNK_ELEMS = 1 << 16  # (x, s-node) entries per chunk: 1 MiB of complex128
_X_ORIGIN = 1e-20  # |x|/√(2ℏh/m) below which ψ(x,t) is taken as ψ(0,t)


def _fresnel_T(X: np.ndarray):
    """T₁(X) = ∫_X^∞ u^{−3/2}e^{iu}du and T₂(X) = ∫_X^∞ u^{−5/2}e^{iu}du
    (X > 0), via Φ(w) = ∫_w^∞ e^{iv²}dv = (√π/2)e^{iπ/4}erfc(w e^{−iπ/4})."""
    w = np.sqrt(X)
    phi = 0.5 * _SQRT_PI_C * cerfc(w * _EXP_M_IPI4)
    eiX = np.exp(1j * X)
    T1 = 2.0 * eiX / w + 4j * phi
    T2 = (2.0 / 3.0) * (eiX / (w * X) + 1j * T1)
    return T1, T2


def reconstruct_psi_x(sol: VolterraSolution, x, t: float):
    """ψ_F(x,t) at a grid node for a scalar x or an array of x, substituting
    ψ_F(0,·) back into the integral equation with the linear product rule;
    the endpoint oscillation of e^{imx²/(2ℏs)} is handled by exact
    oscillatory moments on every panel whose phase advance exceeds the
    switch threshold.  A scalar x gives a complex, an array a complex array
    of its shape; x must be finite.  An |x| within _X_ORIGIN·√(2ℏh/m) of
    the well gives ψ(0,t)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    i = sol.grid.index_of(t)
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    params = sol.params
    # ψ(·,t) is continuous at the well: ψ(x,t) − ψ(0,t) is O(|x|/ℓ), where
    # ℓ = √(2ℏh/m) is the |x| at which the kernel phase mx²/(2ℏs) reaches 1
    # on the first panel.  Below _X_ORIGIN·ℓ that is far under rounding,
    # while A/s would underflow in the Fresnel terms
    origin = np.abs(flat) <= _X_ORIGIN * math.sqrt(2.0 * params.hbar * sol.grid.h / params.mass)
    out[origin] = sol.psi0[i]
    off = ~origin
    if i == 0:
        out[off] = bound_state(flat[off], params)
    elif off.any():
        out[off] = _psi_off_origin(sol, flat[off], t, i)
    return complex(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _psi_off_origin(sol: VolterraSolution, x: np.ndarray, t: float, i: int) -> np.ndarray:
    # ψ(x, t) at node i ≥ 1 for x ≠ 0, in chunks of x sorted by |x|
    params = sol.params
    h = sol.grid.h
    hbar, m, F = params.hbar, params.mass, params.field

    # x-independent: the s-nodes, the cubic kernel phase times ψ(0, t − s),
    # the linear panel weights and each panel's phase rate h/(s_k s_{k+1})
    s = np.arange(i + 1) * h
    C = np.exp(-1j * F * F * s**3 / (24.0 * m * hbar)) * sol.psi0[i::-1]
    wl, wr = _linear_panels(i - 1)
    rate = h / (s[1:-1] * s[2:])

    A = m * x * x / (2.0 * hbar)
    eps = F * x / (2.0 * hbar)
    # panel 0 (where T₁ = T₂ = 0) is always integrated exactly; panel k ≥ 1
    # when its phase advance A·h/(s_k s_{k+1}) exceeds the switch.  That
    # advance falls with k, so the exact panels are 0 … K − 1
    K = 1 + np.searchsorted(-rate, -_PHASE_SWITCH / A)

    out = np.empty(x.shape, dtype=np.complex128)
    order = np.argsort(A, kind="stable")
    chunk = max(1, _CHUNK_ELEMS // (i + 1))
    for lo in range(0, x.size, chunk):
        idx = order[lo : lo + chunk]
        Ac, Kc = A[idx, None], K[idx, None]
        k_lo, k_hi = Kc[0, 0], Kc[-1, 0]
        P = C * np.exp(1j * eps[idx, None] * s)

        # smooth panels K … i − 1: e^{iA/s} absorbed into the interpolant
        Q = P[:, k_lo:] * np.exp(1j * Ac / s[k_lo:])
        smooth = Q[:, :-1] * wl[k_lo:] + Q[:, 1:] * wr[k_lo:]

        # exact panels 0 … K − 1 from T₁, T₂ at nodes 1 … K (zero at node 0),
        # differenced in place into T(s_{k+1}) − T(s_k)
        dT1, dT2 = _fresnel_T(Ac / s[1 : k_hi + 1])
        dT1[:, 1:] -= dT1[:, :-1]
        dT2[:, 1:] -= dT2[:, :-1]
        J0 = np.sqrt(Ac) * dT1
        J1 = Ac**1.5 * dT2
        M1 = (J1 - s[:k_hi] * J0) / h
        exact = P[:, :k_hi] * (J0 - M1) + P[:, 1 : k_hi + 1] * M1

        if k_lo < k_hi:  # rows of the chunk differ in K
            smooth[np.arange(k_lo, i) < Kc] = 0.0
            exact[np.arange(k_hi) >= Kc] = 0.0
        total = math.sqrt(h) * smooth.sum(axis=1) + exact.sum(axis=1)
        out[idx] = volkov_phi(x[idx], t, params) + _coupling(params) * total
    return out


def overlap_domain_halfwidth(params: PhysParams, t: float) -> float:
    """Spatial truncation |x| ≤ x_c(t) + 40/B + 10√(ℏt/m): the ψ_b factor
    bounds the tail by e^{−40} and the ballistic spread is covered."""
    x_c = params.field * t * t / (2.0 * params.mass)
    return x_c + 40.0 / params.B + 10.0 * math.sqrt(params.hbar * t / params.mass)


def bound_overlap(sol: VolterraSolution, t: float):
    """⟨ψ_b|ψ_F(t)⟩ on the truncated domain and the ionization probability
    P(t) = 1 − |⟨ψ_b|ψ_F(t)⟩|².

    The x-integral over |x| ≤ x_m is the adaptive Gauss–Kronrod rule of
    `_gk21_adaptive` to ``_OVERLAP_TOL`` (absolute and relative), with an
    error estimate per panel; each round reconstructs ψ at the nodes of
    every panel it refines in one batched `reconstruct_psi_x` call.  It
    raises `ConvergenceError` past ``_OVERLAP_MAX_PANELS`` panels or on a
    non-finite integrand.  The reconstruction's per-panel switch makes
    ψ(·,t) piecewise smooth in x, which leaves a noise floor near 1e-7 on
    the overlap: a tighter tolerance costs many times the evaluations
    without a better value."""
    params = sol.params
    i = sol.grid.index_of(t)
    if i == 0:
        return 1.0 + 0.0j, 0.0
    xm = overlap_domain_halfwidth(params, t)
    # ψ(·,t) steps wherever the reconstruction's count of exact panels
    # changes: by about 1e-4 at the first switch point, 2e-6 at the 17th and
    # 1e-7 at the 65th.  Panels across many steps misjudge their error (with
    # [0, x_m] as the first panel, P came out 2.3e-6 off), so the first
    # switch points are panel edges; the k-th is where A·h/(s_k s_{k+1})
    # equals the switch, A = mx²/(2ℏ)
    h = sol.grid.h
    s = np.arange(1, min(_OVERLAP_SWITCH_EDGES, i - 1) + 2) * h
    xk = np.sqrt(2.0 * params.hbar * _PHASE_SWITCH * s[:-1] * s[1:] / (params.mass * h))
    xk = xk[xk < xm]
    edges = np.r_[-xm, -xk[::-1], 0.0, xk, xm]

    def integrand(x):
        return bound_state(x, params) * reconstruct_psi_x(sol, x, t)

    overlap = _gk21_adaptive(integrand, edges[:-1], edges[1:])
    return overlap, 1.0 - abs(overlap) ** 2


# Gauss–Kronrod (10, 21) pair on [−1, 1] (QUADPACK qk21, Piessens et al.
# 1983): Kronrod abscissae from the outermost to the centre, their weights,
# and the Gauss weights of the odd-indexed abscissae
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1::2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK_X = np.r_[-_XGK, _XGK[-2::-1]]
_GK_WK = np.r_[_WGK, _WGK[-2::-1]]
_GK_WG = np.r_[_WG, _WG[-2::-1]]


def _gk21_adaptive(f, lo: np.ndarray, hi: np.ndarray) -> complex:
    """∫ f over the panels [lo, hi] to ``_OVERLAP_TOL``, absolute and
    relative, by globally adaptive bisection of 21-point Gauss–Kronrod
    panels; f maps an array of x to complex values of its shape.

    A panel's error is QUADPACK's scaled |K21 − G10|.  While the summed
    error exceeds the tolerance, every panel is bisected except the
    smallest-error ones that together hold at most half of it, and the new
    panels go to f in one call.  More than ``_OVERLAP_MAX_PANELS`` panels,
    or a non-finite value of f, raise `ConvergenceError`."""
    val = np.empty(0, dtype=np.complex128)
    err = kept_lo = kept_hi = np.empty(0)
    while True:
        if val.size + lo.size > _OVERLAP_MAX_PANELS:
            raise ConvergenceError(
                f"overlap quadrature needs more than {_OVERLAP_MAX_PANELS} panels "
                f"(error {err.sum():.1e} on {val.size})"
            )
        half = 0.5 * (hi - lo)
        fx = f(0.5 * (hi + lo)[:, None] + half[:, None] * _GK_X)
        if not np.all(np.isfinite(fx)):
            raise ConvergenceError("non-finite integrand in the overlap quadrature")
        k21 = fx @ _GK_WK
        e = np.abs(k21 - fx @ _GK_WG)
        asc = np.abs(fx - 0.5 * k21[:, None]) @ _GK_WK
        scaled = (e > 0.0) & (asc > 0.0)
        e[scaled] = asc[scaled] * np.minimum(1.0, (200.0 * e[scaled] / asc[scaled]) ** 1.5)
        e = np.maximum(e, 50.0 * np.finfo(float).eps * (np.abs(fx) @ _GK_WK))
        val = np.r_[val, k21 * half]
        err = np.r_[err, e * np.abs(half)]
        lo, hi = np.r_[kept_lo, lo], np.r_[kept_hi, hi]

        total = val.sum()
        tol = _OVERLAP_TOL * max(1.0, abs(total))
        if err.sum() <= tol:
            return complex(total)
        order = np.argsort(err)
        n_keep = int(np.searchsorted(np.cumsum(err[order]), 0.5 * tol, side="right"))
        keep, split = order[:n_keep], order[n_keep:]
        val, err, kept_lo, kept_hi = val[keep], err[keep], lo[keep], hi[keep]
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.r_[lo[split], mid], np.r_[mid, hi[split]]
