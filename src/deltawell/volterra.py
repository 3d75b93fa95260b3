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

Away from the origin any ψ(0,t) series, the march's or a closed form's,
is substituted back with the linear panel weights, whatever its rule.
The kernel then picks up the factor e^{imx²/(2ℏs)}, whose phase diverges
at the s → 0 endpoint.  Reconstruction therefore splits panels into
"smooth" (phase change below a threshold: factor absorbed into the
interpolant) and "oscillatory" (the weight s^{−1/2}e^{iA/s} is integrated
exactly through Fresnel/erfc closed forms), with the terminal
panel always treated exactly.  The phase advance falls along s, so the
exact panels are the first K(x).  The x-independent tables (nodes, g(s),
panel weights and switch points) are cached on the series over the whole
grid.  What node i adds to them is cached too, for the last node asked
only (`_Node`): C_j = g(s_j)ψ(0, t_i − s_j), the smooth panels' weights
times C, λ, √h and the t-only constants of φ_F(·, t).  A profile ψ(·, t)
and P(t) ask one node many times in a row, and building these per x would
cost about a third of a ψ(x, t) call; so each x pays only for its own
phases, Fresnel terms and φ_F(x, t), and the sums are dot products.  An
array of x is evaluated x by x, so it gives bitwise what one call per x
gives.

The bound-state overlap ⟨ψ_b|ψ(t)⟩ is the x-integral of that same
reconstruction, taken without evaluating ψ(x,t).  Each panel's piece is
ψ_b(x)e^{iβx+iαx²} times an x-independent factor, restricted to |x| below
(smooth) or above (exact) the panel's switch point, so the x-integral of
every piece is a closed form in erfcx; the exact panels keep an
s-integral, taken by 8-point Gauss–Legendre per panel.  ⟨ψ_b|φ_F⟩ is a
closed form in the Faddeeva function.  Everything but ψ(0,·) and
⟨ψ_b|φ_F⟩ depends on neither t nor the series values: the smooth panels'
chirp integrals and the exact panels' rule weights, interpolation
fractions and chirp integrals.  They are read-only tables on the series,
built for every panel of the grid by the first overlap; node i reads the
first i rows.  So P at any number of t builds the tables once and adds
one weighted sum per t.
"""

from __future__ import annotations

import bisect
import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .errors import ConvergenceError, NumericsError
from .params import PhysParams
from .propagator import _VolkovAt, bound_state, volkov_phi
from .specfun import _check_numbers, _integer, _numbers

__all__ = [
    "TimeGrid",
    "ComplexSeries",
    "VolterraSolution",
    "solve_psi0",
    "reconstruct_psi_x",
    "bound_overlap",
]

_ERR_THRESHOLD = 1e-3  # err_est above this flags the grid as too coarse
_LEAF = 64  # nodes per leaf of the block march


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t₀ < … < t_N = t_max with step h = t_max/n_steps."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not _numbers(self.t_max, "t_max") > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        _integer(self.n_steps, "n_steps")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def h(self) -> float:
        return self.t_max / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    def index_of(self, t: float) -> int:
        """Grid index of a node time; raises if t is not (close to) a node,
        or is a boolean or not a real number."""
        _check_numbers(t, "t")
        tf = float(t)
        q = tf / self.h
        i = round(q) if math.isfinite(q) else -1
        if i < 0 or i > self.n_steps or abs(tf - i * self.h) > 1e-9 * max(1.0, abs(tf)):
            raise ValueError(f"t={t} is not a node of {self}")
        return i


@dataclass(frozen=True)
class ComplexSeries:
    """ψ(0,t) on a grid for the problem ``params``: the one amplitude type
    that the march and every closed form produce and that reconstruction,
    overlap and analysis take.  Frozen, with read-only ``values``, so the
    kernel tables it caches always describe its grid and field."""

    grid: TimeGrid
    values: np.ndarray
    params: PhysParams

    def __post_init__(self):
        # a copy: the series makes its array read-only
        values = np.array(_numbers(self.values, "values", numbers.Complex))
        if values.shape != (self.grid.n_steps + 1,):
            raise ValueError("values must have one sample per grid node")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def _kernel(self):
        # x-independent tables over the whole grid, built on first use and
        # read-only: the nodes s_j, g(s_j), the linear weights of panels
        # 0 … N − 1 and their switch points x_k.  Panel k is integrated
        # exactly for |x| above x_k, where its phase advance A·h/(s_k s_{k+1})
        # (A = mx²/(2ℏ)) equals the switch, and smooth below; x_0 = 0
        s = self.grid.nodes
        p = self.params
        tables = (
            s, _field_phase(p, s), *_linear_panels(self.grid.n_steps - 1),
            np.sqrt(2.0 * p.hbar * _PHASE_SWITCH * s[:-1] * s[1:] / (p.mass * self.grid.h)),
        )
        for a in tables:
            a.flags.writeable = False
        return tables

    def _node(self, t) -> _Node:
        # the factors of the node at t, kept for the last t asked only: a
        # P(t) curve or a ψ(·, t) profile asks one t many times in a row.
        # The t of another type (True is not 1.0) builds, and so checks, anew
        node = self.__dict__.get("_last_node")
        if node is None or type(node.t) is not type(t) or node.t != t:
            node = _Node(self, t)
            object.__setattr__(self, "_last_node", node)
        return node

    @cached_property
    def _overlap(self):
        # the overlap's read-only panel tables over the whole grid, which
        # depend on neither t nor the values, built on first use
        return _overlap_tables(self.grid, self.params, self._kernel[4])


@dataclass(frozen=True)
class VolterraSolution(ComplexSeries):
    """The march's ψ_F(0,t) plus its rule, error estimate and flags."""

    rule: str
    err_est: float
    flags: tuple = ()

    @property
    def psi0(self) -> np.ndarray:
        return self.values


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
    _integer(n, "n")
    if n < 1:
        raise ValueError("need at least one panel")
    if not _numbers(h, "h") > 0.0:
        raise ValueError(f"h must be positive, got {h}")
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


def _field_phase(params: PhysParams, s: np.ndarray) -> np.ndarray:
    # the kernel's field factor g(s) = e^{−iF²s³/(24mℏ)}
    F = params.field
    return np.exp(-1j * F * F * s**3 / (24.0 * params.mass * params.hbar))


def _march(params: PhysParams, grid: TimeGrid, rule: str, phi: np.ndarray):
    N = grid.n_steps
    T, start, end = _rule_weights(N, rule)
    lam = _coupling(params)
    g = _field_phase(params, grid.nodes)

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

    return VolterraSolution(grid, psi, params, rule, err_est, tuple(flags))


# ---------------------------------------------------------------------------
# reconstruction away from the origin
# ---------------------------------------------------------------------------

_PHASE_SWITCH = 0.05  # rad per panel: absorb-vs-exact handling of e^{iA/s}
_SQRT_PI_C = math.sqrt(math.pi) * np.exp(0.25j * math.pi)
_EXP_M_IPI4 = np.exp(-0.25j * math.pi)
_X_ORIGIN = 1e-20  # |x|/√(2ℏh/m) below which ψ(x,t) is taken as ψ(0,t)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)  # s-rule of the overlap's exact panels


def _fresnel_T(X: np.ndarray):
    """T₁(X) = ∫_X^∞ u^{−3/2}e^{iu}du and T₂(X) = ∫_X^∞ u^{−5/2}e^{iu}du
    (X > 0), via Φ(w) = ∫_w^∞ e^{iv²}dv = (√π/2)e^{iπ/4}erfc(w e^{−iπ/4}).

    T₁ = 2e^{iX}/w + 4iΦ(w) and T₂ = (2/3)(e^{iX}/(wX) + iT₁), w = √X, on
    three reused buffers.  The differences of T between nodes cancel, so
    every rounding here is pinned, down to the order of the factors and
    to products that never write over a complex factor: numpy's complex
    product is not commutative in the last bit, and on one element it
    rounds differently in place."""
    w = np.sqrt(X)
    z = w * _EXP_M_IPI4  # Re z > 0: erfc(z) = e^{−z²}erfcx(z)
    e = np.negative(z)
    T1 = e * z
    np.exp(T1, out=T1)
    np.multiply(T1, special.erfcx(z, out=z), out=e)
    np.multiply(0.5 * _SQRT_PI_C, e, out=T1)  # Φ(w)
    np.multiply(4j, T1, out=e)
    eiX = np.exp(1j * X)
    np.multiply(2.0, eiX, out=T1)
    T1 /= w
    T1 += e
    w *= X
    eiX /= w
    eiX += np.multiply(1j, T1, out=e)
    np.multiply(2.0 / 3.0, eiX, out=eiX)
    return T1, eiX


class _Node:
    """The factors of node i ≥ 1 of a series that no x changes, for one t
    at that node: C_j = g(s_j)ψ(0, t_i − s_j) at its nodes s_j, the linear
    weights and switch points of its panels, λ, √h and φ_F(·, t) with its
    t-only constants.  The smooth panels' weights are also kept times √h·C
    at their left (``cl``) and right (``cr``) nodes, so that a smooth sum is
    two dot products.  `bound_overlap` reads C and the weights, and every x
    of `reconstruct_psi_x` reads them all.  The arrays are read-only.  At
    i = 0 only t, i and the origin radius are set."""

    __slots__ = ("t", "i", "origin", "psi0", "s", "C", "wl", "wr", "cl", "cr", "xk",
                 "lam", "sqh", "h", "m", "F", "two_hbar", "phi")

    def __init__(self, series: ComplexSeries, t):
        self.t = t
        self.i = i = series.grid.index_of(t)
        p, h = series.params, series.grid.h
        # ψ(·,t) is continuous at the well: ψ(x,t) − ψ(0,t) is O(|x|/ℓ), where
        # ℓ = √(2ℏh/m) is the |x| at which the kernel phase mx²/(2ℏs) reaches
        # 1 on the first panel.  Below _X_ORIGIN·ℓ that is far under
        # rounding, while A/s would underflow in the Fresnel terms
        self.origin = _X_ORIGIN * math.sqrt(2.0 * p.hbar * h / p.mass)
        if i == 0:
            return
        s, g, wl, wr, xk = series._kernel
        self.psi0 = series.values[i]
        self.s, self.wl, self.wr = s[: i + 1], wl[:i], wr[:i]
        self.C = g[: i + 1] * series.values[i::-1]
        self.lam, self.sqh, self.h = _coupling(p), math.sqrt(h), h
        self.cl = self.sqh * self.C[:-1] * self.wl
        self.cr = self.sqh * self.C[1:] * self.wr
        for a in (self.C, self.cl, self.cr):
            a.flags.writeable = False
        self.xk = tuple(xk[:i].tolist())
        self.m, self.F, self.two_hbar = p.mass, p.field, 2.0 * p.hbar
        self.phi = _VolkovAt(t, p)


def reconstruct_psi_x(series: ComplexSeries, x, t: float):
    """ψ_F(x,t) at a grid node for a scalar x or an array of x, substituting
    any ψ_F(0,·) series back into the integral equation with the linear
    product rule, whatever rule produced the series;
    the endpoint oscillation of e^{imx²/(2ℏs)} is handled by exact
    oscillatory moments on every panel whose phase advance exceeds the
    switch threshold.  A scalar x gives a complex, an array a complex array
    of its shape, evaluated x by x; x must be finite and real (a boolean or
    a string is a ValueError).  An |x| within _X_ORIGIN·√(2ℏh/m) of the
    well gives ψ(0,t).  A non-finite value raises `ConvergenceError`,
    naming the first such x.

    What no x changes at the node of t is built by the first call at t and
    kept on the series until another t is asked (`_Node`): C_j =
    g(s_j)ψ(0, t − s_j), the smooth panels' weights times C, the switch
    points, λ, √h and the t-only constants of φ_F(·, t).  A profile
    ψ(·, t) asks one t many times, so each x pays only for its own
    phases, Fresnel terms and φ_F(x, t): about 0.2 ms at N = 1 200."""
    if isinstance(x, float) and math.isfinite(x):
        # the common call, one finite float or np.float64 x off the well,
        # goes straight to the core; any other x, and a non-finite value,
        # take the checked path
        node = series._node(t)
        if node.i and abs(x) > node.origin:
            out = _psi_off_origin(node, x)
            if cmath.isfinite(out):
                return out
    x = _numbers(x, "x")
    node = series._node(t)
    origin = np.abs(x) <= node.origin
    if node.i == 0:
        out = np.where(origin, series.values[0], bound_state(x, series.params))
    else:
        flat = x.reshape(-1)
        out = np.full(flat.shape, node.psi0)
        for k in np.flatnonzero(~origin.reshape(-1)):
            out[k] = _psi_off_origin(node, float(flat[k]))
        out = out.reshape(x.shape)
    finite = np.isfinite(out)
    if not finite.all():
        bad = x.reshape(-1)[np.argmin(finite)]
        raise ConvergenceError(f"non-finite ψ(x, t) at x={bad:g}, t={t:g}")
    return complex(out) if x.ndim == 0 else out


def _psi_off_origin(node: _Node, x: float) -> complex:
    # ψ(x, t) at node i ≥ 1 for one float x ≠ 0.  Far from the well
    # A = mx²/(2ℏ) and the Fresnel terms overflow: the caller raises on the
    # non-finite value, which is never warned about
    s, C, i = node.s, node.C, node.i
    with np.errstate(all="ignore"):
        A = node.m * x * x / node.two_hbar
        eps = node.F * x / node.two_hbar
        # panel k is integrated exactly when |x| is above its switch point,
        # panel 0 (x_0 = 0, where T₁ = T₂ = 0) always.  The switch points
        # rise with k, so the exact panels are 0 … K − 1
        K = bisect.bisect_left(node.xk, abs(x))

        # smooth panels K … i − 1: e^{iA/s} absorbed into the interpolant
        total = 0.0
        if K < i:
            E = np.exp(1j * (eps * s[K:] + A / s[K:]))
            total = np.dot(E[:-1], node.cl[K:]) + np.dot(E[1:], node.cr[K:])

        # exact panels 0 … K − 1 from T₁, T₂ at nodes 1 … K (zero at node
        # 0), differenced in place into T(s_{k+1}) − T(s_k), then J₀ and
        # D = J₁ − s_k·J₀, h times the first moment
        J0, D = _fresnel_T(A / s[1 : K + 1])
        J0[1:] -= J0[:-1]
        D[1:] -= D[:-1]
        np.multiply(math.sqrt(A), J0, out=J0)
        np.multiply(np.float64(A) ** 1.5, D, out=D)  # inf, not OverflowError
        D -= s[:K] * J0
        P = C[: K + 1] * np.exp(1j * eps * s[: K + 1])
        # Σ P_k(J₀ − M₁) + P_{k+1}M₁ over the exact panels, M₁ = D/h
        exact = np.dot(P[:-1], J0) + np.dot(P[1:] - P[:-1], D) / node.h

        return complex(node.phi(x) + node.lam * (total + exact))


def _chirp_tail(p, alpha, a):
    """T(p, α, a) = ∫_a^∞ e^{−px+iαx²}dx for Re p > 0, α > 0 and a ≥ 0,
    elementwise over the broadcast arguments.

    Completing the square gives (√π/2)(e^{iπ/4}/√α)e^{−pa+iαa²}erfcx(u),
    u = e^{−iπ/4}√α·a + e^{iπ/4}p/(2√α).  Where Re u < 0 (Im p > Re p and
    a small) erfcx(u) = 2e^{u²} − erfcx(−u) is used instead, and the
    exponent −pa + iαa² + u² reduces to ip²/(4α), of modulus ≤ 1 there.
    """
    p, alpha, a = np.broadcast_arrays(p, alpha, a)
    r = np.sqrt(alpha)
    u = _EXP_M_IPI4 * (r * a + 0.5j * p / r)
    flip = u.real < 0.0
    out = np.exp(-p * a + 1j * alpha * a * a) * special.erfcx(np.where(flip, -u, u))
    pf = p[flip]
    out[flip] = 2.0 * np.exp(1j * pf * pf / (4.0 * alpha[flip])) - out[flip]
    return 0.5 * _SQRT_PI_C / r * out


def _bound_chirp(B: float, beta, alpha, a):
    # H(β, α; a) = ∫_{|x|>a} ψ_b(x) e^{iβx+iαx²} dx, ψ_b = √B e^{−B|x|}
    return math.sqrt(B) * (_chirp_tail(B - 1j * beta, alpha, a) + _chirp_tail(B + 1j * beta, alpha, a))


def _bound_volkov(params: PhysParams, t: float) -> complex:
    """⟨ψ_b|φ_F(t)⟩ at t > 0 in closed form.

    In momentum space, with b = ℏB, a = t/(2mℏ), d = Ft/2 and u = p + d,
    it is (2b³/π)∫e^{−iau² − iaF²t²/12}dp/((p² + b²)((p + Ft)² + b²)), with
    poles ±q₁, ±q₃ in u, q₁ = ib + d, q₃ = ib − d.  ∫e^{−iau²}du/(u − q) =
    iπW(q) is odd in q, and W(q) = w(κq) for Im q > 0, κ = e^{iπ/4}√a,
    w(z) = erfcx(−iz).  Where d > b, κq₃ lies below the real axis and erfcx
    takes the sector term w(z) = 2e^{−z²} − w(−z).  Partial fractions give

        −ib·e^{−iaF²t²/12}·{[W(q₁) − W(q₃)]/(2d) − W(q₁)/(2q₁) − W(q₃)/(2q₃)}.

    For small F·t, |κd|·max(1, |κb|) ≤ ½, the divided difference is the
    Taylor series κΣₙ w⁽²ⁿ⁺¹⁾(z₀)(κd)²ⁿ/(2n + 1)! about z₀ = iκb, with
    w′ = 2i/√π − 2zw and w⁽ⁿ⁺¹⁾ = −2z·w⁽ⁿ⁾ − 2n·w⁽ⁿ⁻¹⁾ (at F = 0, κw′(z₀)).
    """
    hbar, m, F, B = params.hbar, params.mass, params.field, params.B
    a = t / (2.0 * m * hbar)
    b = hbar * B
    d = 0.5 * F * t
    kappa = complex(np.exp(0.25j * math.pi)) * math.sqrt(a)
    z0, y = 1j * kappa * b, kappa * d
    w0, w1, w3 = special.erfcx(-1j * np.array([z0, z0 + y, z0 - y])).tolist()
    if abs(y) * max(1.0, abs(z0)) > 0.5:
        divided = (w1 - w3) / (2.0 * d)
    else:
        prev, cur = w0, 2j / math.sqrt(math.pi) - 2.0 * z0 * w0  # w, w′ at z₀
        total, scale = 0.0, 1.0  # scale = (κd)^{n−1}/n! for odd n
        for n in range(1, 80, 2):
            term = cur * scale
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
            prev, cur = cur, -2.0 * z0 * cur - 2.0 * n * prev
            prev, cur = cur, -2.0 * z0 * cur - 2.0 * (n + 1) * prev
            scale *= y * y / ((n + 1) * (n + 2))
        divided = kappa * total
    q1, q3 = 1j * b + d, 1j * b - d
    return -1j * b * np.exp(-1j * a * F * F * t * t / 12.0) * (
        divided - w1 / (2.0 * q1) - w3 / (2.0 * q3)
    )


def _overlap_tables(grid: TimeGrid, params: PhysParams, xk: np.ndarray):
    """The x-integrated pieces of the overlap that depend on neither t nor
    the series values, for panels 0 … N − 1 of one grid and field, whose
    switch points are xk.

    Smooth panel k ≥ 1 keeps S(β_j, α_j; x_k) = H(β_j, α_j; 0) − H(β_j, α_j;
    x_k) at its nodes j = k (``left``) and j = k + 1 (``right``).  Exact
    panel k keeps its 8-point rule in s (in √s on panel 0): the weights
    ``wq`` with the Abel factor, the interpolation fractions ``lin`` and
    H(β_j, α(s); x_k) at j = k (``hl``) and j = k + 1 (``hr``).  Every row
    is elementwise in its panel, so the first i rows, which node i reads,
    are bitwise the tables of the grid cut at node i.
    """
    h, hbar, m, B = grid.h, params.hbar, params.mass, params.B
    s = grid.nodes
    beta = params.field * s / (2.0 * hbar)

    # smooth panels k ≥ 1, from H(β_j, α_j; 0) at nodes j = 1 … N
    alpha = m / (2.0 * hbar * s[1:])
    h0 = _bound_chirp(B, beta[1:], alpha, 0.0)
    left = h0[:-1] - _bound_chirp(B, beta[1:-1], alpha[:-1], xk[1:])
    right = h0[1:] - _bound_chirp(B, beta[2:], alpha[1:], xk[1:])

    g = 0.5 * (1.0 + _GL8_X)
    sk = s[:-1, None]
    sq = sk + h * g
    wq = 0.5 * h * _GL8_W / np.sqrt(sq)
    sq[0] = h * g**2  # s = u² on panel 0
    wq[0] = math.sqrt(h) * _GL8_W
    aq = m / (2.0 * hbar * sq)
    lin = (sq - sk) / h
    hl = _bound_chirp(B, beta[:-1, None], aq, xk[:, None])
    hr = _bound_chirp(B, beta[1:, None], aq, xk[:, None])

    tables = (wq, lin, hl, hr, left, right)
    for a in tables:
        a.flags.writeable = False
    return tables


def bound_overlap(series: ComplexSeries, t: float):
    """⟨ψ_b|ψ_F(t)⟩ and the ionization probability P(t) = 1 − |⟨ψ_b|ψ_F(t)⟩|²,
    with ψ_F(·,t) the reconstruction of `reconstruct_psi_x` from any series.

    The reconstruction is φ_F plus a sum of per-panel pieces whose
    x-dependence is ψ_b-weighted chirps e^{iβx+iαx²}: panel k ≥ 1 absorbs
    e^{iA/s} into its interpolant for |x| below its switch point x_k and is
    integrated exactly in s above it; panel 0 is exact at every x.  So the
    x-integral is taken first: ⟨ψ_b|φ_F⟩ in closed form (`_bound_volkov`),
    every panel's piece in closed form (`_chirp_tail`), and the exact
    panels' s-integral by an 8-point Gauss–Legendre rule per panel (in √s
    on panel 0).  No x-quadrature is left.  A non-finite overlap raises
    `ConvergenceError`, and P < −1e-9 (a series that does not conserve the
    norm, such as the first scheme's) `NumericsError`."""
    node = series._node(t)
    i = node.i
    if i == 0:
        return 1.0 + 0.0j, 0.0
    C, wl, wr = node.C, node.wl, node.wr
    tables = series._overlap
    wq, lin, hl, hr = (a[:i] for a in tables[:4])
    left, right = (a[: i - 1] for a in tables[4:])
    # smooth parts: S(β_j, α_j; x_k) at the nodes j = k, k + 1 of panels
    # k = 1 … i − 1, times the linear weights
    smooth = np.sum(wl[1:] * C[1:-1] * left + wr[1:] * C[2:] * right)
    # exact parts: ∫ s^{−1/2}(linear interpolant of C_j H(β_j, α(s); x_k)) ds
    # per panel
    exact = np.sum(wq * ((1.0 - lin) * C[:-1, None] * hl + lin * C[1:, None] * hr))

    overlap = _bound_volkov(series.params, t) + node.lam * (node.sqh * smooth + exact)
    if not np.isfinite(overlap):
        raise ConvergenceError(f"non-finite bound-state overlap at t={t:g}")
    P = 1.0 - abs(overlap) ** 2
    if P < -1e-9:
        raise NumericsError(f"P = {P:.4g} < 0 at t={t:g}: the series does not conserve the norm")
    return complex(overlap), float(P)
