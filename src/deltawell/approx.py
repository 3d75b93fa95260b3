"""Weak-field closed forms for the amplitude at the well.

Two approximation schemes:

* the field-free-dressed ("first") scheme at the origin,
      ψ(0,t) ≈ φ_F(0,t) + √B e^{−iE_b t/ℏ} erf(√(−iE_b t/ℏ));

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
grid.  The same pass takes many (a, b) as rows, each on its own panel
edges, padded at the end to the longest row: ``y_integral`` evaluates a
grid of (ξ₁, ξ₂) at s = 1 that way.  This quadrature is Y's one
evaluation rule; the tests check it against the paper's ₁F₁ series,
summed in mpmath.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from .errors import PrecisionLossError
from .params import PhysParams
from .propagator import volkov_phi
from .specfun import _numbers, cerfc, gl_rule

__all__ = [
    "DecayAnsatz",
    "YArgs",
    "first_scheme_psi0",
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
    t = _numbers(t, "t")
    if np.any(t < 0.0):
        raise ValueError("first_scheme_psi0 requires t >= 0")
    hbar, B, E_b = params.hbar, params.B, params.E_b
    arg = np.sqrt(np.abs(E_b) * t / hbar) * _EXP_IPI4
    erf_term = 1.0 - cerfc(arg)
    return volkov_phi(0.0, t, params) + math.sqrt(B) * np.exp(-1j * E_b * t / hbar) * erf_term


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
        for name in ("E_f", "gamma", "delta", "c"):
            _numbers(getattr(self, name), name)
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
    """Arguments (ξ₁, ξ₂) of Y(t); scalars for one node or arrays for a
    time grid."""

    xi1: complex
    xi2: complex

    @classmethod
    def from_time(cls, params: PhysParams, t, E: complex):
        hbar, f, E_b = params.hbar, params.f, params.E_b
        xi1 = f * f * E_b**3 * t**3 / (3j * hbar**3)
        xi2 = E * t / (1j * hbar)
        return cls(xi1=xi1, xi2=xi2)


_Y_PHASE_STEP = 1.5  # step of _g_phase per panel in the first pass of G
_Y_MAX_PANELS = 32_768  # cap on the panels of one pass of G
_Y_CHUNK = 4096  # intervals per rule evaluation in _g_panels
_Y_ROWS = 256  # nodes (ξ₁, ξ₂) per G pass of y_integral, so its panel tables stay bounded


def _g_phase(aa, bb, u):
    # max(u, bb·u², aa·u⁶) with aa = |a|, bb = |b|: within a factor 3 of the
    # bound aa·u⁶ + bb·u² + u on the phase and the log-magnitude change of
    # the integrand of G over [0, u]
    return np.fmax(u, np.fmax(bb * u * u, aa * u**6))


def _modulus(z: np.ndarray) -> np.ndarray:
    # |z| by hypot, rounded as abs() rounds a Python complex; np.abs rounds
    # about a third of complex arrays' entries differently, which would
    # move the panel edges and so every closed-form value in its last bits
    return np.hypot(z.real, z.imag)


def _g_edges(aa: np.ndarray, bb: np.ndarray, n: np.ndarray, step: float) -> np.ndarray:
    # u_j solving _g_phase(u) = j·step, j = 0..n, for each row (aa, bb, n) of
    # the columns aa, bb, n: the smallest root of the three single-term
    # equations, a function of j alone, whatever n is.  A row with fewer
    # panels than the longest repeats its last edge: empty panels at its end.
    # A zero or tiny |a|, |b| gives an infinite root, which fmin passes over
    target = step * np.minimum(np.arange(n.max() + 1), n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.fmin(target, np.fmin(np.sqrt(target / bb), (target / aa) ** (1.0 / 6.0)))


def _g_panels(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # ∫ e^{−a_r u⁶ − b_r u²} du over each [lo, hi] of row r by one 12-point
    # rule, in place and in chunks of about _Y_CHUNK intervals, so the
    # temporaries stay bounded whatever the number of rows and nodes
    out = np.empty(lo.shape, dtype=np.complex128)
    rows = max(1, _Y_CHUNK // lo.shape[1])
    for r in range(0, lo.shape[0], rows):
        ar, br = a[r : r + rows, None, None], b[r : r + rows, None, None]
        for k in range(0, lo.shape[1], _Y_CHUNK):
            part = np.s_[r : r + rows, k : k + _Y_CHUNK]
            u, w = gl_rule(lo[part], hi[part])
            u *= u
            x = -ar * u
            x *= u
            x -= br
            x *= u
            np.exp(x, out=x)
            x *= w
            x.sum(axis=-1, out=out[part])
    return out


def _g_pass(a, b, aa, bb, s: np.ndarray, step: float) -> np.ndarray:
    # G at the nodes s, an array (rows, nodes per row), for each row (a, b)
    # of the 1-D a, b, with aa = |a|, bb = |b|: each row's panels between
    # the edges of _g_edges summed up to a node's panel by one cumulative
    # sum, plus its partial panel
    aa, bb = aa[:, None], bb[:, None]
    n = np.maximum(1, np.ceil(_g_phase(aa, bb, s.max(axis=1, keepdims=True)) / step).astype(int))
    edges = _g_edges(aa, bb, n, step)
    G_edges = np.zeros(edges.shape, dtype=np.complex128)
    np.cumsum(_g_panels(a, b, edges[:, :-1], edges[:, 1:]), axis=1, out=G_edges[:, 1:])
    # each node's panel j, its row's last edge at or below it: the nodes of
    # a shared row search its edges, and a row of one node counts them
    if edges.shape[0] == 1:
        j = np.searchsorted(edges[0], s, side="right") - 1
    else:
        j = np.count_nonzero(edges <= s, axis=1, keepdims=True) - 1
    j += edges.shape[1] * np.arange(edges.shape[0])[:, None]  # flat index
    lo = edges.ravel()[j]
    return G_edges.ravel()[j] + _g_panels(a, b, lo, s)


def _g_integral(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G(s) = ∫₀^s e^{−au⁶ − bu²} du at the nodes s ≥ 0 of a 1-D array,
    with the complex 1-D a, b holding one (a, b) for every node or one
    (a, b) per node.

    Panel edges lie at equal steps of max(u, |b|u², |a|u⁶), 1.5 to start,
    so they depend on (a, b) and the step only: a node's value does not
    depend on the other nodes of the call.  A shared (a, b) takes one row
    of panels for all its nodes; per-node (a, b) take a row each, padded
    at the end to the longest.  Each pass is checked against one with half
    the step; a node is accepted once the two agree to 1e-12 relative,
    plus a floor for the roundoff on the integrand peak
    e^{max(0,−Re a)s⁶ + max(0,−Re b)s²}, and only the open nodes take the
    next pass.
    """
    log_peak = np.maximum(0.0, -a.real) * s**6 + np.maximum(0.0, -b.real) * s * s
    out = np.empty(s.shape, dtype=np.complex128)
    if not out.size:
        return out
    aa, bb = _modulus(a), _modulus(b)
    phase = _g_phase(aa, bb, s.reshape(a.size, -1).max(axis=1))
    # compared so that a non-finite bound fails too
    if not (log_peak.max() <= 700.0 and phase.max() <= 0.5 * _Y_PHASE_STEP * _Y_MAX_PANELS):
        raise PrecisionLossError("Y integrand overflows or oscillates beyond the quadrature")
    floor = 1e-14 * s * np.exp(log_peak)
    idx = np.arange(s.size)

    def at_open(x):  # a per-node array at the open nodes; a shared one as it is
        return x if x.size == 1 else x[idx]

    step = _Y_PHASE_STEP
    prev = _g_pass(a, b, aa, bb, s.reshape(a.size, -1), step).ravel()
    while np.all(at_open(phase) <= 0.5 * step * _Y_MAX_PANELS):
        step *= 0.5
        rows = at_open(a).size
        cur = _g_pass(*map(at_open, (a, b, aa, bb)), s[idx].reshape(rows, -1), step).ravel()
        done = np.abs(cur - prev) <= 1e-12 * np.maximum(s[idx], np.abs(cur)) + floor[idx]
        out[idx[done]] = cur[done]
        idx, prev = idx[~done], cur[~done]
        if not idx.size:
            return out
    raise PrecisionLossError(
        f"Y quadrature did not reach 1e-12 at a={at_open(a)[0]}, b={at_open(b)[0]}, s={s[idx[0]]}"
    )


def y_integral(args: YArgs, method: str = "quadrature"):
    """Y = ∫₀¹ e^{−ξ₁z⁶ − ξ₂z²} dz by quadrature, the only rule.

    Takes scalar or array arguments and returns a complex or a complex
    array: every node (ξ₁, ξ₂) is a row of one G(1) pass with
    (a, b) = (ξ₁, ξ₂), on its own panel edges and with its own convergence
    test, so a node's value does not depend on the other nodes; the nodes
    take one pass per block of 256.  The closed forms do not call it; they
    take Y(t) = t^{−1/2}G(√t) for a whole time grid from one row.
    ``method`` accepts ``"quadrature"`` alone."""
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    xi1, xi2 = np.broadcast_arrays(
        _numbers(args.xi1, "xi1", numbers.Complex), _numbers(args.xi2, "xi2", numbers.Complex)
    )
    a, b = xi1.ravel(), xi2.ravel()
    Y = np.empty(a.shape, dtype=np.complex128)
    for k in range(0, a.size, _Y_ROWS):
        part = slice(k, k + _Y_ROWS)
        Y[part] = _g_integral(a[part], b[part], np.ones(a[part].size))
    Y = Y.reshape(xi1.shape)
    return complex(Y) if Y.ndim == 0 else Y


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
        np.array([ab.xi1]), np.array([ab.xi2]), np.sqrt(t)
    )
    additive = phi + np.exp(-1j * E * t / hbar) * prefY
    # replacing √B e^{−iEτ} → ψ(0,τ) inside the integral term divides the
    # closed prefactor by √B (invisible in B = 1 units)
    den = 1.0 - prefY / math.sqrt(B)
    singular = np.abs(den) < 1e-12  # an empty t gives empty forms
    if singular.any():
        i = int(np.argmax(singular))
        raise PrecisionLossError(f"multiplicative form singular at t={t[i]} (denominator {den[i]})")
    return additive, phi / den


def decay_closed_pair(params: PhysParams, t: float, ansatz: DecayAnsatz) -> tuple:
    """(additive, multiplicative) closed forms at one time t ≥ 0."""
    additive, multiplicative = _decay_pair(params, _numbers(t, "t").reshape(1), ansatz)
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
    t = _numbers(t, "t")
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
