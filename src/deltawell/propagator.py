"""Bound state ψ_b and homogeneous (Volkov) solution φ_F.

With s = t − τ, the free and field propagators from the well,

    K₀(x,t|0,τ)  = √(m/(2πiℏs)) e^{imx²/(2ℏs)}
    K_F(x,t|0,τ) = K₀ · e^{(i/ℏ){F x s/2 − F² s³/(24m)}},

are the definitions the Volterra kernel is built on.  This module holds

    ψ_b(x)   = √B e^{−B|x|}
    φ_F(x,t) = √B e^{(i/ℏ)(x p_c − S_c)} {M(x−x_c; −iB; ℏt/m) + M(x_c−x; −iB; ℏt/m)},

with p_c = Ft, x_c = Ft²/(2m), S_c = F²t³/(6m) and M the Moshinsky function.
All square roots of i·(positive) are principal, √(2it) = √(2t)e^{iπ/4};
this pins every phase convention.  At F = 0, φ_F(0,t) is
√B e^{−iE_b t/ℏ} erfc(√(−iE_b t/ℏ)), the closed form the test suite checks
the conventions against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .params import PhysParams
from .specfun import _EXP_IPI4, _moshinsky, _numbers

__all__ = ["bound_state", "volkov_phi"]


def bound_state(x, params: PhysParams):
    """Bound state ψ_b(x) = √B e^{−B|x|} of the unperturbed well, for
    finite real x (a boolean or a string is a ValueError)."""
    x = _numbers(x, "x")
    return math.sqrt(params.B) * np.exp(-params.B * np.abs(x))


def volkov_phi(x, t, params: PhysParams):
    """Homogeneous solution φ_F(x,t): the bound state evolved by the field
    propagator alone.  t = 0 returns ψ_b(x); t < 0, non-finite x or t, and
    a boolean or non-real x or t are errors."""
    x, t = _numbers(x, "x"), _numbers(t, "t")
    if np.any(t < 0.0):
        raise ValueError("volkov_phi requires t >= 0")
    scalar = x.ndim == 0 and t.ndim == 0
    x, t = (np.atleast_1d(a) for a in np.broadcast_arrays(x, t))
    out = np.empty(x.shape, dtype=np.complex128)

    zero = t == 0.0
    if zero.any():
        out[zero] = bound_state(x[zero], params)
    pos = ~zero
    if pos.any():
        out[pos] = _volkov_phi(x[pos], t[pos], params)
    return out[0] if scalar else out


def _volkov_phi(x: np.ndarray, t, params: PhysParams):
    # φ_F(x, t) at t > 0, unchecked, for a float array x and a scalar t or a
    # float array of x's shape, by one Moshinsky call over ±(x − x_c)
    hbar, m, B, F = params.hbar, params.mass, params.B, params.field
    t = np.asarray(t, dtype=np.float64)
    p_c = F * t
    x_c = F * t * t / (2.0 * m)
    S_c = F * F * t**3 / (6.0 * m)
    T = hbar * t / m
    M = _moshinsky(np.concatenate((x - x_c, x_c - x)), -1j * B, np.concatenate((T, T)) if T.ndim else T)
    M = M[: x.size] + M[x.size :]
    return math.sqrt(B) * np.exp(1j * (x * p_c - S_c) / hbar) * M


class _VolkovAt:
    """φ_F(·, t) at t > 0 for one float x at a time, unchecked: the
    t-only constants are taken once, here, and each x runs the steps of
    `_volkov_phi` on numpy scalars, with an if for the Moshinsky
    reflection.  ±(x − x_c) share e^{i(x − x_c)²/(2T)}.  t³ is taken on an
    array, as `_volkov_phi` takes it: numpy's array power can differ from
    the scalar one in the last bit.  Far from the packet the exponentials
    overflow; the caller silences the warnings (np.errstate) and reports
    the non-finite value."""

    __slots__ = ("hbar", "p_c", "x_c", "S_c", "T", "k", "kT", "k2T", "rot", "sqrt_b")

    def __init__(self, t: float, params: PhysParams):
        hbar, m, B, F = params.hbar, params.mass, params.B, params.field
        t = np.asarray(t, dtype=np.float64)
        self.hbar = hbar
        self.p_c = F * t
        self.x_c = F * t * t / (2.0 * m)
        self.S_c = F * F * t**3 / (6.0 * m)
        self.T = T = hbar * t / m
        self.k = k = -1j * B
        self.kT, self.k2T = k * T, 0.5 * k * k * T
        self.rot = np.sqrt(2.0 * T) * _EXP_IPI4  # √(2iT)
        self.sqrt_b = math.sqrt(B)

    def __call__(self, x: float):
        d = x - self.x_c
        osc = 0.5 * np.exp(0.5j * d * d / self.T)
        M = 0.0
        for y in (d, -d):
            zeta = (y - self.kT) / self.rot
            if zeta.real >= 0.0:
                M += osc * special.erfcx(zeta)
            else:
                M += np.exp(1j * (self.k * y - self.k2T)) - osc * special.erfcx(-zeta)
        return self.sqrt_b * np.exp(1j * (x * self.p_c - self.S_c) / self.hbar) * M
