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

from .params import PhysParams
from .specfun import _moshinsky

__all__ = ["bound_state", "volkov_phi"]


def bound_state(x, params: PhysParams):
    """Bound state ψ_b(x) = √B e^{−B|x|} of the unperturbed well."""
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(params.B) * np.exp(-params.B * np.abs(x))


def volkov_phi(x, t, params: PhysParams):
    """Homogeneous solution φ_F(x,t): the bound state evolved by the field
    propagator alone.  t = 0 returns ψ_b(x); t < 0 and non-finite x or t
    are errors."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError("volkov_phi requires t >= 0")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("volkov_phi: non-finite argument")
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


def _volkov_phi(x: np.ndarray, t, params: PhysParams) -> np.ndarray:
    # φ_F(x, t) at t > 0 for a float array x and a scalar t or a float
    # array of x's shape, unchecked: one Moshinsky call over ±(x − x_c).
    # t³ is taken on an array: numpy's array power can differ from the
    # scalar one in the last bit
    hbar, m, B, F = params.hbar, params.mass, params.B, params.field
    t = np.asarray(t, dtype=np.float64)
    p_c = F * t
    x_c = F * t * t / (2.0 * m)
    S_c = F * F * t**3 / (6.0 * m)
    T = hbar * t / m
    d = x - x_c
    M = _moshinsky(np.concatenate((d, x_c - x)), -1j * B, np.concatenate((T, T)) if T.ndim else T)
    return math.sqrt(B) * np.exp(1j * (x * p_c - S_c) / hbar) * (M[: d.size] + M[d.size :])
