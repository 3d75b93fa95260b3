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
from .specfun import moshinsky

__all__ = ["bound_state", "volkov_phi"]


def bound_state(x, params: PhysParams):
    """Bound state ψ_b(x) = √B e^{−B|x|} of the unperturbed well."""
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(params.B) * np.exp(-params.B * np.abs(x))


def volkov_phi(x, t, params: PhysParams):
    """Homogeneous solution φ_F(x,t): the bound state evolved by the field
    propagator alone.  t = 0 returns ψ_b(x); t < 0 is an error."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
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
        hbar, m, B, F = params.hbar, params.mass, params.B, params.field
        xp, tp = x[pos], t[pos]
        p_c = F * tp
        x_c = F * tp * tp / (2.0 * m)
        S_c = F * F * tp**3 / (6.0 * m)
        T = hbar * tp / m
        out[pos] = (
            math.sqrt(B)
            * np.exp(1j * (xp * p_c - S_c) / hbar)
            * (moshinsky(xp - x_c, -1j * B, T) + moshinsky(x_c - xp, -1j * B, T))
        )
    return out[0] if scalar else out
