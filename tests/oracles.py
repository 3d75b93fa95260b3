"""Field-free closed forms that the tests check the library against, and
the x-domain of the overlap oracles.

They share no code with ``deltawell``: φ₀ takes erfc from scipy, where
``volkov_phi`` builds on the Moshinsky function of ``deltawell.specfun``.
None validates its inputs.
"""

import math

import numpy as np
from scipy.special import erfc


def free_kernel(x, t, tau, params):
    """Field-free propagator K₀(x,t|0,τ) = √(m/(2πiℏs)) e^{imx²/(2ℏs)}, s = t − τ > 0."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(t, dtype=np.float64) - np.asarray(tau, dtype=np.float64)
    hbar, m = params.hbar, params.mass
    root = np.sqrt(m / (2.0 * math.pi * hbar * s)) * np.exp(-0.25j * math.pi)
    return root * np.exp(0.5j * m * x * x / (hbar * s))


def phi0_field_free(t, params):
    """Field-free homogeneous solution at the origin,
    φ₀(0,t) = √B e^{−iE_b t/ℏ} erfc(√(−iE_b t/ℏ)), t ≥ 0."""
    t = np.asarray(t, dtype=np.float64)
    hbar, B, E_b = params.hbar, params.B, params.E_b
    # −iE_b t/ℏ = i|E_b|t/ℏ, principal root is on the e^{iπ/4} ray
    arg = np.sqrt(np.abs(E_b) * t / hbar) * np.exp(0.25j * math.pi)
    return math.sqrt(B) * np.exp(-1j * E_b * t / hbar) * erfc(arg)


def overlap_domain_halfwidth(params, t):
    """Spatial truncation |x| ≤ x_c(t) + 40/B + 10√(ℏt/m) of an x-integral
    against ψ_b: the ψ_b factor bounds the tail by e^{−40} and the
    ballistic spread is covered."""
    x_c = params.field * t * t / (2.0 * params.mass)
    return x_c + 40.0 / params.B + 10.0 * math.sqrt(params.hbar * t / params.mass)
