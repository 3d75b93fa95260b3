"""Time evolution and ionization of a particle in a 1D delta well under a
suddenly switched uniform electrostatic field.

Core pieces: exact evolution of ψ(0,t) via a weakly singular Volterra
integral equation, closed-form weak-field approximations built on the
Moshinsky function and ₁F₁, decay-rate / level-shift extraction, and
numerical verification of the underlying Airy integral identities.
"""

from .params import PhysParams, derive_params, default_units

__all__ = ["PhysParams", "derive_params", "default_units"]

__version__ = "0.1.0"
