"""Physical parameters and the scales derived from them.

Model: H = p²/2m − V₀δ(x) − xF·Θ(t) with V₀ > 0 and a constant field F ≥ 0
switched on at t = 0.  Derived quantities:

    B   = m V₀ / ℏ²            inverse width of the bound state √B e^{−B|x|}
    E_b = −ℏ²B²/(2m)           bound state energy
    f   = m F / (ℏ² B³)        field strength relative to the well

All figures of merit in this package use the preset ℏ = m = B = 1, in
which V₀ = 1, E_b = −1/2 and F = f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PhysParams", "derive_params", "default_units"]


@dataclass(frozen=True)
class PhysParams:
    """Problem constants plus the derived well/field scales."""

    hbar: float
    mass: float
    v0: float
    field: float
    B: float
    E_b: float
    f: float


def derive_params(hbar: float, mass: float, v0: float, field: float) -> PhysParams:
    """Validate inputs and compute B, E_b and f.

    Raises ValueError for a boolean or non-finite input, non-positive
    ℏ/m/V₀, a negative field (the field direction is fixed by convention),
    or inputs whose B, E_b or f overflow or underflow.
    """
    vals = dict(hbar=hbar, mass=mass, v0=v0, field=field)
    for name, v in vals.items():
        if isinstance(v, bool):
            raise ValueError(f"{name} must be a number, got {v!r}")
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if hbar <= 0 or mass <= 0 or v0 <= 0:
        raise ValueError(f"hbar, mass, v0 must be positive, got {hbar}, {mass}, {v0}")
    if field < 0:
        raise ValueError(f"field must be >= 0, got {field}")
    try:
        B = mass * v0 / hbar**2
        E_b = -(hbar**2) * B**2 / (2.0 * mass)
        f = mass * field / (hbar**2 * B**3)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"B, E_b or f leaves the floating-point range: {exc}") from exc
    if not (0.0 < B and -math.inf < E_b < 0.0 and math.isfinite(f)):
        raise ValueError(f"B, E_b or f leaves the floating-point range: {B}, {E_b}, {f}")
    return PhysParams(hbar=hbar, mass=mass, v0=v0, field=field, B=B, E_b=E_b, f=f)


def default_units(f: float = 0.0) -> PhysParams:
    """The ℏ = m = B = 1 preset; the field equals the relative strength f."""
    return derive_params(1.0, 1.0, 1.0, f)
