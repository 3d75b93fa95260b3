"""Physical parameters and field-induced kinematic scales.

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

__all__ = ["PhysParams", "FieldScales", "derive_params", "field_scales", "default_units"]


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


@dataclass(frozen=True)
class FieldScales:
    """Field-induced momentum/translation/action and the dimensionless
    time η = ½(F²/(ℏm))^{1/3}·t at elapsed time t."""

    p_c: float
    x_c: float
    S_c: float
    eta: float


def derive_params(hbar: float, mass: float, v0: float, field: float) -> PhysParams:
    """Validate inputs and compute B, E_b and f.

    Raises ValueError for non-finite inputs, non-positive ℏ/m/V₀, a
    negative field (the field direction is fixed by convention), or inputs
    whose B, E_b or f overflow or underflow.
    """
    vals = dict(hbar=hbar, mass=mass, v0=v0, field=field)
    for name, v in vals.items():
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


def field_scales(params: PhysParams, t: float) -> FieldScales:
    """p_c = F·t, x_c = F·t²/(2m), S_c = F²·t³/(6m) at elapsed time t ≥ 0."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    F = params.field
    return FieldScales(
        p_c=F * t,
        x_c=F * t * t / (2.0 * params.mass),
        S_c=F * F * t**3 / (6.0 * params.mass),
        eta=eta_time(params, t, 0.0),
    )


def eta_time(params: PhysParams, t: float, tau: float) -> float:
    """Dimensionless time ½ (F²/(ℏm))^{1/3} (t − τ) of the Airy spectral channel."""
    return 0.5 * (params.field**2 / (params.hbar * params.mass)) ** (1.0 / 3.0) * (t - tau)
