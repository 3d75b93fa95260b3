"""Post-processing of ψ(0,t) series: running decay rate and level shift,
the probability-density proxy, plateau estimation and the mixing-constant
fit.

Writing ψ(0,t) = √B e^{−i𝒜(t)/ℏ} with 𝒜(t) = (E_b + Δ(t) − iΓ(t)/2)·t
defines the running curves

    𝒜(t) = iℏ Log(ψ(0,t)/√B),   Δ(t) = Re𝒜/t − E_b,   Γ(t) = −2 Im𝒜/t,

with the phase continuously unwrapped (nearest branch per step; the grid
must keep the true phase advance below π per step).  The switch-on
transient shifts the running curves by O(1/t), so the plateau estimator
fits Γ(t) = Γ̄ + a/t over a trailing window and reports the intercept;
the window is clipped where |ψ| falls under an amplitude floor, below
which the extraction is noise, and a window where ψ/√B has not moved
clear of 1 is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import DecayAnsatz, _decay_pair
from .volterra import ComplexSeries, TimeGrid

__all__ = [
    "RateShiftSeries",
    "extract_rate_shift",
    "plateau",
    "density_proxy",
    "FitResult",
    "fit_c",
]

_LOG_FLOOR = 1e-12  # |ln(ψ/√B)| on the plateau window below which no plateau is fitted
_AMP_FLOOR = 2.5e-3  # |ψ/√B| below which a node is past the end of the plateau window


@dataclass
class RateShiftSeries:
    """Γ(t), Δ(t) per node (NaN at the excluded t = 0 node), plus the
    unwrapped phase and log-amplitude they were derived from."""

    grid: TimeGrid
    gamma: np.ndarray
    delta: np.ndarray
    phase_unwrapped: np.ndarray
    log_amp: np.ndarray  # ln|ψ/√B|


def extract_rate_shift(series: ComplexSeries) -> RateShiftSeries:
    """Running decay rate and level shift of a ψ(0,t) series.

    Preconditions enforced: the series starts at √B (within 1e−9), stays
    above 1e−12 in magnitude, and advances its phase by less than π per
    step (else the grid is too coarse to unwrap)."""
    params = series.params
    sqB = math.sqrt(params.B)
    vals = series.values
    if abs(vals[0] - sqB) > 1e-9 * sqB:
        raise ValueError("series must start at sqrt(B)")
    mag = np.abs(vals)
    if np.any(mag < 1e-12):
        i = int(np.argmax(mag < 1e-12))
        raise ValueError(f"|psi| below 1e-12 at node {i}; log undefined")
    raw_phase = np.angle(vals / sqB)
    jumps = np.abs(np.diff(raw_phase))
    jumps = np.minimum(jumps, 2.0 * math.pi - jumps)  # wrapped step size
    # an advance beyond π aliases into [0, π], so the detectable symptom
    # of a too-coarse grid is a wrapped step crowding π
    if np.any(jumps >= 0.99 * math.pi):
        i = int(np.argmax(jumps >= 0.99 * math.pi))
        raise ValueError(f"phase advance ~pi between nodes {i} and {i + 1}; grid too coarse")
    phase = np.unwrap(raw_phase)
    log_amp = np.log(mag / sqB)

    t = series.grid.nodes
    hbar, E_b = params.hbar, params.E_b
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(t > 0, -2.0 * hbar * log_amp / t, math.nan)
        delta = np.where(t > 0, -hbar * phase / t - E_b, math.nan)
    return RateShiftSeries(
        grid=series.grid, gamma=gamma, delta=delta,
        phase_unwrapped=phase, log_amp=log_amp,
    )


def plateau(rss: RateShiftSeries) -> tuple:
    """Single-number plateau (Γ̄, Δ̄) from the running curves.

    Fits Γ(t) = Γ̄ + a/t (and likewise Δ) over the window [t_hi/3, t_hi],
    where t_hi is the last node with |ψ/√B| ≥ _AMP_FLOOR, and reports the
    1/t → 0 intercept.  It raises ValueError when ψ/√B stays within 1e-12
    of 1 over the window (a grid far too short for the 1/t model) or when
    the fit overflows."""
    t = rss.grid.nodes
    alive = np.exp(rss.log_amp) >= _AMP_FLOOR
    i_hi = int(np.nonzero(alive)[0][-1])
    if i_hi < 8:
        raise ValueError("series dies before a plateau window can be formed")
    t_hi = t[i_hi]
    sel = (t >= t_hi / 3.0) & (t <= t_hi)
    sel[0] = False
    # Γ and Δ are ln|ψ/√B| and the phase divided by t.  While ψ/√B stays
    # within 1e-12 of 1 over the window, t_hi is below about 1e-12 ℏ/|E_b|:
    # the curves are rounding noise or the early t^{−1/2} transient, and an
    # intercept of the 1/t model fitted to them is meaningless
    if np.hypot(rss.log_amp[sel], rss.phase_unwrapped[sel]).max() <= _LOG_FLOOR:
        raise ValueError(f"psi/sqrt(B) stays within {_LOG_FLOOR:g} of 1 up to t_hi = {t_hi:g}")
    inv_t = 1.0 / t[sel]
    # polyfit scales its design by √Σ(1/t)², which overflows on a grid of
    # tiny times and then returns a finite but meaningless intercept
    try:
        with np.errstate(over="raise"):
            gam = float(np.polyfit(inv_t, rss.gamma[sel], 1)[1])
            del_ = float(np.polyfit(inv_t, rss.delta[sel], 1)[1])
    except FloatingPointError as exc:
        raise ValueError(f"the 1/t plateau fit overflows on this grid (t_hi = {t_hi:g})") from exc
    return gam, del_


def density_proxy(series: ComplexSeries) -> np.ndarray:
    """Ionization proxy 1 − |ψ(0,t)|²/B (0 at t = 0, → 1 at full depletion)."""
    return 1.0 - np.abs(series.values) ** 2 / series.params.B


@dataclass(frozen=True)
class FitResult:
    c: float
    multimodal: bool = False
    undetermined: bool = False


def fit_c(exact: ComplexSeries, ansatz_base: DecayAnsatz) -> FitResult:
    """Fit the mixing weight: c = argmin Σ_i (|combined(t_i;c)|² − |exact(t_i)|²)².

    The additive and multiplicative series are precomputed once, so the
    objective is cheap; minimized by golden-section to |Δc| ≤ 1e−3 after a
    coarse unimodality scan.  A scan whose spread is within rounding of
    the objective returns the best scanned c with the undetermined flag
    set, a non-unimodal scan the same with the multimodal flag set."""
    add, mul = _decay_pair(exact.params, exact.grid.nodes, ansatz_base)
    target = np.abs(exact.values) ** 2

    def residual(c: float) -> np.ndarray:
        return np.abs(c * add + (1.0 - c) * mul) ** 2 - target

    def objective(c: float) -> float:
        return float(np.sum(residual(c) ** 2))

    cs = np.linspace(0.0, 1.0, 21)
    obj = np.array([objective(c) for c in cs])
    i_best = int(np.argmin(obj))
    # a residual r is off by a few ulps of |combined|² + |exact|² = r + 2·target,
    # which moves the objective by about eps·Σ|r|(r + 2·target).  Where both
    # forms agree to rounding (f = 0) the scan's spread measured 1.1–8.6
    # times that, and 1.7e4 times or more at f ≥ 1e-6
    r = residual(cs[i_best])
    if np.ptp(obj) <= 64.0 * np.finfo(float).eps * np.sum(np.abs(r) * (r + 2.0 * target)):
        return FitResult(c=float(cs[i_best]), undetermined=True)
    interior_minima = [
        i for i in range(1, len(cs) - 1) if obj[i] <= obj[i - 1] and obj[i] <= obj[i + 1]
    ]
    if len(interior_minima) > 1:
        return FitResult(c=float(cs[i_best]), multimodal=True)

    lo = cs[max(i_best - 1, 0)]
    hi = cs[min(i_best + 1, len(cs) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > 1e-3:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
    return FitResult(c=float(0.5 * (a + b)))
