"""Numerical verification of the Airy-related integral identities.

Checked identities:

    ∫ dσ Ai(σ) e^{iησ}                     = e^{−iη³/3}
    ∫₀¹ dz e^{−ξ₁z⁶}                       = e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1}
    ∫ dσ/√σ · Ai(σ) erf(χ√σ)               = (2χ/√π)·e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1},  ξ₁ = χ⁶/3

The first integral converges only conditionally on the oscillatory side;
its tail ∫_{−∞}^c is reduced with repeated integration by parts built on
Ai″ = σAi (every pass trades one power of (σ+η²) for a derivative), after
which the remainder is absolutely convergent and integrated directly.
The second integral is Y(t) of the closed forms at ξ₂ = 0, so its left
side is ``approx.y_integral``, the Y quadrature, which does not evaluate
the ₁F₁ on the right.  The third integral is not absolutely convergent either; it is *defined*
here as the ε → 0 limit of the Gaussian-regularized integral (regulator
e^{−εσ²}, ladder ε₀, ε₀/2, ε₀/4, Richardson-extrapolated), and the report
carries the ladder so a divergent case is flagged rather than trusted;
a non-finite rung raises ConvergenceError.

Ai and Ai′ on every quadrature node come from one table per process:
the 12-point Gauss–Legendre nodes of each cell of a fixed 0.15 lattice,
from σ = 16.05 down to the lowest bottom the validated ranges reach.  The
Airy–Fourier check reads its direct part [c, 16.05] and its tail [lo, c]
from the table, and the three ε rungs read one slice [lo, 16.05], so per
point only e^{iησ}, erf(χ√σ) and the integration-by-parts algebra are
evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .approx import YArgs, y_integral
from .errors import ConvergenceError
from .specfun import _airy_both, cerfc, gl_rule, hyp1f1_one

__all__ = [
    "IdentityReport",
    "check_airy_fourier",
    "check_z6_identity",
    "check_airy_erf_identity",
    "z6_closed_form",
]

@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    regularization: str = ""
    flags: tuple = ()

    @classmethod
    def build(cls, name, lhs, rhs, regularization="", flags=()):
        lhs, rhs = complex(lhs), complex(rhs)
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0 else abs_err
        return cls(name, lhs, rhs, abs_err, rel_err, regularization, tuple(flags))


# ---------------------------------------------------------------------------
# Airy values on one lattice
# ---------------------------------------------------------------------------

_ETA_MAX = 5.0  # validated range |η| ≤ 5
_XI1_MAX = 50.0  # validated range |ξ₁| ≤ 50 of the z⁶ closed form's ₁F₁
_CHI_MAX = 1.0  # validated range |χ| ≤ 1 of the erf–Airy ladder
_ERF_EPS = 0.05  # first rung ε₀ of the regulator ladder ε₀, ε₀/2, ε₀/4
_ANCHOR = -30.0  # lattice anchor: the cutoff c = −(2η² + 30) at η = 0
_CELL = 0.15  # lattice spacing
_CELLS_ABOVE = 307  # cells above the anchor: the lattice starts at σ = 16.05, Ai ~ 3e-18


def _tail_cells(eta: float) -> tuple[int, int]:
    """Lattice cells below σ = −30 down to the cutoff c and to the tail's
    bottom lo = min(−240, 6c); c = −(2η² + 30) rounded down stays
    stationary-phase-safe, and 6c is then on the lattice too."""
    k_c = math.ceil(2.0 * eta * eta / _CELL)
    c = _ANCHOR - _CELL * k_c
    k_lo = round((_ANCHOR - min(-240.0, 6.0 * c)) / _CELL)
    return k_c, k_lo


def _ladder_cells(chi: complex) -> int:
    """Lattice cells below σ = −30 down to the ε-ladder's bottom
    lo = −(1.2|χ|²/ε + √(35/ε)) at its smallest ε, rounded down.  On σ < 0,
    erf(χ√σ)/√σ grows at most like e^{|χ|²|σ|}; beyond lo,
    εσ² − |χ|²|σ| ≥ 35, so the regularized integrand is below e^{−35}."""
    eps = _ERF_EPS / 4.0
    lo = -(1.2 * abs(chi) ** 2 / eps + math.sqrt(35.0 / eps))
    return math.ceil((_ANCHOR - lo) / _CELL)


@functools.cache
def _airy_table():
    """Nodes σ, w·Ai(σ) and w·Ai′(σ) of the 12-point Gauss–Legendre rule on
    each lattice cell from σ = 16.05 down to the Airy–Fourier tail's bottom
    at |η| = 5 (−480.6), below the ε-ladder's at |χ| = 1 (−148.9).  The cell
    k cells below σ = −30 (k < 0 above it) is at index
    12(k + 307)…12(k + 307) + 11."""
    cells = _tail_cells(_ETA_MAX)[1]
    edges = _ANCHOR - _CELL * np.arange(-_CELLS_ABOVE, cells + 1)
    sig, w = gl_rule(edges[1:], edges[:-1])
    sig, w = sig.ravel(), w.ravel()
    ai, aip = _airy_both(sig)
    return sig, w * ai, w * aip


def _lattice(k_hi: int, k_lo: int):
    """The table's σ, w·Ai and w·Ai′ on the cells k_hi…k_lo − 1 below
    σ = −30, i.e. on [−30 − 0.15·k_lo, −30 − 0.15·k_hi]."""
    sig, w_ai, w_aip = _airy_table()
    if 12 * (_CELLS_ABOVE + k_lo) > sig.size:  # never a shorter range
        raise ValueError(f"bottom {k_lo} cells below sigma=-30 is below the table")
    part = slice(12 * (_CELLS_ABOVE + k_hi), 12 * (_CELLS_ABOVE + k_lo))
    return sig[part], w_ai[part], w_aip[part]


# ---------------------------------------------------------------------------
# Airy-Fourier transform
# ---------------------------------------------------------------------------

_IBP_LEVELS = 4  # integration-by-parts passes before the direct remainder


def _airy_fourier_tail(eta: float) -> tuple[float, complex]:
    """Cutoff c and ∫_{−∞}^{c} Ai(σ)e^{iησ} dσ, |η| ≤ 5, by repeated
    integration by parts: with q = (P − iηQ)/(σ+η²), p = Q − iηq,

        ∫ e^{iησ}(P·Ai + Q·Ai′) = [e^{iησ}(p·Ai + q·Ai′)] − ∫ e^{iησ}(p′·Ai + q′·Ai′),

    each pass making the integrand fall one power of σ faster; the final
    absolutely convergent remainder is integrated directly on [lo, c]."""
    if not abs(eta) <= _ETA_MAX:
        raise ValueError("validated only for |eta| <= 5")
    k_c, k_lo = _tail_cells(eta)
    c = _ANCHOR - _CELL * k_c
    eta2 = eta * eta
    den = np.array([eta2, 1.0], dtype=np.complex128)  # (σ + η²)
    NP = np.array([1.0], dtype=np.complex128)
    NQ = np.array([0.0], dtype=np.complex128)
    m = 0
    total = 0.0 + 0.0j
    sign = 1.0
    ai_c, aip_c = _airy_both(c)
    eic = np.exp(1j * eta * c)
    for _ in range(_IBP_LEVELS):
        nq = npoly.polysub(NP, 1j * eta * NQ)          # / (σ+η²)^{m+1}
        np_ = npoly.polysub(npoly.polymul(NQ, den), 1j * eta * nq)
        denc = (c + eta2) ** (m + 1)
        total += sign * eic * (
            npoly.polyval(c, np_) * ai_c + npoly.polyval(c, nq) * aip_c
        ) / denc
        # next-level integrand coefficients: (p', q') over (σ+η²)^{m+2}
        NP = npoly.polysub(npoly.polymul(npoly.polyder(np_), den), (m + 1) * np_)
        NQ = npoly.polysub(npoly.polymul(npoly.polyder(nq), den), (m + 1) * nq)
        m += 2
        sign = -sign

    sig, w_ai, w_aip = _lattice(k_c, k_lo)
    # (σ + η²)^m as m products: on these negative bases numpy's ** takes a
    # scalar pow() path, about 40× slower
    denv = np.ones_like(sig)
    for _ in range(m):
        denv *= sig + eta2
    vals = (
        np.exp(1j * eta * sig)
        * (npoly.polyval(sig, NP) * w_ai + npoly.polyval(sig, NQ) * w_aip)
        / denv
    )
    total += sign * np.sum(vals)
    return c, complex(total)


def check_airy_fourier(eta: float) -> IdentityReport:
    """∫ dσ Ai(σ) e^{iησ} = e^{−iη³/3}, for |η| ≤ 5."""
    c, tail = _airy_fourier_tail(eta)
    sig, w_ai, _ = _lattice(-_CELLS_ABOVE, _tail_cells(eta)[0])
    lhs = np.sum(w_ai * np.exp(1j * eta * sig)) + tail
    rhs = np.exp(-1j * eta**3 / 3.0)
    return IdentityReport.build(
        "airy_fourier", lhs, rhs, regularization=f"cutoff sigma={c:g}, IBP tail"
    )


# ---------------------------------------------------------------------------
# z^6 identity
# ---------------------------------------------------------------------------

def z6_closed_form(xi1: complex) -> complex:
    """Right-hand side e^{−ξ₁}{(6ξ₁/7)·₁F₁(1;13/6;ξ₁) + 1}."""
    xi1 = complex(xi1)
    return complex(np.exp(-xi1) * ((6.0 * xi1 / 7.0) * hyp1f1_one(13.0 / 6.0, xi1) + 1.0))


def check_z6_identity(xi1: complex) -> IdentityReport:
    """∫₀¹ e^{−ξ₁z⁶} dz, by the Y(t) quadrature at ξ₂ = 0, against its ₁F₁
    closed form, |ξ₁| ≤ 50."""
    xi1 = complex(xi1)
    if not abs(xi1) <= _XI1_MAX:
        raise ValueError("validated only for |xi1| <= 50")
    return IdentityReport.build("z6", y_integral(YArgs(xi1, 0j)), z6_closed_form(xi1))


# ---------------------------------------------------------------------------
# erf-Airy identity (Gaussian-regularized)
# ---------------------------------------------------------------------------

def _erf_airy_ladder(chi: complex) -> np.ndarray:
    """The regularized integrals ∫ dσ/√σ Ai(σ) erf(χ√σ) e^{−εσ²} at
    ε = ε₀, ε₀/2, ε₀/4, all on the table's cells from 16.05 down to the
    bottom of the smallest ε."""
    eps = _ERF_EPS / 2.0 ** np.arange(3)
    sig, w_ai, _ = _lattice(-_CELLS_ABOVE, _ladder_cells(chi))
    # erf(χ√σ)/√σ with √σ = i√|σ| on σ < 0 (principal branch); the ratio
    # is continuous through σ = 0 with value (2/√π)χ
    root = np.where(sig >= 0, np.sqrt(np.abs(sig)) + 0j, 1j * np.sqrt(np.abs(sig)))
    z = chi * root
    small = np.abs(z) < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(small, (2.0 / math.sqrt(math.pi)) * chi, (1.0 - cerfc(z)) / root)
        rungs = np.exp(-np.multiply.outer(eps, sig * sig)) @ (w_ai * ratio)
    if not np.all(np.isfinite(rungs)):
        raise ConvergenceError(f"erf-Airy ladder has a non-finite rung at chi={chi}")
    return rungs


def check_airy_erf_identity(chi: complex) -> IdentityReport:
    """∫ dσ/√σ Ai(σ) erf(χ√σ) = (2χ/√π)e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁)+1},
    defined through the ε → 0 limit of the Gaussian-regularized integral,
    for |χ| ≤ 1.  Over 96 phases of χ the worst unflagged relative error is
    3.8e-4 at |χ| = 1, 7.9e-4 at 1.1 and 0.11 at 1.2, past the ladder's 1e-3
    tolerance, so larger |χ| is refused."""
    chi = complex(chi)
    if not abs(chi) <= _CHI_MAX:
        raise ValueError("validated only for |chi| <= 1")
    xi1 = chi**6 / 3.0
    if chi == 0:
        return IdentityReport.build("airy_erf", 0.0, 0.0, regularization="chi=0")

    ladder = [complex(v) for v in _erf_airy_ladder(chi)]
    i1, i2, i3 = ladder
    extrapolated = (8.0 * i3 - 6.0 * i2 + i1) / 3.0
    flags = []
    scale = max(abs(i3), 1e-12)
    # growing rungs above the meaningful (1e-3·scale) level: inconclusive
    if abs(i3 - i2) > 1.5 * abs(i2 - i1) and abs(i3 - i2) > 1e-3 * scale:
        flags.append("ladder_divergent")

    rhs = (2.0 * chi / math.sqrt(math.pi)) * z6_closed_form(xi1)
    reg = f"eps ladder {_ERF_EPS:g}/{_ERF_EPS / 2:g}/{_ERF_EPS / 4:g}: " + ", ".join(
        f"{v:.6g}" for v in ladder
    )
    return IdentityReport.build("airy_erf", extrapolated, rhs, regularization=reg, flags=flags)
