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
the ₁F₁ on the right.  Both sides are Gauss–Legendre sums, though, and
their integrands are one integration by parts apart: the right side's
₁F₁(1;13/6;ξ₁) is 7∫₀¹v⁶e^{ξ₁(1−v⁶)}dv, so the right side is
e^{−ξ₁} + 6ξ₁∫₀¹v⁶e^{−ξ₁v⁶}dv, the left side integrated by parts.  The
check therefore tests the paper's constants 6/7 and 13/6, not ₁F₁
itself, whose independent check is the mpmath grid of the test suite.
The third integral is not absolutely convergent
either; it is *defined* here as the ε → 0 limit of the
Gaussian-regularized integral (regulator e^{−εσ²}, ladder ε₀, ε₀/2,
ε₀/4, Richardson-extrapolated), and the report carries the ladder so a
divergent case is flagged rather than trusted; a non-finite rung raises
ConvergenceError.

Ai and Ai′ on every quadrature node and cell edge come from one table
per process: the 12-point Gauss–Legendre nodes of each cell of a fixed
0.15 lattice, from σ = 16.05 down to the lowest bottom the validated
ranges reach.  The Airy–Fourier check reads its direct part [c, 16.05],
its tail [lo, c] and Ai(c), Ai′(c) from the table, and the three ε rungs
read one slice [lo, 16.05].  Every node is a cell midpoint plus one of
12 fixed offsets, so an η costs one exp per cell and 12 for the offsets,
the phase product and (σ+η²)⁻⁸ on the tail's nodes, and two real
matrix–vector products against five η-free columns cached beside the
table; a χ costs erf(χ√σ) on its nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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


def _edges() -> np.ndarray:
    """The lattice's cell edges, top first: σ = 16.05 down to the
    Airy–Fourier tail's bottom at |η| = 5 (−480.6)."""
    return _ANCHOR - _CELL * np.arange(-_CELLS_ABOVE, _tail_cells(_ETA_MAX)[1] + 1)


def _read_only(*arrays):
    """The arrays, made read-only: every caller of a cache shares them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _airy_table():
    """Nodes σ, w·Ai(σ) and w·Ai′(σ) of the 12-point Gauss–Legendre rule on
    each lattice cell, and Ai, Ai′ at the cell edges, from one ``_airy_both``
    call.  The lattice ends below the ε-ladder's bottom at |χ| = 1 (−148.9).
    The cell k cells below σ = −30 (k < 0 above it) is at index
    12(k + 307)…12(k + 307) + 11, and its top edge at k + 307."""
    edges = _edges()
    sig, w = gl_rule(edges[1:], edges[:-1])
    sig, w = sig.ravel(), w.ravel()
    ai, aip = _airy_both(np.concatenate([sig, edges]))
    n = sig.size
    return _read_only(sig, w * ai[:n], w * aip[:n], ai[n:], aip[n:])


@functools.cache
def _fourier_columns():
    """The η-free factors of the Airy–Fourier sums.  Every node is a cell
    midpoint plus one of 12 offsets, so e^{iησ} = e^{iηm}·e^{iηδ}; the
    IBP remainder is (NP·w·Ai + NQ·w·Ai′)/(σ+η²)⁸ with NP of degree 2 and
    NQ of degree 1, a combination of the columns w·Ai, σw·Ai, σ²w·Ai,
    w·Ai′ and σw·Ai′.  Returns the midpoints m, the offsets δ, w·Ai as
    (cells, 12) and the five columns as (nodes, 5)."""
    sig, w_ai, w_aip = _airy_table()[:3]
    edges = _edges()
    cols = np.empty((sig.size, 5))
    cols[:, 0], cols[:, 3] = w_ai, w_aip
    np.multiply(sig, w_ai, out=cols[:, 1])
    np.multiply(sig, cols[:, 1], out=cols[:, 2])
    np.multiply(sig, w_aip, out=cols[:, 4])
    offsets = gl_rule(-0.5 * _CELL, 0.5 * _CELL)[0][0]
    return _read_only(0.5 * (edges[1:] + edges[:-1]), offsets, w_ai.reshape(-1, 12), cols)


def _lattice(k_hi: int, k_lo: int):
    """The table's σ, w·Ai and w·Ai′ on the cells k_hi…k_lo − 1 below
    σ = −30, i.e. on [−30 − 0.15·k_lo, −30 − 0.15·k_hi]."""
    sig, w_ai, w_aip = _airy_table()[:3]
    if 12 * (_CELLS_ABOVE + k_lo) > sig.size:  # never a shorter range
        raise ValueError(f"bottom {k_lo} cells below sigma=-30 is below the table")
    part = slice(12 * (_CELLS_ABOVE + k_hi), 12 * (_CELLS_ABOVE + k_lo))
    return sig[part], w_ai[part], w_aip[part]


# ---------------------------------------------------------------------------
# Airy-Fourier transform
# ---------------------------------------------------------------------------

_IBP_LEVELS = 4  # integration-by-parts passes before the direct remainder


def _horner(p, x):
    """p(x) for the coefficient list p, lowest degree first."""
    v = 0j
    for coef in reversed(p):
        v = v * x + coef
    return v


def _airy_fourier_tail(eta: float) -> tuple[float, complex]:
    """Cutoff c and ∫_{−∞}^{c} Ai(σ)e^{iησ} dσ, |η| ≤ 5, by repeated
    integration by parts: with q = (P − iηQ)/(σ+η²), p = Q − iηq,

        ∫ e^{iησ}(P·Ai + Q·Ai′) = [e^{iησ}(p·Ai + q·Ai′)] − ∫ e^{iησ}(p′·Ai + q′·Ai′),

    each pass making the integrand fall one power of σ faster; the final
    absolutely convergent remainder is integrated directly on [lo, c].
    The numerators are coefficient lists in σ of degree ≤ 3."""
    if not abs(eta) <= _ETA_MAX:
        raise ValueError("validated only for |eta| <= 5")
    k_c, k_lo = _tail_cells(eta)
    top, bottom = _CELLS_ABOVE + k_c, _CELLS_ABOVE + k_lo  # cell indices of c and lo
    c = _ANCHOR - _CELL * k_c
    eta2, ieta = eta * eta, 1j * eta
    sig, _, _, ai, aip = _airy_table()
    ai_c, aip_c = ai[top], aip[top]  # c is the top edge of cell `top`

    def times_den(p):  # p·(σ + η²)
        return [eta2 * p[j] + (p[j - 1] if j else 0) for j in range(4)]

    def next_numerator(p, k):  # p′·(σ + η²) − k·p
        dp = times_den([j * p[j] for j in range(1, 4)] + [0])
        return [d - k * v for d, v in zip(dp, p)]

    NP, NQ = [1, 0, 0, 0], [0, 0, 0, 0]  # over (σ+η²)^m
    total = 0.0 + 0.0j
    sign = 1.0
    eic = np.exp(1j * eta * c)
    for m in range(0, 2 * _IBP_LEVELS, 2):
        nq = [P - ieta * Q for P, Q in zip(NP, NQ)]  # / (σ+η²)^{m+1}
        np_ = [Qd - ieta * q for Qd, q in zip(times_den(NQ), nq)]
        total += sign * eic * (_horner(np_, c) * ai_c + _horner(nq, c) * aip_c) / (c + eta2) ** (m + 1)
        # next-level integrand numerators: (p', q') over (σ+η²)^{m+2}
        NP, NQ = next_numerator(np_, m + 1), next_numerator(nq, m + 1)
        sign = -sign

    mids, offsets, _, cols = _fourier_columns()
    nodes = slice(12 * top, 12 * bottom)
    # (σ + η²)⁸ = (σ + η²)^m by squarings: on these negative bases numpy's
    # ** takes a scalar pow() path, about 40× slower
    den = sig[nodes] + eta2
    for _ in range(3):
        den *= den
    # Re and Im of e^{iησ} = e^{iηm}·e^{iηδ} on the tail's nodes, shape
    # (2, nodes), as one real product of the cell and offset factors
    e_cell, e_off = np.exp(1j * eta * mids[top:bottom]), np.exp(1j * eta * offsets)
    rot = np.array([[e_cell.real, -e_cell.imag], [e_cell.imag, e_cell.real]]).transpose(0, 2, 1)
    phase = (rot @ np.array([e_off.real, e_off.imag])).reshape(2, -1)
    phase /= den
    re, im = phase @ cols[nodes]
    # NP's σ³ and NQ's σ², σ³ coefficients come out exactly zero
    total += sign * ((re + 1j * im) @ (NP[:3] + NQ[:2]))
    return c, complex(total)


def check_airy_fourier(eta: float) -> IdentityReport:
    """∫ dσ Ai(σ) e^{iησ} = e^{−iη³/3}, for |η| ≤ 5."""
    c, tail = _airy_fourier_tail(eta)
    top = _CELLS_ABOVE + _tail_cells(eta)[0]
    mids, offsets, w_ai, _ = _fourier_columns()
    lhs = np.exp(1j * eta * mids[:top]) @ (w_ai[:top] @ np.exp(1j * eta * offsets)) + tail
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
