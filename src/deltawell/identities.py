"""Numerical verification of the Airy-related integral identities.

Checked identities:

    ∫ dσ Ai(σ) e^{iησ}                     = e^{−iη³/3}
    ∫₀¹ dz e^{−ξ₁z⁶}                       = e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1}
    ∫ dσ/√σ · Ai(σ) erf(χ√σ)               = (2χ/√π)·e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1},  ξ₁ = χ⁶/3

The first integral converges only conditionally on the oscillatory side.
Past a cutoff c = −(2η² + 30), beyond the stationary point σ = −η², Ai
splits into its two waves e^{∓iπ/3}Ai(−σe^{∓iπ/3}) (DLMF 9.2.11), and
each wave's tail ∫_{−∞}^c turns about c onto a ray into the half plane
where it decays like e^{−τ}.
The second integral is Y(t) of the closed forms at ξ₂ = 0, so its left
side is ``approx.y_integral``, the Y quadrature, which does not evaluate
the ₁F₁ on the right.  Both sides are Gauss–Legendre sums, though, and
their integrands are one integration by parts apart: the right side's
₁F₁(1;13/6;ξ₁) is 7∫₀¹v⁶e^{ξ₁(1−v⁶)}dv, so the right side is
e^{−ξ₁} + 6ξ₁∫₀¹v⁶e^{−ξ₁v⁶}dv, the left side integrated by parts.  The
check therefore tests the paper's constants 6/7 and 13/6, not ₁F₁
itself, whose independent check is the mpmath grid of the test suite.
The third integral converges on σ < 0 only where Re χ² < 0, and only
conditionally; the identity holds for the analytic continuation of its
left side in χ.  With erf(χ√σ)/√σ = (2χ/√π)F(−χ²σ), F(w) = ∫₀¹e^{wv²}dv,
DLMF 9.2.11 rotates the σ < 0 half onto the rays arg σ = ±π/3 and back
onto [0, ∞), where Ai decays like e^{−(2/3)r^{3/2}}:

    ∫ dσ/√σ · Ai(σ) erf(χ√σ) = (2χ/√π) ∫₀^∞ Ai(r) Σ_ζ F(ζχ²r) dr,   ζ³ = −1,

which converges absolutely and is entire in χ, so it is the continuation.
Term by term, the moments 3∫₀^∞ r^{3k}Ai(r)dr = (3k)!/(3^k k!) (DLMF
9.10.17) give (2χ/√π)Σ_k (−ξ₁)^k/(k!(6k+1)), the right side's series.
The check evaluates F(ζχ²r) = (√π/2)erf(s)/s, s = αχ√r with α² the cube
roots of unity, by scipy's ``erf`` on r ≥ 0, and the right side by the
library's ₁F₁: the two sides share no code.

Ai comes from two tables per process, each built on first use by one
``_airy_both`` call on the 12-point Gauss–Legendre nodes of fixed cells.
The Airy–Fourier table is the lattice of the direct part: cells of 0.15
from σ = 16.05 down to the cutoff at |η| = 5 (−80.1), 7 692 nodes, held
as the cell midpoints, the 12 node offsets and w·Ai per cell (0.07 MB).
An η takes 48 nodes of each wave's asymptotic series on the rays of its
tail, then one pass over the 3 684–7 692 nodes above c: one exp per cell
and 12 for the offsets, and one real product of w·Ai against the
offsets' row.  The erf–Airy table holds α√r and w·Ai(r) on the 120
nodes of 10 cells of length 2 on [0, 20].  At |χ| ≤ 1 the integrand
grows at most like e^{r}, and (2/3)·20^{3/2} − 20 is 39.6, so the rest
of the integral is below e^{−39}; a χ costs erf on 3 × 120 points.

Each check takes a scalar, which gives one report, or a 1-D grid, which
gives a tuple of reports, one per point; a scalar is a grid of one, and
a point's report does not depend on the rest of its grid.  A grid is
checked against the validated range before any point is computed: the
first point outside it raises GridPointError, a ValueError that carries
its index.  The z⁶ grid takes its Y values in one quadrature pass and its
₁F₁ values in one call; the Airy–Fourier grid takes its tails, and the
erf–Airy grid its left sides, in blocks of 256 points, each point a row
reduced by itself, and the Airy–Fourier direct parts one by one, as each
is a pass over thousands of nodes of its own.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .approx import YArgs, y_integral
from .specfun import _airy_both, _airy_wave, _check_numbers, gl_panels, gl_rule, hyp1f1_one

__all__ = [
    "GridPointError",
    "IdentityReport",
    "check_airy_fourier",
    "check_z6_identity",
    "check_airy_erf_identity",
]

@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    flags: tuple = ()

    @classmethod
    def build(cls, name, lhs, rhs):
        lhs, rhs = complex(lhs), complex(rhs)
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0 else abs_err
        return cls(name, lhs, rhs, abs_err, rel_err)


class GridPointError(ValueError):
    """A grid point outside an identity's validated range; ``index`` is its
    position in the grid."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _grid(points, dtype) -> tuple[np.ndarray, bool]:
    """The points as a 1-D array, and whether they came as a scalar.  A
    boolean or non-numeric point, and a complex one in a real grid, is a
    ValueError: numpy would take True as 1, parse a numeric string and drop
    an imaginary part with only a warning."""
    _check_numbers(points, "grid points", numbers.Real if dtype is np.float64 else numbers.Complex)
    x = np.asarray(points, dtype=dtype)
    if x.ndim > 1:
        raise ValueError(f"takes a scalar or a 1-D grid, got shape {x.shape}")
    return np.atleast_1d(x), x.ndim == 0


def _check_range(grid: np.ndarray, limit: float, name: str) -> None:
    """GridPointError for the first point of the grid outside |·| ≤ limit,
    a NaN point included.  |·| is taken by hypot, rounded as abs() rounds a
    Python complex: numpy's complex abs puts 6 of the 96 points e^{2πik/96}
    one ulp above 1."""
    bad = ~(np.hypot(grid.real, grid.imag) <= limit)
    if bad.any():
        raise GridPointError(int(np.argmax(bad)), f"validated only for |{name}| <= {limit:g}")


def _one_or_all(results: list, scalar: bool):
    return results[0] if scalar else tuple(results)


# ---------------------------------------------------------------------------
# Airy values on two tables
# ---------------------------------------------------------------------------

_ETA_MAX = 5.0  # validated range |η| ≤ 5
_XI1_MAX = 50.0  # validated range |ξ₁| ≤ 50 of the z⁶ closed form's ₁F₁
_CHI_MAX = 1.0  # validated range |χ| ≤ 1 of the erf–Airy check
_ERF_CELLS = 10  # cells of length 2 of the erf–Airy table, on [0, 20]
_BLOCK = 256  # points per block of the erf–Airy sums and the Airy–Fourier tails
_ANCHOR = -30.0  # lattice anchor: the cutoff c = −(2η² + 30) at η = 0
_CELL = 0.15  # Airy–Fourier lattice spacing
_CELLS_ABOVE = 307  # its cells above the anchor: it starts at σ = 16.05, Ai ~ 3e-18
_TAU_MAX = 40.0  # end of the tail's rays, where the integrand has fallen by e^{−40}


def _cutoff_cells(eta):
    """Airy–Fourier lattice cells below σ = −30 down to the cutoff
    c = −30 − 0.15k, for η or each η of an array: c = −(2η² + 30) rounded
    down to the lattice lies past the stationary point σ = −η² by at least
    η² + 30."""
    return np.ceil(2.0 * eta * eta / _CELL).astype(np.int64)


def _read_only(*arrays):
    """The arrays, made read-only: every caller of a cache shares them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def _airy_table():
    """The Airy–Fourier lattice, from one ``_airy_both`` call: cells of 0.15
    from σ = 16.05 down to the cutoff at |η| = 5 (−80.1), the cell k cells
    below σ = −30 (k < 0 above it) at index k + 307.  Each cell holds the
    12-point Gauss–Legendre nodes σ = m + δ, its midpoint m plus one of 12
    offsets δ, so e^{iησ} = e^{iηm}·e^{iηδ}.  Returns the midpoints m, the
    offsets δ and w·Ai as (cells, 12)."""
    edges = _ANCHOR - _CELL * np.arange(-_CELLS_ABOVE, _cutoff_cells(_ETA_MAX) + 1)
    sig, w = gl_rule(edges[1:], edges[:-1])
    offsets = gl_rule(-0.5 * _CELL, 0.5 * _CELL)[0][0]
    mids = 0.5 * (edges[1:] + edges[:-1])
    return _read_only(mids, offsets, w * _airy_both(sig.ravel())[0].reshape(sig.shape))


@functools.cache
def _erf_airy_table():
    """α√r for α = 1, e^{∓iπ/3}, as (3, nodes), and w·Ai(r), on the 12-point
    Gauss–Legendre nodes r of 10 cells of length 2 on [0, 20], from one
    ``_airy_both`` call."""
    edges = 2.0 * np.arange(_ERF_CELLS + 1)
    r, w = gl_rule(edges[:-1], edges[1:])
    r, w = r.ravel(), w.ravel()
    alpha = np.exp((1j * math.pi / 3.0) * np.array([0.0, -1.0, 1.0]))
    return _read_only(np.multiply.outer(alpha, np.sqrt(r)), w * _airy_both(r)[0])


# ---------------------------------------------------------------------------
# Airy-Fourier transform
# ---------------------------------------------------------------------------

def _airy_fourier_sums(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cutoffs c, tails ∫_{−∞}^{c} Ai(σ)e^{iησ} dσ and left sides
    ∫ Ai(σ)e^{iησ} dσ for each η of the 1-D array, |η| ≤ 5.  With u = −σ
    the tail is the sum over the two waves of Ai(−u) = W₊(u) + W₋(u)
    (``specfun._airy_wave``) of ∫_{|c|}^∞ W±(u)e^{−iηu} du, whose phase
    ±ζ − ηu advances at the rate ±κ, κ = √u ∓ η ≥ 3.8 past the cutoff.
    Each wave's tail turns about u = |c| onto the ray u = |c| ± iτ/κ, κ
    taken at |c|, where its integrand falls like e^{−τ} (Cauchy), and is
    summed by Gauss–Legendre on 48 nodes of τ ∈ [0, 40], in blocks of 256 η,
    each η a row summed by itself.  Then η by η, one e^{iηm} row over the
    cells above c and one e^{iηδ} row give the direct part on [c, 16.05]."""
    _check_range(eta, _ETA_MAX, "eta")
    k_c = _cutoff_cells(eta)
    top = _CELLS_ABOVE + k_c  # c is the top edge of cell `top`
    c = _ANCHOR - _CELL * k_c
    tau, w = gl_panels(0.0, _TAU_MAX, 4)
    tails = np.zeros(eta.size, dtype=np.complex128)
    for sign in (1.0, -1.0):  # W₊ then W₋: lhs(−η) is conj(lhs(η)) exactly
        step = sign * 1j / (np.sqrt(-c) - sign * eta)  # du/dτ on the ray
        for start in range(0, eta.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            u = np.multiply.outer(step[block], tau) - c[block, None]
            f = _airy_wave(u, sign) * np.exp(-1j * eta[block, None] * u)
            tails[block] += step[block] * (f * w).sum(axis=1)

    mids, offsets, w_ai = _airy_table()
    e_off = np.exp(1j * np.multiply.outer(eta, offsets))
    lhs = np.empty_like(tails)
    for i, (x, t) in enumerate(zip(eta.tolist(), top.tolist())):
        # Σ_δ w·Ai·e^{iηδ} per cell above c, from the real w·Ai and a (12, 2)
        # real view of e^{iηδ}, so that w·Ai is not copied to complex
        cells = (w_ai[:t] @ e_off[i].view(np.float64).reshape(-1, 2)).view(np.complex128)[:, 0]
        lhs[i] = np.exp(1j * x * mids[:t]) @ cells + tails[i]
    return c, tails, lhs


def check_airy_fourier(eta):
    """∫ dσ Ai(σ) e^{iησ} = e^{−iη³/3}, for |η| ≤ 5: one report for a
    scalar η, a tuple of reports for a 1-D grid of η."""
    grid, scalar = _grid(eta, np.float64)
    lhs = _airy_fourier_sums(grid)[2]
    reports = [
        IdentityReport.build("airy_fourier", l, np.exp(-1j * x**3 / 3.0))
        for x, l in zip(grid.tolist(), lhs.tolist())
    ]
    return _one_or_all(reports, scalar)


# ---------------------------------------------------------------------------
# z^6 identity
# ---------------------------------------------------------------------------

def _z6_rhs(xi1: np.ndarray) -> list:
    """e^{−ξ₁}{(6ξ₁/7)·₁F₁(1;13/6;ξ₁) + 1} for each ξ₁ of the 1-D grid,
    from one ₁F₁ call."""
    hyp = hyp1f1_one(13.0 / 6.0, xi1).tolist()
    # in Python complex arithmetic, which divides by 7 where numpy would
    # multiply by 1/7, a different rounding; so do the erf–Airy check's
    # ξ₁ = χ⁶/3 and right side
    return [complex(np.exp(-x) * ((6.0 * x / 7.0) * f + 1.0)) for x, f in zip(xi1.tolist(), hyp)]


def check_z6_identity(xi1):
    """∫₀¹ e^{−ξ₁z⁶} dz, by the Y(t) quadrature at ξ₂ = 0, against its ₁F₁
    closed form, |ξ₁| ≤ 50: one report for a scalar ξ₁, a tuple of reports
    for a 1-D grid, whose Y nodes take one quadrature pass."""
    grid, scalar = _grid(xi1, np.complex128)
    _check_range(grid, _XI1_MAX, "xi1")
    lhs = y_integral(YArgs(grid, 0j))
    return _one_or_all([IdentityReport.build("z6", l, r) for l, r in zip(lhs, _z6_rhs(grid))], scalar)


# ---------------------------------------------------------------------------
# erf-Airy identity
# ---------------------------------------------------------------------------

def _erf_ratio(s: np.ndarray) -> np.ndarray:
    """erf(s)/s, and its limit 2/√π where |s| < 1e-8, which is off by at
    most |s|²/3 relative."""
    with np.errstate(all="ignore"):
        out = erf(s)
        out /= s
    out[np.abs(s) < 1e-8] = 2.0 / math.sqrt(math.pi)
    return out


def _erf_airy_lhs(chi: np.ndarray) -> np.ndarray:
    """χ∫₀^∞ Ai(r) Σ_α erf(αχ√r)/(αχ√r) dr, the rotated left side, for each
    χ of the 1-D array, in blocks of 256 χ.  Each χ is a row of its block,
    summed by itself, so its value does not depend on its grid; α = e^{±iπ/3}
    are added first, so that a conjugate χ gives the conjugate value."""
    roots, w_ai = _erf_airy_table()
    lhs = np.empty(chi.size, dtype=np.complex128)
    for start in range(0, chi.size, _BLOCK):
        c = chi[start:start + _BLOCK, None]
        ratio = _erf_ratio(c * roots[1])
        ratio += _erf_ratio(c * roots[2])
        ratio += _erf_ratio(c * roots[0])
        lhs[start:start + _BLOCK] = c[:, 0] * (ratio * w_ai).sum(axis=-1)
    return lhs


def check_airy_erf_identity(chi):
    """∫ dσ/√σ Ai(σ) erf(χ√σ) = (2χ/√π)e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁)+1},
    the left side continued analytically in χ as the rotated integral on
    [0, 20], for |χ| ≤ 1: one report for a scalar χ, a tuple of reports for
    a 1-D grid.  The worst relative error is 5.7e-16 over 96 phases at
    |χ| = 1 and 9.2e-15 over 4 000 random χ in the unit disk; the table
    ends too soon beyond it (8.5e-11 at |χ| = 1.5, 1.1 at 2), so larger |χ|
    is refused."""
    grid, scalar = _grid(chi, np.complex128)
    _check_range(grid, _CHI_MAX, "chi")
    chis = grid.tolist()
    rhs = _z6_rhs(np.array([c**6 / 3.0 for c in chis]))
    reports = [
        IdentityReport.build("airy_erf", lhs, (2.0 * c / math.sqrt(math.pi)) * z6)
        for c, lhs, z6 in zip(chis, _erf_airy_lhs(grid).tolist(), rhs)
    ]
    return _one_or_all(reports, scalar)
