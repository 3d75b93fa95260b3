"""Numerical verification of the Airy-related integral identities.

Checked identities:

    ∫ dσ Ai(σ) e^{iησ}                     = e^{−iη³/3}
    ∫₀¹ dz e^{−ξ₁z⁶}                       = e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1}
    ∫ dσ/√σ · Ai(σ) erf(χ√σ)               = (2χ/√π)·e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁) + 1},  ξ₁ = χ⁶/3

The first integral converges only conditionally on the oscillatory side;
its tail ∫_{−∞}^c is reduced with repeated integration by parts built on
Ai″ = σAi (every pass trades one power of (σ+η²) for a derivative), after
which the remainder is absolutely convergent and integrated directly.
The third integral is not absolutely convergent either; it is *defined*
here as the ε → 0 limit of the Gaussian-regularized integral (regulator
e^{−εσ²}, ladder ε₀, ε₀/2, ε₀/4, Richardson-extrapolated), and the report
carries the ladder so a divergent case is flagged rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from .specfun import airy_ai, airy_ai_prime, cerfc, gl_panels, hyp1f1_one

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

    @property
    def ok(self) -> bool:
        return not self.flags


# ---------------------------------------------------------------------------
# Airy-Fourier transform
# ---------------------------------------------------------------------------

def _airy_fourier_tail(c: float, eta: float, levels: int = 4) -> complex:
    """∫_{−∞}^{c} Ai(σ)e^{iησ} dσ for c < −(η² + margin), by repeated
    integration by parts: with q = (P − iηQ)/(σ+η²), p = Q − iηq,

        ∫ e^{iησ}(P·Ai + Q·Ai′) = [e^{iησ}(p·Ai + q·Ai′)] − ∫ e^{iησ}(p′·Ai + q′·Ai′),

    each pass making the integrand fall one power of σ faster; the final
    absolutely convergent remainder is integrated directly."""
    eta2 = eta * eta
    den = np.array([eta2, 1.0], dtype=np.complex128)  # (σ + η²)
    NP = np.array([1.0], dtype=np.complex128)
    NQ = np.array([0.0], dtype=np.complex128)
    m = 0
    total = 0.0 + 0.0j
    sign = 1.0
    ai_c, aip_c = airy_ai(c), airy_ai_prime(c)
    eic = np.exp(1j * eta * c)
    for _ in range(levels):
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

    lo = min(-240.0, 6.0 * c)
    sig, w = gl_panels(lo, c, math.ceil((c - lo) / 0.15))
    denv = (sig + eta2) ** m
    vals = (
        np.exp(1j * eta * sig)
        * (npoly.polyval(sig, NP) * airy_ai(sig) + npoly.polyval(sig, NQ) * airy_ai_prime(sig))
        / denv
    )
    total += sign * np.sum(w * vals)
    return complex(total)


def check_airy_fourier(eta: float) -> IdentityReport:
    """∫ dσ Ai(σ) e^{iησ} = e^{−iη³/3}, for |η| ≤ 5."""
    if not abs(eta) <= 5.0:
        raise ValueError("validated only for |eta| <= 5")
    c = -(2.0 * eta * eta + 30.0)  # stationary-phase-safe cutoff
    hi = 16.0  # Ai(16) ~ 3e-18: decaying tail below target
    freq = math.sqrt(abs(c)) + abs(eta) + 1.0
    width = min(0.3, math.pi / (4.0 * freq))
    sig, w = gl_panels(c, hi, math.ceil((hi - c) / width))
    direct = np.sum(w * airy_ai(sig) * np.exp(1j * eta * sig))
    lhs = direct + _airy_fourier_tail(c, eta)
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
    """∫₀¹ e^{−ξ₁z⁶} dz against its ₁F₁ closed form, |ξ₁| ≤ 50."""
    xi1 = complex(xi1)
    if not abs(xi1) <= 50.0:
        raise ValueError("validated only for |xi1| <= 50")

    lim = max(200, int(20 + abs(xi1)))
    re, _ = quad(lambda z: np.exp(-xi1 * z**6).real, 0, 1, epsabs=1e-12, epsrel=1e-12, limit=lim)
    im, _ = quad(lambda z: np.exp(-xi1 * z**6).imag, 0, 1, epsabs=1e-12, epsrel=1e-12, limit=lim)
    return IdentityReport.build("z6", complex(re, im), z6_closed_form(xi1))


# ---------------------------------------------------------------------------
# erf-Airy identity (Gaussian-regularized)
# ---------------------------------------------------------------------------

def _erf_airy_integrand(sig: np.ndarray, chi: complex, eps: float) -> np.ndarray:
    # erf(χ√σ)/√σ with √σ = i√|σ| on σ < 0 (principal branch); the ratio
    # is continuous through σ = 0 with value (2/√π)χ.
    root = np.where(sig >= 0, np.sqrt(np.abs(sig)) + 0j, 1j * np.sqrt(np.abs(sig)))
    z = chi * root
    small = np.abs(z) < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(small, (2.0 / math.sqrt(math.pi)) * chi, (1.0 - cerfc(z)) / root)
    return airy_ai(sig) * ratio * np.exp(-eps * sig * sig)


def _erf_airy_regularized(chi: complex, eps: float) -> complex:
    hi = 16.0
    # growth e^{Re(−χ̄... ) |σ|} on the negative side is killed by the regulator
    growth = max(abs(chi) ** 2, 1e-6)
    lo = -max(40.0, 1.2 * growth / eps + math.sqrt(35.0 / eps))
    freq = math.sqrt(abs(lo)) + 1.0
    width = min(0.25, math.pi / (4.0 * freq))
    sig, w = gl_panels(lo, hi, math.ceil((hi - lo) / width))
    return complex(np.sum(w * _erf_airy_integrand(sig, chi, eps)))


def check_airy_erf_identity(chi: complex, eps: float = 0.05) -> IdentityReport:
    """∫ dσ/√σ Ai(σ) erf(χ√σ) = (2χ/√π)e^{−ξ₁}{(6ξ₁/7)₁F₁(1;13/6;ξ₁)+1},
    defined through the ε → 0 limit of the Gaussian-regularized integral."""
    chi = complex(chi)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    xi1 = chi**6 / 3.0
    # the closed form's ₁F₁ is validated for |ξ₁| ≤ 50, as in check_z6_identity
    if not abs(xi1) <= 50.0:
        raise ValueError("validated only for |chi^6/3| <= 50")
    if chi == 0:
        return IdentityReport.build("airy_erf", 0.0, 0.0, regularization="chi=0")

    ladder = [_erf_airy_regularized(chi, eps / 2**j) for j in range(3)]
    i1, i2, i3 = ladder
    extrapolated = (8.0 * i3 - 6.0 * i2 + i1) / 3.0
    flags = []
    scale = max(abs(i3), 1e-12)
    # growing rungs above the meaningful (1e-3·scale) level: inconclusive
    if abs(i3 - i2) > 1.5 * abs(i2 - i1) and abs(i3 - i2) > 1e-3 * scale:
        flags.append("ladder_divergent")

    rhs = (2.0 * chi / math.sqrt(math.pi)) * z6_closed_form(xi1)
    reg = f"eps ladder {eps:g}/{eps / 2:g}/{eps / 4:g}: " + ", ".join(
        f"{v:.6g}" for v in ladder
    )
    return IdentityReport.build("airy_erf", extrapolated, rhs, regularization=reg, flags=flags)
