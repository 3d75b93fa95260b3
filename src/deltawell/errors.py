"""Shared exception types for numerical failure modes.

Domain violations (bad arguments) raise plain ValueError throughout the
package; the classes here mark *runtime* numerical trouble that a caller
may want to catch and report (e.g. ``identity-check`` exits 2 on a
non-finite erf–Airy rung).
"""


class NumericsError(ArithmeticError):
    """Base class for flagged numerical failures."""


class PrecisionLossError(NumericsError):
    """A result could not be computed to its advertised accuracy.

    Raised instead of silently returning a wrong answer, e.g. when the
    Y(t) quadrature does not reach its tolerance within its panel cap.
    """


class ConvergenceError(NumericsError):
    """An iterative scheme (quadrature, acceleration ladder) did not converge."""
