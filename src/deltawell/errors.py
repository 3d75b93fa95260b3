"""Shared exception types for numerical failure modes.

Domain violations (bad arguments) raise plain ValueError throughout the
package; the classes here mark *runtime* numerical trouble that a caller
may want to catch and report (e.g. the CLI exits 2 on a non-finite
solve).
"""


class NumericsError(ArithmeticError):
    """Base class for flagged numerical failures."""


class PrecisionLossError(NumericsError):
    """A result could not be computed to its advertised accuracy.

    Raised instead of silently returning a wrong answer, e.g. when the
    Y(t) quadrature does not reach its tolerance within its panel cap.
    """


class ConvergenceError(NumericsError):
    """A solve, reconstruction or overlap came out non-finite."""
