"""Exception types shared across the package.

``NumericalError`` is the base for everything that can go wrong inside a
computation (the CLI maps it to exit code 3); ``ConfigError`` covers bad
user input (exit code 2).
"""

__all__ = ["QsmError", "ConfigError", "UnsupportedVariant", "NumericalError",
           "NonHermitianInput", "NoConvergence", "InvalidState", "DomainError",
           "ToleranceNotMet", "GridError", "NoSignChange", "DimensionMismatch",
           "SingularMap", "Singularity"]


class QsmError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QsmError):
    """Invalid or inconsistent configuration / user input."""


class NumericalError(QsmError):
    """A numerical routine failed or produced an invalid value."""


class NonHermitianInput(NumericalError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NoConvergence(NumericalError):
    """An iterative linear-algebra routine failed to converge."""


class InvalidState(NumericalError):
    """A density matrix violates Hermiticity, unit trace, or positivity."""


class DomainError(NumericalError):
    """An argument lies outside the mathematical domain of the routine."""


class ToleranceNotMet(NumericalError):
    """Quadrature exhausted its refinement budget before reaching tolerance."""


class GridError(NumericalError):
    """A time grid or step size is malformed."""


class NoSignChange(NumericalError):
    """Root bracketing failed: f has the same sign at both endpoints."""


class DimensionMismatch(NumericalError):
    """Operator dimensions are incompatible."""


class SingularMap(NumericalError):
    """A dynamical map is too ill-conditioned to invert."""


class Singularity(NumericalError):
    """Evaluation requested at (or too close to) a pole of the rate."""


class UnsupportedVariant(QsmError):
    """The requested operation is not defined for this distribution variant."""
