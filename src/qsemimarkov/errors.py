"""Exception types shared across the package.

``NumericalError`` is the base for everything that can go wrong inside a
computation (the CLI maps it to exit code 3); ``ConfigError`` covers bad
user input (exit code 2).
"""

__all__ = ["QsmError", "ConfigError", "NumericalError", "NoConvergence",
           "DomainError", "GridError", "Singularity"]


class QsmError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QsmError):
    """Invalid or inconsistent configuration / user input."""


class NumericalError(QsmError):
    """A numerical routine failed or produced an invalid value."""


class NoConvergence(NumericalError):
    """An iterative linear-algebra routine failed to converge."""


class DomainError(NumericalError):
    """An argument lies outside the mathematical domain of the routine."""


class GridError(NumericalError):
    """A time grid or step size is malformed."""


class Singularity(NumericalError):
    """Evaluation requested at (or too close to) a pole of the rate."""
