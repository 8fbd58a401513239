"""Golden-section minimization, kept as a test oracle.

The package finds the minimizing reference rate of the deviation measure as
the exact time-median of gamma; the tests check that against this direct
search over the same convex objective.
"""

from typing import Callable

import numpy as np

from qsemimarkov import DomainError, NumericalError


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float, *,
                    tol: float = 1e-8,
                    max_iter: int = 200) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [lo, hi].

    :return: ``(argmin, f(argmin))`` with ``|argmin - true|`` bounded by the
        final bracket width (at most ``tol`` unless ``max_iter`` hits first).
    :raises NumericalError: if f returns a non-finite value.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
        raise DomainError(f"bad search interval [{lo}, {hi}]")

    def probe(x: float) -> float:
        y = float(f(x))
        if not np.isfinite(y):
            raise NumericalError(f"objective returned {y!r} at x={x!r}")
        return y

    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = probe(c), probe(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = probe(d)
    x = 0.5 * (a + b)
    return x, probe(x)
