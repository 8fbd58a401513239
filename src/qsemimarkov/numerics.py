"""Dense small-matrix linear algebra, quadrature, and root finding.

Everything here operates on plain numpy arrays and Python callables. Matrix
routines are thin, contract-enforcing wrappers over LAPACK (via numpy);
quadrature wraps QUADPACK (via scipy) and adds excision of flagged singular
points; many bracketed roots of one vectorized function are refined together
by Chandrupatla's method, in numpy; the Volterra solver is implemented
directly because no library routine matches its required form. scipy is
imported on the first quadrature, so commands that make none never load it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridError,
    InvalidState,
    NoConvergence,
    NonHermitianInput,
    NumericalError,
    ToleranceNotMet,
)

__all__ = [
    "Spectrum",
    "QuadratureResult",
    "VolterraSolution",
    "hermitian_eig",
    "trace_norm",
    "von_neumann_entropy",
    "binary_entropy",
    "adaptive_quad",
    "solve_volterra",
]


class Spectrum(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order."""

    eigenvalues: np.ndarray   # real, shape (d,)
    eigenvectors: np.ndarray  # columns match eigenvalues, shape (d, d)


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


class VolterraSolution(NamedTuple):
    times: np.ndarray  # shape (n+1,), uniform grid from 0
    maps: np.ndarray   # shape (n+1, D, D) superoperator trajectory


def hermitian_eig(matrix: np.ndarray, *, tol: float = 1e-12) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    :param matrix: square complex matrix, or a stack (..., d, d) of them, each
        Hermitian within ``tol`` relative to its largest-magnitude entry.
    :param tol: relative Hermiticity tolerance.
    :raises NonHermitianInput: if the Hermiticity check fails for any matrix.
    :raises NoConvergence: if the underlying LAPACK driver does not converge.
    :return: ``Spectrum(eigenvalues, eigenvectors)`` with real eigenvalues in
        descending order along the last axis and matching eigenvector columns.
    """
    m = np.asarray(matrix)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if np.any(defect > tol * scale):
        i = np.unravel_index(np.argmax(defect / scale), defect.shape)
        raise NonHermitianInput(
            f"matrix deviates from Hermiticity by {defect[i]:.3e} "
            f"(allowed {tol * scale[i]:.3e})"
        )
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(evals, axis=-1)[..., ::-1]
    return Spectrum(np.take_along_axis(evals, order, -1),
                    np.take_along_axis(evecs, order[..., None, :], -1))


def trace_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; for Hermitian input this is sum |eigenvalues|.

    A stack (..., m, n) gives an array of shape (...), one matrix a float.
    """
    m = np.asarray(matrix)
    if m.ndim < 2:
        raise DomainError(f"expected a matrix, got shape {m.shape}")
    try:
        norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return float(norms) if m.ndim == 2 else norms


def von_neumann_entropy(rho: np.ndarray, *, trace_tol: float = 1e-8,
                        negativity_tol: float = 1e-10) -> float | np.ndarray:
    """Von Neumann entropy in bits, -sum(lambda log2 lambda).

    A stack of states (..., d, d) gives an array of shape (...), one a float.

    :raises InvalidState: if any state is non-Hermitian, its trace deviates
        from 1 by more than ``trace_tol``, or an eigenvalue is below
        ``-negativity_tol``.
    """
    try:
        evals = hermitian_eig(np.asarray(rho, dtype=complex)).eigenvalues
    except NonHermitianInput as exc:
        raise InvalidState(str(exc)) from exc
    trace_defect = np.abs(evals.sum(axis=-1) - 1.0)
    if np.any(trace_defect > trace_tol):
        raise InvalidState(f"trace deviates from 1 by {trace_defect.max():.3e}")
    if np.any(evals < -negativity_tol):
        raise InvalidState(f"negative eigenvalue {evals.min():.3e}")
    lam = np.clip(evals, 0.0, None)
    ent = -(lam * np.log2(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)
    return float(ent) if evals.ndim == 1 else ent


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x) in bits; H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def _excised_pieces(a: float, b: float, singular_points: Sequence[float],
                    excision: float) -> tuple[list[tuple[float, float]],
                                              list[tuple[float, float]]]:
    """Split [a, b] into subintervals excluding excision-neighborhoods.

    Returns (pieces, excised) where excised lists the removed intervals
    clipped to [a, b]. Overlapping neighborhoods are merged.
    """
    holes: list[tuple[float, float]] = []
    for x in sorted(singular_points):
        lo, hi = max(a, x - excision), min(b, x + excision)
        if hi <= a or lo >= b or hi <= lo:
            continue
        if holes and lo <= holes[-1][1]:
            holes[-1] = (holes[-1][0], max(holes[-1][1], hi))
        else:
            holes.append((lo, hi))
    pieces: list[tuple[float, float]] = []
    cursor = a
    for lo, hi in holes:
        if lo > cursor:
            pieces.append((cursor, lo))
        cursor = hi
    if cursor < b:
        pieces.append((cursor, b))
    return pieces, holes


def adaptive_quad(f: Callable[[float], float], a: float, b: float, *,
                  abs_tol: float = 1e-10, rel_tol: float = 1e-8,
                  singular_points: Sequence[float] = (),
                  excision: float = 1e-6,
                  breakpoints: Sequence[float] = (),
                  limit: int = 200) -> QuadratureResult:
    """Adaptive quadrature of f over [a, b] with singular-point excision.

    :param f: scalar integrand, finite on [a, b] away from ``singular_points``.
    :param singular_points: pole locations; an ``excision``-neighborhood
        around each is removed from the integration range.
    :param breakpoints: known non-smooth interior points (kinks); passed to
        the adaptive subdivider as forced split locations.
    :param limit: subdivision budget per piece.
    :raises ToleranceNotMet: if the subdivider exhausts its budget or
        otherwise reports non-convergence.
    :return: ``QuadratureResult(value, error_estimate, evaluations)`` summed
        over the retained subintervals.
    """
    if not np.isfinite(a) or not np.isfinite(b) or b < a:
        raise DomainError(f"bad integration range [{a}, {b}]")
    if b == a:
        return QuadratureResult(0.0, 0.0, 0)
    from scipy import integrate

    pieces, _ = _excised_pieces(a, b, singular_points, excision)
    total = 0.0
    err = 0.0
    neval = 0
    for lo, hi in pieces:
        pts = sorted(x for x in breakpoints if lo < x < hi) or None
        out = integrate.quad(f, lo, hi, points=pts, epsabs=abs_tol,
                             epsrel=rel_tol, limit=limit, full_output=1)
        if len(out) > 3:  # QUADPACK appended a failure message
            raise ToleranceNotMet(f"quadrature on [{lo:g}, {hi:g}]: {out[3]}")
        value, abserr, info = out
        total += value
        err += abserr
        neval += int(info["neval"])
    return QuadratureResult(total, err, neval)


def solve_volterra(kernel: Callable[[np.ndarray], np.ndarray],
                   generator: np.ndarray, t_max: float,
                   dt: float) -> VolterraSolution:
    """Integrate dPhi/dt = G . int_0^t k(t-tau) Phi(tau) dtau, Phi(0) = 1.

    Fixed-step predictor-corrector (Heun) with a trapezoidal memory sum;
    global error is O(dt^2). The kernel is evaluated once on the offset grid.

    :param kernel: scalar memory kernel k(t), vectorized over an array of
        non-negative times.
    :param generator: constant superoperator G multiplying the memory
        integral (for a jump channel J this is the bracket J - 1).
    :param t_max: final time; the grid is uniform on [0, t_max].
    :param dt: step size; t_max is rounded to an integer number of steps.
    :raises GridError: if dt or t_max is non-positive or t_max < dt.
    :return: ``VolterraSolution(times, maps)`` with maps[0] the identity.
    """
    if not (np.isfinite(dt) and dt > 0.0) or not np.isfinite(t_max):
        raise GridError(f"bad step dt={dt!r}")
    if t_max < dt:
        raise GridError(f"t_max={t_max!r} smaller than dt={dt!r}")
    G = np.asarray(generator)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DomainError(f"generator must be square, got shape {G.shape}")
    n = int(round(t_max / dt))
    dim = G.shape[0]
    times = dt * np.arange(n + 1)
    kvals = np.asarray(kernel(times), dtype=float)
    if kvals.shape != times.shape or not np.all(np.isfinite(kvals)):
        raise NumericalError("kernel must return finite values on the grid")
    maps = np.empty((n + 1, dim, dim), dtype=np.result_type(G, float))
    maps[0] = np.eye(dim)
    # real view of the trajectory, so each memory sum is one real matmul
    flat = maps.reshape(n + 1, -1).view(np.float64)
    wdt = dt * kvals[::-1]          # wdt[n - j] = dt k(t_j)
    end = 0.5 * wdt[n]              # trapezoid weight of the newest point
    mem = np.zeros((dim, dim), dtype=maps.dtype)  # memory sum at t_0
    for m in range(n):
        rhs = G @ mem
        predicted = maps[m] + dt * rhs
        # history part of the memory sum at t_{m+1}: tau_0..tau_m, with the
        # trapezoid half weight on tau_0
        hist = (wdt[n - m: n] @ flat[1: m + 1]
                + 0.5 * wdt[n - m - 1] * flat[0]).view(maps.dtype)
        hist = hist.reshape(dim, dim)
        maps[m + 1] = maps[m] + 0.5 * dt * (rhs + G @ (hist + end * predicted))
        mem = hist + end * maps[m + 1]
    return VolterraSolution(times, maps)


def _bracketed_roots(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
                     b: np.ndarray, fa: np.ndarray, fb: np.ndarray, *,
                     max_iter: int = 100) -> np.ndarray:
    """Roots of a vectorized f, one in each bracket [a_i, b_i], all at once.

    Chandrupatla's method: inverse quadratic interpolation where the last
    three points allow it, bisection otherwise, and every step at least a
    few ulps from the bracket ends. Each iteration makes one call of f on
    the unconverged points; a point stops when its bracket is within 4 ulps
    or f is exactly 0 there. The first step is the secant point.

    :param fa, fb: f at a and b, of opposite signs.
    :raises NumericalError: if f is not finite inside a bracket.
    :raises NoConvergence: if a bracket is not resolved in ``max_iter`` steps.
    """
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x3, f3 = x2.copy(), f2.copy()
    root = np.empty_like(x1)
    t = f1 / (f1 - f2)
    live = np.arange(x1.size)
    for _ in range(max_iter):
        if not live.size:
            return root
        xt = x1 + t * (x2 - x1)
        ft = np.asarray(f(xt), dtype=float)
        if not np.all(np.isfinite(ft)):
            raise NumericalError("root function is not finite in a bracket")
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        width = np.abs(x2 - x1)
        done = (width < 4.0 * np.finfo(float).eps * np.abs(xm)) | (fm == 0.0)
        root[live[done]] = xm[done]
        keep = ~done
        live = live[keep]
        x1, x2, x3, f1, f2, f3 = (v[keep] for v in (x1, x2, x3, f1, f2, f3))
        tl = 2.0 * np.finfo(float).eps * np.abs(xm[keep]) / width[keep]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (phi**2 < xi) & ((1.0 - phi)**2 < 1.0 - xi)
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        t = np.clip(np.where(iqi, t, 0.5), tl, 1.0 - tl)
    raise NoConvergence(f"{live.size} brackets unresolved after "
                        f"{max_iter} steps")
