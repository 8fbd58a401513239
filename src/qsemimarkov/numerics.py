"""Dense small-matrix linear algebra, quadrature, and a Volterra solver.

Everything here operates on plain numpy arrays and Python callables. Matrix
routines are thin, contract-enforcing wrappers over LAPACK (via numpy);
quadrature is QUADPACK's 21-point Gauss-Kronrod rule and error estimate in
numpy over intervals the caller gives, bisecting many intervals per round
and taking the integrand on all their nodes in one call; callers cut out
poles and split at kinks by the intervals they pass. The Volterra solver is
implemented directly because no library routine matches its required form,
and it refuses step counts past a cap.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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


# 1e5 steps of 4x4 real maps are 12.8 MB, and the memory sum's time grows as
# the square of the steps; kernel-check takes 5000 at its defaults
_VOLTERRA_MAX_STEPS = 100_000

# QUADPACK's qk21 (Piessens et al., QUADPACK, 1983): Kronrod abscissae on
# [0, 1], their weights, and those of the embedded 10-point Gauss rule
_QK21 = np.array([
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.1494455540029169, 0.0)])
# the 21 nodes on [-1, 1] in ascending order, Kronrod and Gauss weights
_GK_X, _GK_W, _G_W = np.concatenate([_QK21[:-1] * (-1.0, 1.0, 1.0),
                                     _QK21[::-1]]).T


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


def _gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray) -> np.ndarray:
    """Rows lo, hi, value and QUADPACK's qk21 error; f is called once."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _GK_X
    fx = np.broadcast_to(f(x), x.shape)
    if not np.all(np.isfinite(fx)):
        raise NumericalError(
            f"integrand is not finite at t = {x[~np.isfinite(fx)][0]:g}")
    resk = fx @ _GK_W
    resabs, resasc = (np.abs(v) @ _GK_W * np.abs(half)
                      for v in (fx, fx - 0.5 * resk[:, None]))
    err = np.abs((resk - fx @ _G_W) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.maximum(50.0 * np.finfo(float).eps * resabs, err)
    return np.array([lo, hi, resk * half, err])


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray],
                  a: float | np.ndarray, b: float | np.ndarray, *,
                  abs_tol: float = 1e-10, rel_tol: float = 1e-8,
                  limit: int = 200) -> QuadratureResult:
    """Adaptive 21-point Gauss-Kronrod quadrature over given intervals.

    ``a`` and ``b`` are the ends of one interval, or equal-length 1-D arrays
    of the ends of several, summed over; zero-width intervals are skipped.
    Each round calls f once, on the nodes of every new interval, then
    bisects the largest-error intervals until the rest sum to at most half
    the tolerance max(abs_tol, rel_tol |value|), which ends the rounds.

    :param f: vectorized integrand, nodes array in, same shape out, finite
        on every given interval.
    :param limit: subdivision budget per nonzero-width starting interval.
    :raises DomainError: if the ends are not finite, do not pair up, or an
        interval is reversed.
    :raises ToleranceNotMet: if the intervals outnumber ``limit`` per
        starting interval.
    :raises NumericalError: if f returns a value that is not finite.
    :return: ``QuadratureResult(value, error_estimate, evaluations)`` summed
        over the intervals; 21 evaluations per interval.
    """
    lo, hi = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (a, b))
    if (lo.ndim != 1 or lo.shape != hi.shape
            or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))):
        raise DomainError(f"bad integration range [{a}, {b}]")
    wide = lo < hi
    if not wide.any():
        return QuadratureResult(0.0, 0.0, 0)
    iv = _gk21(f, lo[wide], hi[wide])
    evaluated = starts = iv.shape[1]
    while True:
        value, err = iv[2].sum(), iv[3].sum()
        tol = max(abs_tol, rel_tol * abs(value))
        if err <= tol:
            return QuadratureResult(float(value), float(err),
                                    _GK_X.size * evaluated)
        iv = iv[:, np.argsort(-iv[3], kind="stable")]
        k = 1 + int(np.count_nonzero(err - np.cumsum(iv[3])[:-1] > 0.5 * tol))
        if iv.shape[1] + k > limit * starts:
            raise ToleranceNotMet(
                f"quadrature on [{lo.min():g}, {hi.max():g}]: error "
                f"{err:.3e} > {tol:.3e} at the limit")
        lo_k, hi_k = iv[:2, :k]
        mid = 0.5 * (lo_k + hi_k)
        iv = np.concatenate([_gk21(f, np.concatenate([lo_k, mid]),
                                   np.concatenate([mid, hi_k])), iv[:, k:]], 1)
        evaluated += 2 * k


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
    :raises GridError: if dt or t_max is non-positive, t_max < dt, or the
        step count t_max / dt exceeds ``_VOLTERRA_MAX_STEPS``.
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
    if n > _VOLTERRA_MAX_STEPS:
        raise GridError(f"{n} steps exceed the cap of {_VOLTERRA_MAX_STEPS}: "
                        "the memory sum takes time quadratic in the steps")
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
