"""Trace norms, adaptive quadrature, and a Volterra solver.

Everything here operates on plain numpy arrays and Python callables. The
trace norm is a thin, contract-enforcing wrapper over LAPACK's SVD (via
numpy); quadrature is QUADPACK's 21-point Gauss-Kronrod rule and error estimate in
numpy over intervals the caller gives, bisecting many intervals per round
and taking the integrand on all their nodes in one call; callers cut out
poles and split at kinks by the intervals they pass. Labelled rows of
intervals make many integrals at once, each with its own tolerance, budget
and result, and bits that do not depend on the other rows: a round takes
the new intervals of every row in one call. The Volterra solver takes the
coherence's memory equation, whose exponential kernel makes the memory sum
a recurrence: O(dt^2) error, time and memory linear in the steps, capped.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GridError,
    NoConvergence,
    NumericalError,
    ToleranceNotMet,
)

__all__ = [
    "QuadratureResult",
    "QuadratureRows",
    "VolterraSolution",
    "trace_norm",
    "adaptive_quad",
    "solve_volterra",
]


# 1e6 steps, like the cap of --grid's time grid: 8 MB of coherence
_VOLTERRA_MAX_STEPS = 1_000_000
_VOLTERRA_BLOCK = 1 << 12  # steps taken by one batched matmul

# intervals per integrand call: caps the memory of the integrand's work on
# their nodes (21 per interval)
_QUAD_BLOCK = 1 << 9
# a row of adaptive_quad is done within max(_QUAD_ABS_TOL, _QUAD_REL_TOL
# |value|), and may hold _QUAD_LIMIT intervals per starting interval
_QUAD_ABS_TOL = 1e-10
_QUAD_REL_TOL = 1e-8
_QUAD_LIMIT = 200

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


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


class VolterraSolution(NamedTuple):
    times: np.ndarray      # shape (n+1,), uniform grid from 0
    coherence: np.ndarray  # shape (n+1,), q at each time, q(0) = 1


def trace_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; for Hermitian input this is sum |eigenvalues|.

    A stack (..., m, n) gives an array of shape (...), one matrix a float.
    A sum past the float range is inf, for the caller's finiteness check.

    :raises DomainError: for fewer than 2 axes, or an entry that is not
        finite, which LAPACK would not take.
    """
    m = np.asarray(matrix)
    if m.ndim < 2:
        raise DomainError(f"expected a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    try:
        with np.errstate(over="ignore"):
            norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return float(norms) if m.ndim == 2 else norms


def _gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray) -> np.ndarray:
    """Rows lo, hi, value and QUADPACK's qk21 error; f is called once.

    Each interval's sums are over its own 21 nodes, in an order that does
    not depend on the other intervals (a matrix product's does).
    """
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _GK_X
    fx = np.broadcast_to(f(x), x.shape)
    if not np.all(np.isfinite(fx)):
        raise NumericalError(
            f"integrand is not finite at t = {x[~np.isfinite(fx)][0]:g}")
    # a sum past the float range is inf or nan, which adaptive_quad refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        resk = (fx * _GK_W).sum(axis=1)
        resabs, resasc = ((np.abs(v) * _GK_W).sum(axis=1) * np.abs(half)
                          for v in (fx, fx - 0.5 * resk[:, None]))
        err = np.abs((resk - (fx * _G_W).sum(axis=1)) * half)
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        err = np.maximum(50.0 * np.finfo(float).eps * resabs, err)
        return np.array([lo, hi, resk * half, err])


class QuadratureRows(Sequence):
    """One ``QuadratureResult`` per row label, in label order, held as
    arrays: ``rows[i]`` builds row i's, ``value`` and ``error_estimate``
    are every row's, and ``evaluations`` is the total over the rows."""

    def __init__(self, value: np.ndarray, error_estimate: np.ndarray,
                 counts: np.ndarray) -> None:
        self.value, self.error_estimate, self._counts = (
            value, error_estimate, counts)

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i: int) -> QuadratureResult:
        return QuadratureResult(float(self.value[i]),
                                float(self.error_estimate[i]),
                                int(self._counts[i]))

    @property
    def evaluations(self) -> int:
        return int(self._counts.sum())


def adaptive_quad(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  a: np.ndarray, b: np.ndarray,
                  rows: np.ndarray) -> QuadratureRows:
    """Adaptive 21-point Gauss-Kronrod quadrature over labelled intervals.

    ``a`` and ``b`` are equal-length 1-D arrays of the intervals' ends, and
    ``rows`` labels each interval with the integral it belongs to, 0, 1, ...;
    zero-width intervals are skipped. Each row is summed, tolerated,
    bisected and budgeted on its own, as if alone, so its bits do not depend
    on the other rows. Each round calls f on the nodes of the new intervals
    of every row not yet converged, at most ``_QUAD_BLOCK`` intervals per
    call, then bisects each row's largest-error intervals until the rest sum
    to at most half its tolerance max(``_QUAD_ABS_TOL``, ``_QUAD_REL_TOL``
    |value|); a row within it is done.

    :param f: vectorized integrand, finite on every given interval: f(x, row)
        with x the (k, 21) nodes of k intervals and row their (k,) labels.
    :param rows: one non-negative integer label per interval.
    :raises DomainError: if the ends are not finite, do not pair up, or an
        interval is reversed, or a label is not a non-negative integer.
    :raises ToleranceNotMet: if a row's intervals outnumber
        ``_QUAD_LIMIT`` per starting interval.
    :raises NumericalError: if f returns a value that is not finite, or a
        row's summed value or error estimate is not.
    :return: a ``QuadratureRows`` of one ``QuadratureResult(value,
        error_estimate, evaluations)`` per label up to the largest; 21
        evaluations per interval.
    """
    lo, hi = (np.asarray(x, dtype=float) for x in (a, b))
    label = np.asarray(rows)
    if (lo.ndim != 1 or lo.shape != hi.shape or label.shape != lo.shape
            or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))):
        raise DomainError(f"bad integration range [{a}, {b}]")
    if label.dtype.kind not in "iu" or (label < 0).any():
        raise DomainError("row labels must be non-negative integers")
    n = int(label.max(initial=-1)) + 1

    def span(r: int) -> str:
        return f"[{lo[label == r].min():g}, {hi[label == r].max():g}]"

    def evaluate(lo: np.ndarray, hi: np.ndarray, row: np.ndarray):
        if lo.size <= _QUAD_BLOCK:
            return _gk21(lambda x: f(x, row), lo, hi)
        return np.concatenate([evaluate(lo[i: i + _QUAD_BLOCK],
                                        hi[i: i + _QUAD_BLOCK],
                                        row[i: i + _QUAD_BLOCK])
                               for i in range(0, lo.size, _QUAD_BLOCK)], 1)

    wide = lo < hi
    row = label[wide]
    iv = evaluate(lo[wide], hi[wide], row) if row.size else None
    evaluated = np.bincount(row, minlength=n)
    budget = _QUAD_LIMIT * evaluated
    value, error = np.zeros((2, n))
    while row.size:
        # each row's intervals together, by decreasing error, ties in order:
        # the sums and the choice to bisect see no other row
        order = np.lexsort((-iv[3], row))
        iv, row = iv[:, order], row[order]
        head = np.ones(row.size, dtype=bool)
        np.not_equal(row[1:], row[:-1], out=head[1:])
        first = np.flatnonzero(head)
        ids = row[first]
        with np.errstate(over="ignore", invalid="ignore"):
            total, err = np.add.reduceat(iv[2:], first, axis=1)
        if not (np.isfinite(total).all() and np.isfinite(err).all()):
            i = np.flatnonzero(~(np.isfinite(total) & np.isfinite(err)))[0]
            raise NumericalError(
                f"quadrature on {span(ids[i])}: value {total[i]:g} or error "
                f"{err[i]:g} is not finite")
        value[ids], error[ids] = total, err
        tol = np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(total))
        live = err > tol
        if not live.any():
            break
        seg = np.cumsum(head) - 1  # each interval's index into ids
        if not live.all():  # the rows within their tolerance are done
            keep = live[seg]
            iv, row = iv[:, keep], row[keep]
            seg = (np.cumsum(live) - 1)[seg[keep]]
            ids, err, tol = ids[live], err[live], tol[live]
        count = np.bincount(seg)
        pos = np.arange(row.size) - (np.cumsum(count) - count)[seg]
        # bisect each row's largest errors until the rest sum to at most
        # half its tolerance; the running sums are taken row by row, in a
        # zero-padded matrix, so that no row's sum takes in another's
        cum = np.zeros((ids.size, count.max()))
        cum[seg, pos] = iv[3]
        np.cumsum(cum, axis=1, out=cum)
        k = 1 + ((err[:, None] - cum > 0.5 * tol[:, None])
                 & (np.arange(cum.shape[1]) < count[:, None] - 1)).sum(axis=1)
        if (count + k > budget[ids]).any():
            i = np.flatnonzero(count + k > budget[ids])[0]
            raise ToleranceNotMet(
                f"quadrature on {span(ids[i])}: error {err[i]:.3e} > "
                f"{tol[i]:.3e} at the limit")
        top = pos < k[seg]
        lo_k, hi_k = iv[:2, top]
        mid = 0.5 * (lo_k + hi_k)
        row_k = row[top]
        row = np.concatenate([row_k, row_k, row[~top]])
        iv = np.concatenate([evaluate(np.concatenate([lo_k, mid]),
                                      np.concatenate([mid, hi_k]),
                                      row[:2 * row_k.size]),
                             iv[:, ~top]], axis=1)
        evaluated[ids] += 2 * k
    return QuadratureRows(value, error, _GK_X.size * evaluated)


def solve_volterra(amplitude: float, decay: float, t_max: float,
                   dt: float) -> VolterraSolution:
    """Integrate dq/dt = -2 int_0^t k(t-tau) q(tau) dtau, q(0) = 1, with
    k(t) = a e^{-bt}: the coherence under dPhi/dt = int_0^t k(t-tau)
    (J - 1) Phi(tau) dtau. Conjugation by sigma_z, the dephasing jump J,
    flips the coherence's sign, so J - 1 acts on it as -2.

    Fixed-step predictor-corrector (Heun) with a trapezoidal memory sum;
    global error is O(dt^2). That sum is A_m - a dt q_m / 2 with
    A_{m+1} = e^{-b dt} A_m + a dt q_{m+1}, so a step is one linear map
    X -> X + P_1 X of X = (q, A); its powers P_j, built by doubling, take a
    block X_{cB+j} = X_cB + P_j X_cB in one batched matmul.

    :param amplitude: the memory kernel's amplitude a.
    :param decay: the memory kernel's decay rate b.
    :param t_max: final time; the grid is uniform on [0, t_max].
    :param dt: step size; t_max is rounded to an integer number of steps.
    :raises GridError: if dt or t_max is non-positive, t_max < dt, or the
        step count t_max / dt exceeds ``_VOLTERRA_MAX_STEPS``.
    :raises NumericalError: if the step matrix or coherence is not finite.
    :return: ``VolterraSolution(times, coherence)``, coherence[0] = 1.
    """
    if not 0.0 < dt <= t_max < np.inf:
        raise GridError(f"bad step dt={dt!r} for t_max={t_max!r}")
    steps = t_max / dt  # compared as a float: it may overflow an int
    if steps > _VOLTERRA_MAX_STEPS + 0.5:  # round(steps) > the cap
        raise GridError(f"{steps:.3g} steps exceed the cap of "
                        f"{_VOLTERRA_MAX_STEPS}")
    n = int(round(steps))
    a, b, g = np.float64(amplitude), np.float64(decay), -2.0
    q = np.empty(n + 1)
    q[0] = 1.0
    with np.errstate(all="ignore"):
        half = 0.5 * a * dt  # trapezoid weight of the newest point
        c = np.expm1(-b * dt)
        e_pp = -0.5 * (dt * half * g) ** 2
        e_pa = 0.5 * dt * ((2.0 + c) * g + half * dt * g * g)
        step = np.array([[e_pp, e_pa],
                         [a * dt * (1.0 + e_pp), c + a * dt * e_pa]])
        incr = step[None]  # P_{m+j} = P_m + P_j + P_m P_j
        while len(incr) < min(n, _VOLTERRA_BLOCK):
            incr = np.concatenate([incr, incr[-1] + incr + incr[-1] @ incr])
        x = np.array([[1.0], [half]])
        for start in range(0, n, len(incr)):
            y = incr[: n - start] @ x
            q[start + 1: start + 1 + len(y)] = x[0, 0] + y[:, 0, 0]
            x = x + y[-1]
    if not (np.all(np.isfinite(step)) and np.all(np.isfinite(q))):
        raise NumericalError(f"Volterra coherence is not finite at dt={dt:g}")
    return VolterraSolution(dt * np.arange(n + 1), q)
