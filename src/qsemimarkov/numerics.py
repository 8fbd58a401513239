"""Trace norms and a Volterra solver.

Everything here operates on plain numpy arrays. The trace norm is a thin,
contract-enforcing wrapper over LAPACK's SVD (via numpy). The Volterra
solver takes the coherence's memory equation, whose exponential kernel
makes the memory sum a recurrence: O(dt^2) error, time and memory linear
in the steps, capped.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridError, NoConvergence, NumericalError

__all__ = ["VolterraSolution", "trace_norm", "solve_volterra"]


# 1e6 steps, like the cap of --grid's time grid: 8 MB of coherence
_VOLTERRA_MAX_STEPS = 1_000_000
_VOLTERRA_BLOCK = 1 << 12  # steps taken by one batched matmul


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
