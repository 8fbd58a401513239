"""Trace norms, Volterra, and scalar-search building blocks."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qsemimarkov import (
    DomainError,
    GridError,
    NumericalError,
    solve_volterra,
    trace_norm,
)
from qsemimarkov.numerics import _VOLTERRA_MAX_STEPS

from golden_section import minimize_scalar


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


# ---------------------------------------------------------------- trace norm

def test_trace_norm_matches_abs_eigenvalues():
    rng = np.random.default_rng(12)
    m = random_hermitian(rng, 4)
    expected = np.abs(np.linalg.eigvalsh(m)).sum()
    assert trace_norm(m) == pytest.approx(expected, rel=1e-12)


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)


def test_trace_norm_of_a_stack_equals_per_matrix_norms(capfd):
    rng = np.random.default_rng(13)
    stack = np.array([[random_hermitian(rng, 3) for _ in range(4)]
                      for _ in range(2)])
    norms = trace_norm(stack)
    assert norms.shape == (2, 4)
    for idx in np.ndindex(2, 4):
        assert norms[idx] == trace_norm(stack[idx])
    assert isinstance(trace_norm(stack[0, 0]), float)
    with pytest.raises(DomainError):
        trace_norm(np.ones(3))
    # a non-finite entry is refused before LAPACK, which would print a
    # DLASCL complaint on stdout for inf and fail to converge for NaN
    for bad in (np.inf, -np.inf, np.nan, complex(np.inf, 0.0)):
        broken = stack.copy()
        broken[1, 2, 0, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            trace_norm(broken)
    assert capfd.readouterr().out == ""
    # finite entries whose singular values sum past the float range
    assert trace_norm(np.diag([1e308, 1e308])) == np.inf


# ------------------------------------------------------------------ Volterra

def test_solve_volterra_scalar_oracle():
    # d phi/dt = -int_0^t e^{-(t-tau)} phi(tau) d tau has the closed form
    # phi = e^{-t/2} (cos(r t) + sin(r t)/(2 r)), r = sqrt(3)/2
    def phi_exact(t):
        r = np.sqrt(3.0) / 2.0
        return np.exp(-t / 2) * (np.cos(r * t) + np.sin(r * t) / (2 * r))

    sol = solve_volterra(0.5, 1.0, 5.0, 1e-3)
    dev = np.abs(sol.coherence - phi_exact(sol.times)).max()
    assert dev < 5e-7

    sol2 = solve_volterra(0.5, 1.0, 5.0, 2e-3)
    dev2 = np.abs(sol2.coherence - phi_exact(sol2.times)).max()
    assert 3.5 < dev2 / dev < 4.5  # second-order convergence


def _volterra_oracle(amplitude, decay, t_max, dt):
    """The original O(n^2) solver: two trapezoid memory sums per step, with
    the kernel amplitude e^{-decay t} evaluated on the grid."""
    n = int(round(t_max / dt))
    kvals = amplitude * np.exp(-decay * dt * np.arange(n + 1))
    q = np.empty(n + 1)
    q[0] = 1.0
    for m in range(n):
        w = kvals[m::-1].copy()
        w[0] *= 0.5
        w[-1] *= 0.5
        rhs = 0.0 if m == 0 else -2.0 * dt * (w @ q[: m + 1])
        predicted = q[m] + dt * rhs
        w1 = kvals[m + 1:: -1].copy()
        w1[0] *= 0.5
        w1[-1] *= 0.5
        mem1 = dt * (w1[: m + 1] @ q[: m + 1]) + dt * w1[m + 1] * predicted
        q[m + 1] = q[m] + 0.5 * dt * (rhs - 2.0 * mem1)
    return q


# k(t) = p e^{-st} with p below, at and above s^2/8, where q turns from
# monotone to oscillating, and a kernel that does not decay
@pytest.mark.parametrize("kernel", [(0.05, 1.0), (0.125, 1.0), (3.0, 1.0),
                                    (1.0, 0.0)],
                         ids=["below", "at", "above", "no-decay"])
def test_solve_volterra_matches_einsum_oracle(kernel):
    sol = solve_volterra(*kernel, 2.5, 0.01)  # 250 steps
    expected = _volterra_oracle(*kernel, 2.5, 0.01)
    assert np.abs(sol.coherence - expected).max() <= 1e-13


def test_solve_volterra_initial_condition_and_grid():
    sol = solve_volterra(1.0, 1.0, 1.0, 0.25)
    assert sol.times[0] == 0.0
    assert sol.coherence[0] == 1.0
    assert sol.times.shape[0] == sol.coherence.shape[0] == 5


def test_solve_volterra_rejects_bad_steps():
    with pytest.raises(GridError):
        solve_volterra(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(GridError):
        solve_volterra(1.0, 1.0, 0.1, 0.5)
    with pytest.raises(NumericalError):
        solve_volterra(np.inf, 1.0, 1.0, 0.1)
    # a finite step matrix whose powers overflow: e^{70} per step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            solve_volterra(1.0, -700.0, 100.0, 0.1)


def test_solve_volterra_refuses_steps_past_the_cap_before_allocating():
    dt = 1e-3
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="cap"):
            solve_volterra(1.0, 1.0, (_VOLTERRA_MAX_STEPS + 1) * dt, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the grid and the coherence would be 8 MB each
    assert peak < 100_000


# ------------------------------------------------------------ scalar search

def test_minimize_scalar_quadratic():
    x, fx = minimize_scalar(lambda x: (x - 2.0) ** 2, 0.0, 5.0, tol=1e-10)
    assert x == pytest.approx(2.0, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_minimize_scalar_kinked():
    x, _ = minimize_scalar(lambda x: abs(x - np.pi), 0.0, 5.0, tol=1e-10)
    assert x == pytest.approx(np.pi, abs=1e-8)


def test_minimize_scalar_rejects_non_finite_objective():
    with pytest.raises(NumericalError):
        minimize_scalar(lambda x: np.nan, 0.0, 1.0)
    with pytest.raises(DomainError):
        minimize_scalar(lambda x: x, 1.0, 0.0)
