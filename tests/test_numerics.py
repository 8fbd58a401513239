"""Trace norms, quadrature, Volterra, and scalar-search building blocks."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from qsemimarkov import (
    DomainError,
    GridError,
    NumericalError,
    ToleranceNotMet,
    adaptive_quad,
    solve_volterra,
    trace_norm,
)
from qsemimarkov import numerics
from qsemimarkov.numerics import _QUAD_BLOCK, _VOLTERRA_MAX_STEPS, _gk21

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


# --------------------------------------------------------------- quadrature

def quad(f, a, b):
    """f(x) integrated over the intervals [a, b] as the one row 0."""
    lo, hi = np.atleast_1d(a, b)
    return adaptive_quad(lambda x, _: f(x), lo, hi,
                         rows=np.zeros(lo.shape, int))[0]


def test_adaptive_quad_polynomial():
    res = quad(lambda t: t**2, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.error_estimate < 1e-8
    assert type(res.evaluations) is int and res.evaluations > 0


def test_adaptive_quad_zero_width():
    assert quad(np.sin, 2.0, 2.0).value == 0.0


def test_adaptive_quad_excises_singularities():
    # integral of 1/|t - 1/2| over [0,1] minus the (1/2 +- eps) hole
    eps = 1e-6
    res = quad(lambda t: 1.0 / abs(t - 0.5), [0.0, 0.5 + eps],
               [0.5 - eps, 1.0])
    assert res.value == pytest.approx(2.0 * np.log(0.5 / eps), rel=1e-8)


def test_adaptive_quad_breakpoints_resolve_kinks():
    # |t - 1/3| has a kink; splitting the range there pins it exactly
    res = quad(lambda t: abs(t - 1.0 / 3.0), [0.0, 1.0 / 3.0],
               [1.0 / 3.0, 1.0])
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert res.value == pytest.approx(exact, abs=1e-14)


def test_adaptive_quad_takes_every_node_of_a_round_in_one_call():
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / np.abs(t - 0.5)

    eps = 1e-6
    res = quad(f, np.array([0.0, 0.25, 0.5 + eps]),
               np.array([0.25, 0.5 - eps, 1.0]))
    assert all(isinstance(t, np.ndarray) and t.shape[1:] == (21,)
               for t in calls)
    # the first round covers [0, 0.25], [0.25, 0.5 - eps] and [0.5 + eps, 1]
    assert calls[0].shape == (3, 21)
    assert res.evaluations % 21 == 0
    assert res.evaluations == sum(t.size for t in calls)
    # each round bisects several intervals at once
    assert len(calls) < res.evaluations // 21


def test_adaptive_quad_rows_are_each_the_quadrature_they_are_alone(
        monkeypatch):
    # a pole needing many rounds, a smooth row and a row of zero width, the
    # intervals of rows 0 and 1 interleaved: each row keeps its own order,
    # tolerance and budget, and every bit it has alone
    eps = 1e-6
    forms = [lambda t: 1.0 / np.abs(t - 0.5), np.sin, np.exp]
    lo = np.array([0.0, 0.0, 0.5 + eps, 1.0, 2.0])
    hi = np.array([0.5 - eps, 1.0, 1.0, 3.0, 2.0])
    rows = np.array([0, 1, 0, 1, 3])
    calls = []

    def f(t, row):
        calls.append(row)
        out = np.empty_like(t)
        for r, form in enumerate(forms):
            out[row == r] = form(t[row == r])
        return out

    batch = adaptive_quad(f, lo, hi, rows=rows)
    # row 2 has no interval, so alone it is no row at all: it reads 0 below
    alone = [quad(form, lo[rows == r], hi[rows == r])
             for r, form in enumerate(forms[:2])]
    assert len(batch) == 4 and batch[-1] == batch[3]
    assert [tuple(map(float.hex, batch[r][:2])) + batch[r][2:]
            for r in range(2)] == [tuple(map(float.hex, r[:2])) + r[2:]
                                   for r in alone]
    assert batch[2] == batch[3] == (0.0, 0.0, 0)
    assert batch.evaluations == sum(r.evaluations for r in alone)
    # one call per round, as many rounds as the slowest row takes alone
    assert len(calls) == len([t for t in calls if 0 in t]) > 5
    monkeypatch.setattr(numerics, "_QUAD_LIMIT", 2)
    with pytest.raises(ToleranceNotMet, match=r"quadrature on \[0, 1\]"):
        adaptive_quad(f, lo, hi, rows=rows)
    for bad in ([0, 1, 0, -1, 3], [0.0, 1.0, 0.0, 1.0, 3.0], [0, 1]):
        with pytest.raises(DomainError):
            adaptive_quad(f, lo, hi, rows=np.array(bad))


def test_a_round_of_more_than_a_block_of_intervals_is_split_into_calls():
    # 600 one-interval rows: the first round is one call of _QUAD_BLOCK
    # intervals and one of the other 88, and no row sees the split
    n = 600
    assert n > _QUAD_BLOCK == 512
    sizes = []

    def f(t, row):
        sizes.append(row.size)
        return np.sqrt(t) * (1.0 + row[:, None])

    lo, hi = np.zeros(n), np.linspace(0.5, 2.0, n)
    batch = adaptive_quad(f, lo, hi, rows=np.arange(n))
    assert sizes[:2] == [512, 88]
    assert max(sizes) <= 512 and len(sizes) > 2
    for r in (0, 1, 255, 511, 512, 513, 599):
        alone = quad(lambda t: f(t, np.full(len(t), r)), lo[r], hi[r])
        assert float.hex(batch[r].value) == float.hex(alone.value)
        assert batch[r][1:] == alone[1:]


def test_gk21_matches_quadpack_qk21():
    # scipy's quad with limit=1 returns QUADPACK's single qk21 result and its
    # scaled error estimate (the rough integrands keep that scaling active)
    for f, a, b in ((lambda t: np.exp(-t) * np.sin(10.0 * t), 0.0, 5.0),
                    (np.sqrt, 0.0, 1.0), (np.cos, 0.0, 1.0)):
        value, err, _ = integrate.quad(f, a, b, limit=1, full_output=1)[:3]
        _, _, mine_value, mine_err = _gk21(f, np.array([a]), np.array([b]))
        assert mine_value[0] == pytest.approx(value, rel=1e-14)
        assert mine_err[0] == pytest.approx(err, rel=1e-9)


def test_adaptive_quad_matches_quadpack(monkeypatch):
    f = lambda t: np.exp(-t) * np.sin(10.0 * t)
    exact = (10.0 - np.exp(-5.0) * (np.sin(50.0) + 10.0 * np.cos(50.0))) / 101.0
    quadpack = integrate.quad(f, 0.0, 5.0, epsabs=0.0, epsrel=1e-12)[0]
    assert quadpack == pytest.approx(exact, rel=1e-12)
    res = quad(f, 0.0, 5.0)
    assert res.error_estimate <= numerics._QUAD_REL_TOL * abs(res.value)
    assert abs(res.value - quadpack) <= res.error_estimate
    # at QUADPACK's tolerance, QUADPACK's value
    monkeypatch.setattr(numerics, "_QUAD_ABS_TOL", 0.0)
    monkeypatch.setattr(numerics, "_QUAD_REL_TOL", 1e-12)
    res = quad(f, 0.0, 5.0)
    assert res.value == pytest.approx(quadpack, rel=1e-12)
    assert res.error_estimate <= 1e-12 * abs(res.value)


def test_adaptive_quad_raises_when_the_budget_runs_out(monkeypatch):
    f = lambda t: np.sin(40.0 * t)
    monkeypatch.setattr(numerics, "_QUAD_LIMIT", 1)
    with pytest.raises(ToleranceNotMet):
        quad(f, 0.0, 10.0)
    monkeypatch.undo()
    assert quad(f, 0.0, 10.0).value == pytest.approx(
        (1.0 - np.cos(400.0)) / 40.0, abs=1e-10)


def test_adaptive_quad_rejects_a_nan_integrand():
    with pytest.raises(NumericalError):
        quad(lambda t: np.where(t > 0.7, np.nan, t), 0.0, 1.0)


def test_adaptive_quad_rejects_a_total_past_the_float_range():
    # every node is finite; 1e300 over a width of 1e10 is not
    with pytest.raises(NumericalError, match="is not finite"):
        quad(lambda t: np.full_like(t, 1e300), 0.0, 1e10)


def test_adaptive_quad_rejects_bad_range():
    with pytest.raises(DomainError):
        quad(np.sin, 1.0, 0.0)
    with pytest.raises(DomainError):
        quad(np.sin, 0.0, np.inf)
    with pytest.raises(DomainError):  # mismatched arrays
        quad(np.sin, np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(DomainError):  # one reversed interval
        quad(np.sin, np.array([0.0, 2.0]), np.array([1.0, 1.5]))
    # zero-width intervals are skipped: no nodes, no evaluations
    assert quad(np.sin, np.array([1.0, 2.0]),
                np.array([1.0, 2.0])) == (0.0, 0.0, 0)
    skipped = quad(np.sin, np.array([0.0, 1.0, 1.0]),
                   np.array([1.0, 1.0, 2.0]))
    assert skipped == quad(np.sin, np.array([0.0, 1.0]),
                           np.array([1.0, 2.0]))


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
