"""Linear algebra, quadrature, Volterra, and scalar-search building blocks."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from qsemimarkov import (
    DomainError,
    GridError,
    InvalidState,
    NonHermitianInput,
    NumericalError,
    ToleranceNotMet,
    adaptive_quad,
    binary_entropy,
    hermitian_eig,
    solve_volterra,
    trace_norm,
    von_neumann_entropy,
)
from qsemimarkov.measures import _excised_pieces
from qsemimarkov.numerics import _VOLTERRA_MAX_STEPS, _gk21

from golden_section import minimize_scalar


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


# ---------------------------------------------------------------- eigensolve

def test_hermitian_eig_descending_and_consistent():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 6):
        m = random_hermitian(rng, d)
        spec = hermitian_eig(m)
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        for lam, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            assert np.linalg.norm(m @ v - lam * v) < 1e-10


def test_hermitian_eig_of_a_stack_equals_per_matrix_spectra():
    rng = np.random.default_rng(16)
    stack = np.array([random_hermitian(rng, 3) for _ in range(6)]).reshape(
        2, 3, 3, 3)
    spec = hermitian_eig(stack)
    for idx in np.ndindex(2, 3):
        one = hermitian_eig(stack[idx])
        assert np.array_equal(spec.eigenvalues[idx], one.eigenvalues)
        assert np.array_equal(spec.eigenvectors[idx], one.eigenvectors)
    stack[1, 2, 0, 1] += 1.0
    with pytest.raises(NonHermitianInput):
        hermitian_eig(stack)


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        hermitian_eig(m)


def test_hermitian_eig_rejects_non_square():
    with pytest.raises(DomainError):
        hermitian_eig(np.zeros((2, 3)))


def test_trace_norm_matches_abs_eigenvalues():
    rng = np.random.default_rng(12)
    m = random_hermitian(rng, 4)
    expected = np.abs(np.linalg.eigvalsh(m)).sum()
    assert trace_norm(m) == pytest.approx(expected, rel=1e-12)


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)


def test_trace_norm_of_a_stack_equals_per_matrix_norms():
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


# ------------------------------------------------------------------ entropy

def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0)
    # frozen reference value for the (3/4, 1/4) mixture
    assert von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(
        0.8112781244591328, abs=1e-14
    )


def test_von_neumann_entropy_rejects_bad_states():
    with pytest.raises(InvalidState):
        von_neumann_entropy(np.diag([0.9, 0.3]))  # trace 1.2
    with pytest.raises(InvalidState):
        von_neumann_entropy(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidState):
        von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))


def random_state(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_von_neumann_entropy_of_a_stack():
    rng = np.random.default_rng(14)
    stack = np.array([random_state(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
    ent = von_neumann_entropy(stack)
    assert ent.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert ent[idx] == von_neumann_entropy(stack[idx])
    assert isinstance(von_neumann_entropy(stack[0, 0]), float)


@pytest.mark.parametrize("bad", [
    np.array([[0.5, 1.0], [0.0, 0.5]]),  # non-Hermitian
    np.diag([1.2, 0.8]),                 # trace 2
    np.diag([1.5, -0.5]),                # negative eigenvalue
])
def test_von_neumann_entropy_checks_every_state_of_a_stack(bad):
    rng = np.random.default_rng(15)
    stack = np.array([random_state(rng, 2) for _ in range(5)])
    stack[3] = bad
    with pytest.raises(InvalidState):
        von_neumann_entropy(stack)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))
    with pytest.raises(DomainError):
        binary_entropy(1.2)


# --------------------------------------------------------------- quadrature

def test_adaptive_quad_polynomial():
    res = adaptive_quad(lambda t: t**2, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.error_estimate < 1e-8
    assert type(res.evaluations) is int and res.evaluations > 0


def test_adaptive_quad_zero_width():
    assert adaptive_quad(np.sin, 2.0, 2.0).value == 0.0


def _excised(a, b, poles, excision):
    """Interval ends of [a, b] with the poles cut out, as sss_measure does."""
    pieces, holes = _excised_pieces(a, b, poles, excision)
    lo, hi = np.array(pieces).T
    return lo, hi, holes


def test_adaptive_quad_excises_singularities():
    # integral of 1/|t - 1/2| over [0,1] minus the (1/2 +- eps) hole
    eps = 1e-6
    lo, hi, _ = _excised(0.0, 1.0, [0.5], eps)
    res = adaptive_quad(lambda t: 1.0 / abs(t - 0.5), lo, hi)
    assert res.value == pytest.approx(2.0 * np.log(0.5 / eps), rel=1e-8)


def test_adaptive_quad_merges_overlapping_holes():
    # two poles closer than 2 eps: the holes merge into one interval
    lo, hi, holes = _excised(0.0, 1.0, [0.5, 0.5 + 1e-3], 1e-3)
    assert len(holes) == 1
    res = adaptive_quad(lambda t: 1.0, lo, hi)
    assert res.value == pytest.approx(1.0 - 3e-3, abs=1e-12)


def test_adaptive_quad_breakpoints_resolve_kinks():
    # |t - 1/3| has a kink; splitting the range there pins it exactly
    res = adaptive_quad(lambda t: abs(t - 1.0 / 3.0), [0.0, 1.0 / 3.0],
                        [1.0 / 3.0, 1.0])
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert res.value == pytest.approx(exact, abs=1e-14)


def test_adaptive_quad_takes_every_node_of_a_round_in_one_call():
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / np.abs(t - 0.5)

    eps = 1e-6
    res = adaptive_quad(f, np.array([0.0, 0.25, 0.5 + eps]),
                        np.array([0.25, 0.5 - eps, 1.0]))
    assert all(isinstance(t, np.ndarray) and t.shape[1:] == (21,)
               for t in calls)
    # the first round covers [0, 0.25], [0.25, 0.5 - eps] and [0.5 + eps, 1]
    assert calls[0].shape == (3, 21)
    assert res.evaluations % 21 == 0
    assert res.evaluations == sum(t.size for t in calls)
    # each round bisects several intervals at once
    assert len(calls) < res.evaluations // 21


def test_gk21_matches_quadpack_qk21():
    # scipy's quad with limit=1 returns QUADPACK's single qk21 result and its
    # scaled error estimate (the rough integrands keep that scaling active)
    for f, a, b in ((lambda t: np.exp(-t) * np.sin(10.0 * t), 0.0, 5.0),
                    (np.sqrt, 0.0, 1.0), (np.cos, 0.0, 1.0)):
        value, err, _ = integrate.quad(f, a, b, limit=1, full_output=1)[:3]
        _, _, mine_value, mine_err = _gk21(f, np.array([a]), np.array([b]))
        assert mine_value[0] == pytest.approx(value, rel=1e-14)
        assert mine_err[0] == pytest.approx(err, rel=1e-9)


def test_adaptive_quad_matches_quadpack():
    f = lambda t: np.exp(-t) * np.sin(10.0 * t)
    res = adaptive_quad(f, 0.0, 5.0, abs_tol=0.0, rel_tol=1e-12)
    exact = (10.0 - np.exp(-5.0) * (np.sin(50.0) + 10.0 * np.cos(50.0))) / 101.0
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.value == pytest.approx(
        integrate.quad(f, 0.0, 5.0, epsabs=0.0, epsrel=1e-12)[0], rel=1e-12)
    assert res.error_estimate <= 1e-12 * abs(res.value)


def test_adaptive_quad_raises_when_the_budget_runs_out():
    f = lambda t: np.sin(40.0 * t)
    with pytest.raises(ToleranceNotMet):
        adaptive_quad(f, 0.0, 10.0, limit=1)
    assert adaptive_quad(f, 0.0, 10.0).value == pytest.approx(
        (1.0 - np.cos(400.0)) / 40.0, abs=1e-10)


def test_adaptive_quad_rejects_a_nan_integrand():
    with pytest.raises(NumericalError):
        adaptive_quad(lambda t: np.where(t > 0.7, np.nan, t), 0.0, 1.0)


def test_adaptive_quad_rejects_bad_range():
    with pytest.raises(DomainError):
        adaptive_quad(np.sin, 1.0, 0.0)
    with pytest.raises(DomainError):
        adaptive_quad(np.sin, 0.0, np.inf)
    with pytest.raises(DomainError):  # mismatched arrays
        adaptive_quad(np.sin, np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(DomainError):  # one reversed interval
        adaptive_quad(np.sin, np.array([0.0, 2.0]), np.array([1.0, 1.5]))
    # zero-width intervals are skipped: no nodes, no evaluations
    assert adaptive_quad(np.sin, np.array([1.0, 2.0]),
                         np.array([1.0, 2.0])) == (0.0, 0.0, 0)
    skipped = adaptive_quad(np.sin, np.array([0.0, 1.0, 1.0]),
                            np.array([1.0, 1.0, 2.0]))
    assert skipped == adaptive_quad(np.sin, np.array([0.0, 1.0]),
                                    np.array([1.0, 2.0]))


# ------------------------------------------------------------------ Volterra

def test_solve_volterra_scalar_oracle():
    # d phi/dt = -int_0^t e^{-(t-tau)} phi(tau) d tau has the closed form
    # phi = e^{-t/2} (cos(r t) + sin(r t)/(2 r)), r = sqrt(3)/2
    def phi_exact(t):
        r = np.sqrt(3.0) / 2.0
        return np.exp(-t / 2) * (np.cos(r * t) + np.sin(r * t) / (2 * r))

    kernel = lambda t: np.exp(-t)
    gen = np.array([[-1.0]])
    sol = solve_volterra(kernel, gen, 5.0, 1e-3)
    dev = np.abs(sol.maps[:, 0, 0] - phi_exact(sol.times)).max()
    assert dev < 5e-7

    sol2 = solve_volterra(kernel, gen, 5.0, 2e-3)
    dev2 = np.abs(sol2.maps[:, 0, 0] - phi_exact(sol2.times)).max()
    assert 3.5 < dev2 / dev < 4.5  # second-order convergence


def _volterra_oracle(kernel, G, t_max, dt):
    """The original O(n^2) solver: two einsum memory sums per step."""
    n = int(round(t_max / dt))
    dim = G.shape[0]
    kvals = kernel(dt * np.arange(n + 1))
    maps = np.empty((n + 1, dim, dim), dtype=np.result_type(G, float))
    maps[0] = np.eye(dim)
    for m in range(n):
        w = kvals[m::-1].copy()
        w[0] *= 0.5
        w[-1] *= 0.5
        if m == 0:
            mem = np.zeros((dim, dim), dtype=maps.dtype)
        else:
            mem = np.einsum("n,nij->ij", w * dt, maps[: m + 1])
        rhs = G @ mem
        predicted = maps[m] + dt * rhs
        w1 = kvals[m + 1:: -1].copy()
        w1[0] *= 0.5
        w1[-1] *= 0.5
        mem1 = np.einsum("n,nij->ij", w1[: m + 1] * dt, maps[: m + 1])
        mem1 += dt * w1[m + 1] * predicted
        maps[m + 1] = maps[m] + 0.5 * dt * (rhs + G @ mem1)
    return maps


@pytest.mark.parametrize("generator, kernel", [
    (np.array([[-1.0]]), lambda t: np.exp(-t)),
    # dephasing bracket Z.Z - 1 as a complex superoperator, k = p e^{-s t}
    (np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)
     - np.eye(4), lambda t: 3.0 * np.exp(-t)),
])
def test_solve_volterra_matches_einsum_oracle(generator, kernel):
    sol = solve_volterra(kernel, generator, 2.5, 0.01)  # 250 steps
    expected = _volterra_oracle(kernel, generator, 2.5, 0.01)
    assert sol.maps.dtype == expected.dtype
    assert np.abs(sol.maps - expected).max() <= 1e-13


def test_solve_volterra_initial_condition_and_grid():
    sol = solve_volterra(lambda t: np.exp(-t), np.array([[-1.0]]), 1.0, 0.25)
    assert sol.times[0] == 0.0
    assert sol.maps[0][0, 0] == 1.0
    assert sol.times.shape[0] == sol.maps.shape[0] == 5


def test_solve_volterra_rejects_bad_steps():
    gen = np.array([[-1.0]])
    with pytest.raises(GridError):
        solve_volterra(lambda t: t, gen, 1.0, 0.0)
    with pytest.raises(GridError):
        solve_volterra(lambda t: t, gen, 0.1, 0.5)
    with pytest.raises(NumericalError):
        solve_volterra(lambda t: np.full_like(t, np.inf), gen, 1.0, 0.1)


def test_solve_volterra_refuses_steps_past_the_cap_before_allocating():
    calls = []

    def kernel(t):
        calls.append(t)
        return np.ones_like(t)

    dt = 1e-3
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="cap"):
            solve_volterra(kernel, np.eye(4), (_VOLTERRA_MAX_STEPS + 1) * dt,
                           dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the grid alone would be 0.8 MB and the maps 12.8 MB
    assert calls == [] and peak < 100_000


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
