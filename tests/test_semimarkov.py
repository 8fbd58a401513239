"""Waiting-time distributions, coherence factors, rates, maps, kernels."""

import cmath
import json
import re

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from qsemimarkov import (
    DephasingSemiMarkov,
    DomainError,
    ExpConvolutionWTD,
    ExponentialWTD,
    GridError,
    NonUnitalSemiMarkov,
    REGIME_DIVISIBLE,
    REGIME_INDIVISIBLE,
    REGIME_SEMIGROUP,
    Singularity,
    TanhSechWTD,
    coherence_zeros,
    gamma_dephasing,
    gamma_nonunital,
    q_of_t,
    solve_volterra,
)
from qsemimarkov import semimarkov

import mp_closed_forms as mp
from superop_route import apply_superop, jump_superop, superop_at

Z = np.diag([1.0, -1.0])


# ----------------------------------------------------- waiting-time classes

def _exact_survival(wtd, t):
    """The law's survival at mpmath precision, from its float rates."""
    if isinstance(wtd, ExpConvolutionWTD):
        l1, l2 = mpmath.mpf(wtd.rate1), mpmath.mpf(wtd.rate2)
        if l1 == l2:
            return (1 + l1 * t) * mpmath.exp(-l1 * t)
        return (l2 * mpmath.exp(-l1 * t)
                - l1 * mpmath.exp(-l2 * t)) / (l2 - l1)
    rate = mpmath.mpf(wtd.rate)
    if isinstance(wtd, TanhSechWTD):
        return mpmath.sech(rate * t)
    return mpmath.exp(-rate * t)


@pytest.mark.parametrize("wtd", [
    ExponentialWTD(rate=1.3),
    ExpConvolutionWTD(rate1=1.0, rate2=2.5),
    ExpConvolutionWTD(rate1=0.8, rate2=0.8),
    TanhSechWTD(rate=0.9),
    ExpConvolutionWTD(rate1=1.0, rate2=1.0 + 1e-9),
])
def test_wtd_density_survival_consistency(wtd):
    # each law's survival against its closed form at 50 digits, the
    # two-stage one (l2 e^{-l1 t} - l1 e^{-l2 t}) / (l2 - l1), also where
    # the rates differ by 1e-9 and that difference cancels. exp turns the
    # half-ulp rounding of rate * t into that much relative error per unit
    # of its argument, so the bound grows with the largest rate times t
    ts = np.array([0.0, 1e-6, 0.3, 1.1, 2.7, 6.0, 30.0])
    got = np.asarray(wtd.survival(ts))
    rate = max(getattr(wtd, name, 0.0) for name in ("rate", "rate1", "rate2"))
    with mpmath.workdps(50):
        for g, t in zip(got, ts):
            err = abs(g / _exact_survival(wtd, mpmath.mpf(t)) - 1)
            assert err <= (4.0 + rate * t) * np.spacing(1.0), (t, err)


def test_wtd_is_normalized():
    for wtd in (ExponentialWTD(1.0), ExpConvolutionWTD(1.0, 2.0), TanhSechWTD(1.0)):
        assert float(wtd.survival(60.0)) < 1e-20  # proper distribution


@pytest.mark.parametrize("wtd", [ExponentialWTD(rate=2.0), TanhSechWTD(rate=0.7)])
def test_inverse_cdf_round_trip(wtd):
    u = np.linspace(0.0, 0.999, 64)
    t = wtd.inverse_cdf(u)
    assert np.abs((1.0 - np.asarray(wtd.survival(t))) - u).max() < 1e-12
    # the walk calls the formula alone; the public method keeps the check
    for bad in (1.0, -0.1, [0.5, 1.0]):
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\)"):
            wtd.inverse_cdf(bad)


def test_expconv_stable_near_equal_rates():
    # the expm1 form must not lose accuracy when the rates nearly coincide
    near = ExpConvolutionWTD(rate1=1.0, rate2=1.0 + 1e-9)
    equal = ExpConvolutionWTD(rate1=1.0, rate2=1.0)
    ts = np.array([0.1, 1.0, 5.0])
    assert np.abs(near.survival(ts) - equal.survival(ts)).max() < 1e-8


def test_survival_is_0_where_rate_times_t_overflows():
    # warnings are errors here; the Erlang form (1 + rt) e^{-rt} is inf * 0
    # there, and its limit is 0
    ts = [0.0, 1e-300, 1.0, 1e10]
    equal = np.asarray(ExpConvolutionWTD(1e300, 1e300).survival(ts))
    assert equal[[0, 2, 3]].tolist() == [1.0, 0.0, 0.0]
    assert equal[1] == pytest.approx(2.0 / np.e, rel=1e-15)
    assert float(ExpConvolutionWTD(1e300, 1e300).survival(1e10)) == 0.0
    assert np.asarray(ExpConvolutionWTD(1e300, 2e300).survival(
        [1e10, np.inf])).tolist() == [0.0, 0.0]
    assert float(ExponentialWTD(1e10).survival(1e300)) == 0.0


def test_wtd_validation():
    with pytest.raises(DomainError):
        ExponentialWTD(rate=0.0)
    with pytest.raises(DomainError):
        ExpConvolutionWTD(rate1=1.0, rate2=-2.0)
    with pytest.raises(DomainError):
        TanhSechWTD(rate=np.inf)


# -------------------------------------------------------------- kernels

def test_delta_kernel_limit_is_a_semigroup():
    # exponential waits: the memory kernel is delta-correlated and the map
    # is exp(t lambda (J - 1)); off-diagonals decay as exp(-2 lambda t)
    lam = 0.8
    G = lam * (jump_superop(DephasingSemiMarkov(s=1.0, p=0.0)) - np.eye(4))
    for t in (0.3, 1.0, 2.5):
        S = expm(t * G)
        expected = np.diag([1.0, np.exp(-2 * lam * t), np.exp(-2 * lam * t), 1.0])
        assert np.abs(S - expected).max() < 1e-12


# ---------------------------------------------------------------- q(t)

def q_reference(s, p, t):
    """Direct complex-arithmetic evaluation of the defining formula."""
    e = cmath.sqrt(1.0 - 8.0 * p / s**2)
    if e == 0:
        return float(np.exp(-s * t / 2) * (1.0 + s * t / 2))
    z = e * s * t / 2.0
    return (cmath.exp(-s * t / 2) * (cmath.cosh(z) + cmath.sinh(z) / e)).real


@pytest.mark.parametrize("s,p", [(1.0, 0.05), (1.0, 0.125), (1.0, 3.0),
                                 (2.0, 0.5), (3.0, 0.3), (0.7, 5.0)])
def test_q_matches_defining_formula(s, p):
    proc = DephasingSemiMarkov(s=s, p=p)
    for t in (0.0, 0.2, 1.0, 3.7, 10.0):
        assert float(q_of_t(proc, t)) == pytest.approx(
            q_reference(s, p, t), abs=1e-12
        )


def test_q_initial_value_and_large_time():
    for p in (0.0, 0.05, 0.125, 2.0):
        proc = DephasingSemiMarkov(s=1.0, p=p)
        assert float(q_of_t(proc, 0.0)) == 1.0
    # stable form must not overflow at large times in the real branch
    q = float(q_of_t(DephasingSemiMarkov(s=1.0, p=0.1), 500.0))
    assert 0.0 < q < 1e-40


def test_q_branch_continuity():
    # crossing the eta = 0 boundary changes branch but not the value
    eps = 1e-7
    lo = float(q_of_t(DephasingSemiMarkov(s=1.0, p=0.125 * (1 - eps)), 2.0))
    mid = float(q_of_t(DephasingSemiMarkov(s=1.0, p=0.125), 2.0))
    hi = float(q_of_t(DephasingSemiMarkov(s=1.0, p=0.125 * (1 + eps)), 2.0))
    assert abs(lo - mid) < 1e-6
    assert abs(hi - mid) < 1e-6


def test_same_wtd_convolution_identity():
    # rates lambda, lambda: q = exp(-lambda t)(cos lambda t + sin lambda t)
    lam = 0.8
    proc = DephasingSemiMarkov.from_rates(lam, lam)
    ts = np.linspace(0.0, 5.0, 21)
    expected = np.exp(-lam * ts) * (np.cos(lam * ts) + np.sin(lam * ts))
    assert np.abs(np.asarray(q_of_t(proc, ts)) - expected).max() < 1e-12


# ------------------------------------------------------------------- gamma

def gamma_reference(s, p, t):
    """2p / (s eta coth(s t eta / 2) + s), evaluated in complex arithmetic."""
    e = cmath.sqrt(1.0 - 8.0 * p / s**2)
    z = s * t * e / 2.0
    coth = cmath.cosh(z) / cmath.sinh(z)
    return (2.0 * p / (s * e * coth + s)).real


@pytest.mark.parametrize("s,p,t", [
    (1.0, 0.1, 0.7), (1.0, 3.0, 0.3), (2.0, 0.3, 1.2), (1.0, 0.12, 5.0),
    # q ~ 1e-13 and 1e-651 here, but neither is a pole of gamma
    (1.0, 3.0, 60.0), (1.0, 3.0, 3000.0),
])
def test_gamma_matches_coth_closed_form(s, p, t):
    proc = DephasingSemiMarkov(s=s, p=p)
    assert gamma_dephasing(proc, t) == pytest.approx(
        gamma_reference(s, p, t), rel=1e-10
    )


def test_gamma_limits():
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    assert gamma_dephasing(proc, 0.0) == 0.0
    assert gamma_dephasing(DephasingSemiMarkov(s=1.0, p=0.0), 3.0) == 0.0
    # long-time limit 2p / (s (1 + eta)) in the CP-divisible branch
    e = np.sqrt(1.0 - 0.8)
    assert gamma_dephasing(proc, 60.0) == pytest.approx(
        0.2 / (1.0 + e), rel=1e-10
    )
    # a negative time is refused by each closed form, a NaN one is not
    for f, one in ((gamma_dephasing, proc), (q_of_t, proc),
                   (gamma_nonunital, NonUnitalSemiMarkov(1.0))):
        for t in (-1.0, np.array([0.5, -1.0, np.nan])):
            with pytest.raises(DomainError, match="got -1$"):
                f(one, t)
        assert np.isnan(f(one, np.nan))


def test_gamma_raises_at_poles():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    t_star = float(coherence_zeros(proc, 1.0)[0])
    with pytest.raises(Singularity):
        gamma_dephasing(proc, t_star)
    # finite (large) just outside the pole
    assert abs(gamma_dephasing(proc, t_star - 1e-6)) > 1e3


@pytest.mark.parametrize("s,p,t_max,n", [
    (1.0, 3.0, 6.0, 600), (1.0, 0.1, 6.0, 5000), (1.0, 0.125, 6.0, 5000),
    (0.93, 2.7, 6.0, 5000), (1.1, 0.5, 6.0, 5000), (1.0, 0.0, 6.0, 50),
    (1.0, 3.0, 1.481591043656218, 3),  # middle point on the first pole
])
def test_gamma_on_a_grid_equals_the_scalar_loop(s, p, t_max, n):
    proc = DephasingSemiMarkov(s=s, p=p)
    ts = np.linspace(0.0, t_max, n)

    def scalar(t):
        try:
            return gamma_dephasing(proc, float(t))
        except Singularity:
            return np.nan

    loop = np.array([scalar(t) for t in ts])
    grid = gamma_dephasing(proc, ts)
    assert np.array_equal(grid, loop, equal_nan=True)
    assert np.array_equal(np.signbit(grid), np.signbit(loop))  # +0.0 at t = 0


def test_gamma_nonunital():
    proc = NonUnitalSemiMarkov(rate=1.3)
    ts = np.linspace(0.0, 4.0, 9)
    assert np.abs(
        np.asarray(gamma_nonunital(proc, ts)) - 1.3 * np.tanh(1.3 * ts)
    ).max() < 1e-14
    # gamma = -d ln g / dt
    h = 1e-6
    fd = -(np.log(np.asarray(proc.survival(2.0 + h)))
           - np.log(np.asarray(proc.survival(2.0 - h)))) / (2 * h)
    assert float(gamma_nonunital(proc, 2.0)) == pytest.approx(float(fd), abs=1e-8)


# ------------------------------------------------------------- zeros, regime

def test_coherence_zeros():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    zs = coherence_zeros(proc, 10.0)
    assert zs.size == 8
    for t_k in zs:
        assert abs(float(q_of_t(proc, t_k))) < 1e-12
        # simple zeros: q changes sign across each
        assert q_of_t(proc, t_k - 1e-6) * q_of_t(proc, t_k + 1e-6) < 0.0
    assert np.all(np.diff(zs) > 0)
    assert coherence_zeros(DephasingSemiMarkov(s=1.0, p=0.1), 100.0).size == 0
    assert coherence_zeros(DephasingSemiMarkov(s=2.0, p=0.5), 100.0).size == 0
    # 7.6e11 zeros are refused before any is allocated
    with pytest.raises(GridError, match="cap"):
        coherence_zeros(proc, 1e12)
    with pytest.raises(DomainError, match="non-negative"):
        coherence_zeros(proc, -1.0)
    # also where q has no zeros to count
    with pytest.raises(DomainError, match="got nan"):
        coherence_zeros(DephasingSemiMarkov(s=1.0, p=0.1), np.nan)


@pytest.mark.parametrize("t_max, error, match",
                         [(np.inf, GridError, "cap"),
                          (np.nan, DomainError, "got nan")],
                         ids=["inf", "nan"])
def test_coherence_zeros_refuses_an_uncountable_horizon(t_max, error, match):
    # the pole count is compared as a float, so it is never cast to int; a
    # NaN horizon is refused by name before it is counted
    with pytest.raises(error, match=match):
        coherence_zeros(DephasingSemiMarkov(s=1.0, p=3.0), t_max)


def test_q_is_zero_where_the_phase_overflows():
    # x = s|eta|t/2, or st/2 at p = s^2/8, overflows where e^{-st/2} is
    # already 0: q is 0, not NaN, and no overflow warning is raised
    assert q_of_t(DephasingSemiMarkov(1, 3), 1e308) == 0
    for proc in (DephasingSemiMarkov(1, 3), DephasingSemiMarkov(4, 2),
                 DephasingSemiMarkov(1, 0.1)):
        q = q_of_t(proc, np.array([0.0, 1e308]))
        assert np.array_equal(q, [1.0, 0.0])


@pytest.mark.parametrize("s, p", [(1.0, 0.1), (4.0, 0.1), (4.0, 2.0),
                                  (1.0, 0.0)], ids=["real", "real-s4",
                                                    "boundary", "semigroup"])
def test_closed_forms_take_their_limits_where_s_t_overflows(s, p):
    # no RuntimeWarning: the test run turns warnings into errors
    proc = DephasingSemiMarkov(s=s, p=p)
    t = np.array([1.0, 1e308])
    gamma = gamma_dephasing(proc, t)
    w = np.sqrt(abs(1.0 - 8.0 * p / s**2))
    assert gamma[1] == pytest.approx(s * (1.0 - w) / 4.0, rel=1e-12)
    log_q = semimarkov._log_abs_q(proc, t)
    assert np.isfinite(log_q[0])
    assert log_q[1] < -1e300 or p == 0.0  # -inf where s t overflows


def test_oscillating_closed_forms_have_no_limit_where_the_phase_overflows():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    assert np.isnan(gamma_dephasing(proc, np.array([1e308]))).all()
    assert semimarkov._log_abs_q(proc, np.array([1e308]))[0] == -np.inf
    with pytest.raises(GridError, match="cap"):
        coherence_zeros(proc, 1e308)


@pytest.mark.parametrize("p", [0.125, 0.1, 3.0, [0.125, 0.1, 3.0]],
                         ids=["boundary", "real", "imag", "all-branches"])
def test_a_nan_time_gives_nan_on_every_branch(p):
    # only an overflowing phase is taken as the limit: NaN is no phase
    proc = DephasingSemiMarkov(s=1.0, p=p)
    t = np.full(np.shape(p), np.nan)
    for f in (q_of_t, semimarkov._log_abs_q, gamma_dephasing):
        assert np.isnan(f(proc, t)).all()
        assert np.isnan(f(proc, np.nan)).all()
    # the limits at an infinite time stay: q = 0, ln|q| = -inf, and
    # gamma = s/4 at p = s^2/8, also where only 4 s t overflows
    for t in (np.inf, 1e308):
        assert np.array_equal(q_of_t(proc, t), np.zeros(np.shape(p)))
    boundary = DephasingSemiMarkov(s=1.0, p=0.125)
    assert gamma_dephasing(boundary, np.array([1e308, np.inf]))[0] == 0.25
    assert gamma_dephasing(boundary, np.inf) == 0.25


def test_regime_classification():
    assert DephasingSemiMarkov(s=1.0, p=0.0).regime() == REGIME_SEMIGROUP
    assert DephasingSemiMarkov(s=1.0, p=0.125).regime() == REGIME_DIVISIBLE
    assert DephasingSemiMarkov(s=1.0, p=0.125 + 1e-13).regime() == REGIME_INDIVISIBLE
    assert DephasingSemiMarkov(s=1.0, p=3.0).regime() == REGIME_INDIVISIBLE


@pytest.mark.parametrize("s", [0.9, 1.0, 1.1, 3.0])
def test_every_reader_of_the_branch_agrees_beside_the_boundary(capsys, s):
    """At p = s^2/8 and its float neighbours the regime, the branch, the
    measure's cp_indivisible column and the pole lattice all say whether
    p > s^2/8, as exact rational arithmetic does: a window of 1e-9 about
    the boundary once took the neighbour above as eta = 0, with no poles.
    At s = 0.9 the double s^2/8 itself lies above the boundary, as the
    float s^2 rounds up."""
    from fractions import Fraction

    from qsemimarkov.cli import run

    edge = s * s / 8
    for p in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
        above = Fraction(p) > Fraction(s) ** 2 / 8
        proc = DephasingSemiMarkov(s, float(p))
        assert (proc.regime() == REGIME_INDIVISIBLE) == above
        assert (proc.branch == semimarkov._IMAG) == above
        # |eta| >= 1e-9 above, so the first zero comes before t = 1e13
        counts = semimarkov._zero_lattice(proc, 1e13)[2]
        assert (counts > 0).tolist() == [above]
        assert run(["measure", "--s", repr(s), "--p", repr(float(p)),
                    "--format", "json"]) == 0
        column = json.loads(capsys.readouterr().out)["columns"]
        assert column["cp_indivisible"] == [float(above)]


def test_coherence_zeros_just_past_the_boundary():
    """|eta| = 2e-5 puts three zeros of q before t = 1e6, at
    t_k = 2 (k pi - arctan w)/(s w); the 1e-9 window listed none."""
    p = 0.12500000005
    expected = [float(t) for t in mp.zeros(1.0, p, 1e6)]
    zeros = coherence_zeros(DephasingSemiMarkov(1.0, p), 1e6)
    assert len(expected) == 3 and zeros == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("delta", [0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6,
                                   -1e-6])
@pytest.mark.parametrize("s", [0.9, 1.0, 3.0])
def test_closed_forms_near_the_boundary_match_an_mpmath_oracle(s, delta):
    """p = (s^2/8)(1 + delta), where a window |1 - 8p/s^2| < 1e-9 once took
    eta as 0: gamma was up to 2.5e-6 off, ln|q| 1.3e-6, q 3.7e-5 and t(r)
    1.9e-8.

    ln|q| and gamma are checked to 2e-14 relative on t in [1e-3, 1e4].
    q is e^{-x} times a factor near 1, with x ~ s t/2 formed in floats
    to within about 1 ulp, which moves q by x ulp whatever the form; so
    q is checked to 2e-14 max(1, s t/2) relative, wherever it is a
    normal float (ln|q| covers the rest). The grid keeps clear of the
    zeros of q (no point within 4% of one), where no float t pins q or
    gamma to a relative error.
    t(r) is checked to 1e-14 relative on r in [-b/2, 0.9 b], with b the
    top rate s(1 - eta)/4 (s/4 where q oscillates)."""
    p = s * s / 8 * (1.0 + delta)
    proc = DephasingSemiMarkov(s, p)
    ts = np.geomspace(1e-3, 1e4, 41)
    with mpmath.workdps(50):
        exact = np.array([[float(f(s, p, t)) for t in ts]
                          for f in (mp.q, mp.log_abs_q, mp.gamma)])
        e2, e = mp.eta(s, p)
        top = float(s * (1 - e) / 4) if e2 >= 0 else s / 4
        rs = np.linspace(-top / 2, 0.9 * top, 37)
        levels = [float(mp.level_time(s, p, r)) for r in rs]
    normal = np.abs(exact[0]) >= np.finfo(float).tiny
    q, want = q_of_t(proc, ts)[normal], exact[0][normal]
    bound = 2e-14 * np.maximum(1.0, s * ts[normal] / 2) * np.abs(want)
    assert np.all(np.abs(q - want) <= bound)
    for got, want in ((semimarkov._log_abs_q(proc, ts), exact[1]),
                      (gamma_dephasing(proc, ts), exact[2])):
        assert np.all(np.abs(got - want) <= 2e-14 * np.abs(want))
    got = semimarkov._level_time(proc)[0](rs)
    assert np.all(np.abs(got - levels) <= 1e-14 * np.abs(levels))


def test_from_rates():
    proc = DephasingSemiMarkov.from_rates(1.0, 2.0)
    assert proc.s == 3.0 and proc.p == 2.0
    with pytest.raises(DomainError):
        DephasingSemiMarkov.from_rates(1.0, 0.0)
    with pytest.raises(DomainError):
        DephasingSemiMarkov(s=1.0, p=-0.1)
    with pytest.raises(DomainError):
        NonUnitalSemiMarkov(rate=-1.0)


@pytest.mark.parametrize("p, bad", [
    ([0.1, -2.5, 3.0, -7.0], "-2.5"),
    ([[0.1, 3.0], [np.nan, -1.0]], "nan"),
    (np.array([0.0, np.inf]), "inf"),
    (-0.1, "-0.1"),
])
def test_array_p_refuses_its_first_bad_element_by_value(p, bad):
    with pytest.raises(DomainError) as info:
        DephasingSemiMarkov(s=1.0, p=p)
    assert str(info.value) == f"p must be non-negative and finite, got {bad}"


def test_array_p_holds_one_process_per_element():
    ps = np.array([[0.0, 0.125], [3.0, 0.1]])
    proc = DephasingSemiMarkov(s=1.0, p=ps.tolist())
    assert proc.p.shape == proc.branch.shape == proc.w.shape == (2, 2)
    for index in np.ndindex(ps.shape):
        one = DephasingSemiMarkov(s=1.0, p=ps[index])
        assert (proc.branch[index], proc.w[index]) == (one.branch, one.w)
        taken = proc.take(index)
        assert (taken.p, taken.branch, taken.w) == (one.p, one.branch, one.w)
    assert DephasingSemiMarkov(s=1.0, p=3.0).p == 3.0  # a float stays one
    assert repr(DephasingSemiMarkov(s=1.0, p=3.0)) == \
        "DephasingSemiMarkov(s=1.0, p=3.0)"


@pytest.mark.parametrize("s", [1.0, 1e-300, 5e-324])
def test_p_zero_is_the_semigroup_for_every_s(s):
    """Also where s^2 underflows to 0: no 0/0 in 8p/s^2."""
    proc = DephasingSemiMarkov(s=s, p=0.0)
    assert proc.regime() == REGIME_SEMIGROUP
    assert proc.w == 1.0
    assert np.all(q_of_t(proc, [0.0, 1.0, 1e300]) == 1.0)
    assert np.all(gamma_dephasing(proc, [0.0, 1.0]) == 0.0)


# the real branch twice, p = s^2/8 and the oscillating branch
@pytest.mark.parametrize("p", [0.01, 0.124, 0.125, 3.0])
def test_q_is_exactly_one_at_time_zero(p):
    """The real branch's partial fractions rounded to 1 - 1.1e-16 at
    p = 0.01 and 1 - 7.8e-16 at p = 0.124 (s = 1)."""
    assert q_of_t(DephasingSemiMarkov(s=1.0, p=p), 0.0) == 1.0
    ps = [p, 0.01, 0.124, 0.125, 3.0]  # every branch in one array
    q = q_of_t(DephasingSemiMarkov(s=1.0, p=ps), np.zeros(len(ps)))
    assert np.all(q == 1.0)
    assert np.all(q_of_t(DephasingSemiMarkov(s=1.0, p=p), [0.0, 1e-9]) <= 1.0)


@pytest.mark.parametrize("s, p", [(1e-300, 2.0), (1.0, 1e308), (1e-200, 1.0)])
def test_q_refuses_a_p_whose_8p_by_s2_overflows(monkeypatch, s, p):
    """|eta| is inf there, so the phase at t = 0 would be 0 * inf: q(0)
    came out 0, not 1, and the rate NaN without an error. The process is
    refused where it is built, an array p at its first such element."""
    reached = []
    monkeypatch.setattr(semimarkov, "gamma_dephasing",
                        lambda *args: reached.append(args))
    says = re.escape(f"8p/s^2 overflows at s = {s!r}, p = {p!r}")
    with pytest.raises(DomainError, match=says):
        q_of_t(DephasingSemiMarkov(s=s, p=p), 0.0)
    with pytest.raises(DomainError, match=says):
        q_of_t(DephasingSemiMarkov(s=s, p=[0.0, p, p / 2]), [0.0, 1.0])
    with pytest.raises(DomainError, match=says):
        semimarkov.gamma_dephasing(DephasingSemiMarkov(s=s, p=p), 1.0)
    assert reached == []
    assert q_of_t(DephasingSemiMarkov(s=s, p=0.0), 0.0) == 1.0


@pytest.mark.parametrize("s", [1e200, 1e300, np.float64(1.4e154)])
def test_s_whose_square_overflows_is_refused(s):
    with pytest.raises(DomainError, match="finite square"):
        DephasingSemiMarkov(s=s, p=0.1)
    assert DephasingSemiMarkov(s=1.3e154, p=0.1).s ** 2 < np.inf


# ------------------------------------------------------------ maps, superops

@pytest.mark.parametrize("p", [[0.1, 3.0], [3.0]])
def test_regime_refuses_an_array_p(p):
    """Also an array of one element: the caller gets one type of error, not
    numpy's TypeError or truth-value ValueError."""
    with pytest.raises(DomainError, match="takes one process, not an array p"):
        DephasingSemiMarkov(s=1.0, p=p).regime()


def test_dephasing_map_and_superop():
    proc = DephasingSemiMarkov(s=1.0, p=0.3)
    t = 1.4
    q = float(q_of_t(proc, t))
    S = superop_at(proc, t)
    assert np.abs(S - np.diag([1.0, q, q, 1.0])).max() < 1e-12
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    out = apply_superop(S, rho)
    assert out[0, 1] == pytest.approx(q * rho[0, 1])
    assert out[0, 0] == pytest.approx(rho[0, 0])


def test_jump_superops():
    deph = DephasingSemiMarkov(s=1.0, p=0.3)
    assert np.abs(jump_superop(deph) - np.kron(Z, Z)).max() == 0.0
    nonu = NonUnitalSemiMarkov(rate=1.0)
    J = jump_superop(nonu)
    rho = np.array([[0.3, 0.5], [0.2, 0.7]], dtype=complex)
    out = apply_superop(J, rho)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = rho.trace()
    assert np.abs(out - expected).max() < 1e-14


def test_superop_at_rejects_unknown_family():
    # the oracle's superop_at builds on jump_superop, which must refuse
    # a process of neither family rather than return a wrong channel
    with pytest.raises(DomainError, match="unknown process type"):
        superop_at(object(), 1.0)
    with pytest.raises(DomainError, match="unknown process type"):
        jump_superop(object())


def _jump_closure(proc):
    """The per-jump channel written as a function of the state."""
    if isinstance(proc, DephasingSemiMarkov):
        return lambda rho: Z @ rho @ Z
    def project(rho):
        out = np.zeros_like(rho)
        out[0, 0] = rho.trace()
        return out
    return project


@pytest.mark.parametrize("proc", [DephasingSemiMarkov(s=1.0, p=0.3),
                                  NonUnitalSemiMarkov(rate=1.0)])
def test_jump_superop_action_equals_the_channel_closure(proc):
    rng = np.random.default_rng(31)
    J, jump = jump_superop(proc), _jump_closure(proc)
    for _ in range(1000):
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.array_equal(apply_superop(J, rho), jump(rho))


# ------------------------------------------------------- time-local equation

def _assert_rate_generates_map(proc, gamma, ts, keep):
    # dPhi/dt = gamma(t) (J - 1) Phi(t), with dPhi/dt by central differences
    h = 1e-5
    dphi = (superop_at(proc, ts + h) - superop_at(proc, ts - h)) / (2 * h)
    generator = (jump_superop(proc) - np.eye(4)) @ superop_at(proc, ts)
    err = np.abs(dphi - gamma(proc, ts)[:, None, None] * generator)
    assert err[keep].max() <= 1e-8


def test_evolve_timelocal_dephasing_matches_q():
    ts = np.linspace(0.01, 6.0, 600)
    for p in (0.1, 0.125, 3.0):
        proc = DephasingSemiMarkov(s=1.0, p=p)
        qs = np.asarray(q_of_t(proc, ts))
        _assert_rate_generates_map(proc, gamma_dephasing, ts,
                                   np.abs(qs) > 1e-3)
    # the state it generates from |+><+| has coherence q(t) / 2
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    ts = np.linspace(0.0, 5.0, 11)
    states = apply_superop(superop_at(proc, ts), rho0)
    qs = np.asarray(q_of_t(proc, ts))
    assert np.abs(states[:, 0, 1] - 0.5 * qs).max() < 1e-9
    assert np.abs(states[:, 0, 0] - 0.5).max() < 1e-12


def test_evolve_timelocal_nonunital_matches_affine_form():
    proc = NonUnitalSemiMarkov(rate=1.0)
    _assert_rate_generates_map(proc, gamma_nonunital,
                               np.linspace(0.01, 6.0, 600), slice(None))
    # the state it generates is g(t) rho0 + (1 - g(t)) |0><0|
    rho0 = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
    ts = np.linspace(0.0, 3.0, 7)
    states = apply_superop(superop_at(proc, ts), rho0)
    g = np.asarray(proc.survival(ts))[:, None, None]
    expected = g * rho0 + (1 - g) * np.diag([1.0, 0.0])
    assert np.abs(states - expected).max() < 1e-9


# ----------------------------------------------- memory-kernel consistency

def test_volterra_reproduces_q():
    # the time-nonlocal equation with k(t) = p e^{-st} and the sigma_z
    # conjugation bracket must reproduce the closed-form coherence factor;
    # the bracket acts on the coherence entries as the -2 the solver fixes
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    bracket = jump_superop(proc) - np.eye(4)
    assert np.array_equal(bracket, np.diag([0.0, -2.0, -2.0, 0.0]))
    sol = solve_volterra(0.1, 1.0, 3.0, 2e-3)
    dev = np.abs(sol.coherence - np.asarray(q_of_t(proc, sol.times))).max()
    assert dev < 1e-6
