"""Deviation-from-semigroup measure, revival measure, divisibility, Holevo."""

import decimal

import numpy as np
import pytest
from scipy.optimize import brentq

from qsemimarkov import (
    DephasingSemiMarkov,
    DomainError,
    GridError,
    InvalidState,
    NoSignChange,
    NonUnitalSemiMarkov,
    PLUS_STATE,
    MINUS_STATE,
    SSSConfig,
    adaptive_quad,
    binary_entropy,
    blp_measure,
    coherence_zeros,
    cp_divisibility_scan,
    divisibility_boundary,
    gamma_dephasing,
    gamma_nonunital,
    holevo_curve,
    q_of_t,
    sss_measure,
)

from qsemimarkov import numerics, semimarkov
from qsemimarkov.measures import _excised_pieces

from golden_section import minimize_scalar


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(DomainError):
        SSSConfig(horizon=0.0)
    with pytest.raises(DomainError):
        SSSConfig(mode="median")
    with pytest.raises(DomainError):
        SSSConfig(form="kraus")
    with pytest.raises(DomainError):
        SSSConfig(gamma_ref=np.nan)
    with pytest.raises(DomainError):
        SSSConfig(gamma_max=-1.0)
    with pytest.raises(DomainError):
        SSSConfig(excision=0.0)
    with pytest.raises(DomainError):
        sss_measure(object(), SSSConfig())


# ------------------------------------------------------- rate form, fixed ref

def test_fixed_reference_equals_log_coherence_decay():
    # for a non-negative rate, (1/T) int_0^T gamma = -ln q(T) / (2T)
    for p in (0.02, 0.1, 0.125):
        proc = DephasingSemiMarkov(s=1.0, p=p)
        result = sss_measure(proc, SSSConfig(horizon=1.0, mode="fixed"))
        expected = -np.log(float(q_of_t(proc, 1.0))) / 2.0
        assert result.xi == pytest.approx(expected, rel=1e-9)
        assert result.zeta == pytest.approx(result.xi / (1 + result.xi), rel=1e-12)
        assert result.gamma_ref == 0.0
        assert result.excised == ()


def test_fixed_reference_with_pole_excision():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    result = sss_measure(proc, SSSConfig(horizon=1.0, excision=1e-6))
    assert result.xi == pytest.approx(12.7802806321268, rel=1e-6)
    t_star = float(coherence_zeros(proc, 1.0)[0])
    assert len(result.excised) == 1
    lo, hi = result.excised[0]
    assert type(lo) is float and type(hi) is float  # CSV metadata repr
    assert lo == pytest.approx(t_star - 1e-6, abs=1e-12)
    assert hi == pytest.approx(t_star + 1e-6, abs=1e-12)


def test_semigroup_scores_zero_against_zero_reference():
    result = sss_measure(DephasingSemiMarkov(s=1.0, p=0.0), SSSConfig())
    assert result.xi == 0.0
    assert result.zeta == 0.0


def test_excision_swallowing_horizon_raises():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    with pytest.raises(GridError):
        sss_measure(proc, SSSConfig(horizon=1.0, excision=0.9))


# ------------------------------------------------------- rate form, min ref

def test_minimizing_reference_is_time_median_for_monotone_rate():
    # gamma increasing on [0, T]: the L1-optimal constant is gamma(T/2)
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    result = sss_measure(proc, SSSConfig(horizon=1.0, mode="min"))
    assert result.gamma_ref == pytest.approx(
        gamma_dephasing(proc, 0.5), abs=1e-6
    )
    fixed = sss_measure(proc, SSSConfig(horizon=1.0, mode="fixed"))
    assert result.xi <= fixed.xi


def test_nonunital_fixed_and_minimized():
    for lam in (0.5, 1.0, 2.0):
        result = sss_measure(NonUnitalSemiMarkov(rate=lam),
                             SSSConfig(horizon=1.0, mode="fixed"))
        assert result.xi == pytest.approx(np.log(np.cosh(lam)), rel=1e-9)
    result = sss_measure(NonUnitalSemiMarkov(rate=1.0),
                         SSSConfig(horizon=1.0, mode="min"))
    assert result.gamma_ref == pytest.approx(np.tanh(0.5), abs=1e-6)
    assert result.xi == pytest.approx(0.19355181656647222, rel=1e-6)
    assert result.xi < np.log(np.cosh(1.0))


def test_gamma_max_bounds_the_reference_search():
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    capped = sss_measure(proc, SSSConfig(horizon=1.0, mode="min",
                                         gamma_max=0.01))
    assert capped.gamma_ref == 0.01


# the processes of acceptance criterion 8; the golden-section oracle cannot
# resolve the reference at p = 3, where a 6e-6 shift of gamma_ref moves xi by
# under 1e-11, below the quadrature's resolution
@pytest.mark.parametrize("proc, oracle_resolves_ref", [
    (DephasingSemiMarkov(s=1.0, p=0.05), True),
    (DephasingSemiMarkov(s=1.0, p=0.1), True),
    (DephasingSemiMarkov(s=1.0, p=3.0), False),
    (NonUnitalSemiMarkov(rate=0.5), True),
    (NonUnitalSemiMarkov(rate=1.0), True),
    (NonUnitalSemiMarkov(rate=2.0), True),
], ids=["p0.05", "p0.1", "p3", "lam0.5", "lam1", "lam2"])
def test_median_reference_against_golden_section_oracle(proc,
                                                        oracle_resolves_ref):
    def xi_at(ref):
        return sss_measure(proc, SSSConfig(horizon=1.0, gamma_ref=ref)).xi

    oracle_ref, oracle_xi = minimize_scalar(xi_at, 0.0, 5.0, tol=1e-8)
    median = sss_measure(proc, SSSConfig(horizon=1.0, mode="min"))
    assert median.xi <= oracle_xi + 1e-12
    assert median.xi == xi_at(median.gamma_ref)
    if oracle_resolves_ref:
        assert median.gamma_ref == pytest.approx(oracle_ref, abs=1e-6)
    for shift in (-1e-4, 1e-4):
        assert xi_at(median.gamma_ref + shift) >= median.xi


# --------------------------------------- exact oracles for the paper's claim

def _q_40_digits(s, p, t):
    """q(t) on the non-oscillating branch in 40-digit decimal arithmetic.

    Float q loses ~1e-16 absolute where q is near 1, too much for a 1e-12
    relative oracle of a small xi. At p = s^2/8 the float inputs may leave
    1 - 8p/s^2 at -1e-17; its magnitude is used, which moves q by ~1e-16
    relative.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        s, p, t = (decimal.Decimal(x) for x in (s, p, t))
        eta = abs(1 - 8 * p / s**2).sqrt()
        x = eta * s * t / 2
        if x == 0:
            return (-s * t / 2).exp() * (1 + s * t / 2)
        cosh, sinh = (x.exp() + (-x).exp()) / 2, (x.exp() - (-x).exp()) / 2
        return (-s * t / 2).exp() * (cosh + sinh / eta)


@pytest.mark.parametrize("T", [1.0, 3.0, 6.0, 150.0])
@pytest.mark.parametrize("s", [0.9, 1.0, 1.1])
@pytest.mark.parametrize("fraction", [1e-8, 0.01, 0.25, 0.5, 0.999, 1.0])
def test_cp_divisible_dephasing_has_memory_in_closed_form(fraction, s, T):
    # for 0 < p <= s^2/8 gamma rises from 0 without a pole, so its median is
    # gamma(T/2) and xi_min = [Gamma(T) - 2 Gamma(T/2)] / T with
    # Gamma = -ln(q)/2: memory (xi_min > 0) although the map is CP-divisible.
    # By T = 150 q has decayed below 1e-12, which is still no pole.
    proc = DephasingSemiMarkov(s=s, p=fraction * s**2 / 8)
    q_half, q_end = (_q_40_digits(s, proc.p, t) for t in (T / 2, T))
    xi_min = float((q_half / q_end.sqrt()).ln() / decimal.Decimal(T))
    assert xi_min > 0.0
    lowest = sss_measure(proc, SSSConfig(horizon=T, mode="min"))
    assert lowest.xi == pytest.approx(xi_min, rel=1e-12, abs=0.0)
    fixed = sss_measure(proc, SSSConfig(horizon=T))
    assert fixed.xi == pytest.approx(float(-q_end.ln() / decimal.Decimal(2 * T)),
                                     rel=1e-12, abs=0.0)
    assert cp_divisibility_scan(proc, np.linspace(0.0, T, 400)).cp_divisible
    assert blp_measure(proc, T).measure == 0.0


@pytest.mark.parametrize("T", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("mode", ["fixed", "min"])
def test_semigroup_has_no_memory(mode, T):
    result = sss_measure(DephasingSemiMarkov(s=1.0, p=0.0),
                         SSSConfig(horizon=T, mode=mode))
    assert result.xi == 0.0 and result.gamma_ref == 0.0


# lambda = 2 at T = 20: gamma equals lambda to rounding over most of [0, T]
@pytest.mark.parametrize("lam, T", [
    *((lam, T) for T in (1.0, 3.0, 6.0) for lam in (0.5, 1.0, 2.0)),
    (2.0, 20.0)])
def test_nonunital_min_mode_closed_form(lam, T):
    xi_min = (np.log(np.cosh(lam * T)) - 2 * np.log(np.cosh(lam * T / 2))) / T
    result = sss_measure(NonUnitalSemiMarkov(rate=lam),
                         SSSConfig(horizon=T, mode="min"))
    assert result.xi == pytest.approx(xi_min, abs=1e-13)
    assert result.gamma_ref == pytest.approx(lam * np.tanh(lam * T / 2),
                                             abs=1e-13)


@pytest.mark.parametrize("mode", ["fixed", "min"])
@pytest.mark.parametrize("p", [0.1, 0.12])
def test_divisible_measure_past_the_underflow_of_q(p, mode):
    # q(3000) underflows a double, but ln q is formed in log space
    s, T = 1.0, 3000.0
    proc = DephasingSemiMarkov(s=s, p=p)
    q_half, q_end = (_q_40_digits(s, p, t) for t in (T / 2, T))
    assert float(q_end) == 0.0
    expected = (-q_end.ln() / 2 if mode == "fixed"
                else (q_half / q_end.sqrt()).ln()) / decimal.Decimal(T)
    result = sss_measure(proc, SSSConfig(horizon=T, mode=mode))
    assert result.xi == pytest.approx(float(expected), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [0.1, 0.12, 0.125])
def test_divisible_rate_past_the_underflow_of_q(p):
    # gamma = -q'/(2q) with q and q' = -(4p/(s eta)) e^{-st/2} sinh(eta s t/2)
    # in 40 digits, where the float q has underflowed to 0
    s = 1.0
    ts = np.array([1500.0, 3000.0])
    assert q_of_t(DephasingSemiMarkov(s=s, p=p), ts[-1]) == 0.0
    expected = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for t in ts:
            sd, pd, td = (decimal.Decimal(x) for x in (s, p, t))
            eta = abs(1 - 8 * pd / sd**2).sqrt()
            x = eta * sd * td / 2
            dq = (-(-sd * td / 2).exp() * sd**2 * td / 4 if x == 0 else
                  -4 * pd / (sd * eta) * (-sd * td / 2).exp()
                  * ((x.exp() - (-x).exp()) / 2))
            expected.append(float(-dq / (2 * _q_40_digits(s, p, t))))
    proc = DephasingSemiMarkov(s=s, p=p)
    assert gamma_dephasing(proc, ts) == pytest.approx(expected, rel=1e-12,
                                                      abs=0.0)
    assert gamma_dephasing(proc, 3000.0) == pytest.approx(expected[-1],
                                                          rel=1e-12, abs=0.0)


_PI_60 = decimal.Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494")


def _sin_cos(x):
    """sin x and cos x in the current decimal context.

    x is first reduced mod 2 pi with a 60-digit pi; then each is summed as
    its Taylor series, as in the recipes of the ``decimal`` documentation.
    """
    x -= 2 * _PI_60 * (x / (2 * _PI_60)).to_integral_value()
    sums = []
    for k, term in ((1, x), (0, decimal.Decimal(1))):
        total, last = term, None
        while total != last:
            last, k = total, k + 2
            term *= -x * x / (k * (k - 1))
            total += term
        sums.append(total)
    return sums


def test_oscillating_antiderivative_matches_40_digit_oracle():
    # Gamma = -(1/2) ln|q| = s t/4 - (1/2) ln|cos x + sin x/w|, x = s w t/2,
    # w = |eta|; q is subnormal at t = 1465.47 and underflows by t = 3000
    s, p = 1.0, 3.0
    ts = np.array([60.0, 1465.47, 3000.0])
    assert q_of_t(DephasingSemiMarkov(s=s, p=p), ts[-1]) == 0.0
    expected = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for t in ts:
            sd, pd, td = (decimal.Decimal(x) for x in (s, p, t))
            w = (8 * pd / sd**2 - 1).sqrt()
            sin_x, cos_x = _sin_cos(sd * w * td / 2)
            expected.append(float(sd * td / 4
                                  - abs(cos_x + sin_x / w).ln() / 2))
    big_gamma = -0.5 * semimarkov._log_abs_q(DephasingSemiMarkov(s=s, p=p), ts)
    assert big_gamma == pytest.approx(expected, rel=1e-12, abs=0.0)


# ---------------------------------------------- oracles for the closed forms

_ORACLE_P = [0.1, 0.125, 0.5, 2.5, 3.0, 3.5]


def _rate_and_pieces(proc, T, excision=1e-6):
    if isinstance(proc, DephasingSemiMarkov):
        rate, poles = (lambda t: gamma_dephasing(proc, t),
                       coherence_zeros(proc, T))
    else:
        rate, poles = lambda t: gamma_nonunital(proc, t), np.empty(0)
    return rate, poles, _excised_pieces(0.0, T, poles, excision)[0]


def _closed_form_kinks(proc, T, ref):
    """Where gamma = ref inside each retained piece, from the level time."""
    _, poles, pieces = _rate_and_pieces(proc, T)
    level_time, period = semimarkov._level_time(proc)
    lo, hi = np.array(pieces).T
    t = level_time(ref) + (period * np.searchsorted(poles, lo) if poles.size
                           else np.zeros_like(lo))
    return t[(lo < t) & (t < hi)]


@pytest.mark.parametrize("proc", [
    *(DephasingSemiMarkov(s=1.0, p=p) for p in _ORACLE_P),
    *(NonUnitalSemiMarkov(rate=lam) for lam in (0.5, 1.0, 2.0))],
    ids=repr)
def test_rate_solves_its_riccati_equation(proc):
    # the premise of the closed forms: gamma' = 2 gamma^2 - s gamma + p for
    # dephasing and lambda^2 - gamma^2 for the non-unital family, both
    # positive, so gamma rises on every pole-free stretch
    rate, _, pieces = _rate_and_pieces(proc, 6.0, excision=0.05)
    h = 1e-5
    for lo, hi in pieces:
        t = np.linspace(lo + h, hi - h, 201)
        g = rate(t)
        slope = (rate(t + h) - rate(t - h)) / (2.0 * h)
        if isinstance(proc, DephasingSemiMarkov):
            riccati = 2.0 * g**2 - proc.s * g + proc.p
        else:
            riccati = proc.rate**2 - g**2
        assert np.all(riccati > 0.0)
        assert slope == pytest.approx(riccati, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("T", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("p", _ORACLE_P)
def test_batched_kinks_match_brent_per_bracket(p, T):
    # each retained piece is a bracket holding at most one crossing
    proc = DephasingSemiMarkov(s=1.0, p=p)
    rate, _, pieces = _rate_and_pieces(proc, T)
    median = sss_measure(proc, SSSConfig(horizon=T, mode="min")).gamma_ref
    for ref in (0.0, median, 0.5 * median, 1.7):
        brent = [brentq(lambda t: gamma_dephasing(proc, t) - ref, lo, hi,
                        xtol=1e-12, rtol=8.9e-16) for lo, hi in pieces
                 if (rate(lo) - ref) * (rate(hi) - ref) < 0.0]
        kinks = _closed_form_kinks(proc, T, ref)
        assert kinks.size == len(brent)
        assert np.abs(kinks - brent).max(initial=0.0) <= 1e-12
        fixed = sss_measure(proc, SSSConfig(horizon=T, gamma_ref=ref))
        assert fixed.kinks == len(brent)


@pytest.mark.parametrize("wide_excision", [True, False])
@pytest.mark.parametrize("T", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("p", _ORACLE_P)
def test_median_solves_match_brent_on_the_same_splits(p, T, wide_excision):
    # below(r) = |{t: gamma(t) < r}| over the same retained pieces, each
    # crossing found by brentq; the median solves below(r) = L/2. A wide
    # excision leaves pieces of unequal length around the poles.
    excision = 0.1 if wide_excision else 1e-6
    proc = DephasingSemiMarkov(s=1.0, p=p)
    rate, _, pieces = _rate_and_pieces(proc, T, excision)
    length = sum(hi - lo for lo, hi in pieces)

    def below(r):
        total = 0.0
        for lo, hi in pieces:
            if rate(hi) < r:
                total += hi - lo
            elif rate(lo) < r:
                total += brentq(lambda t: rate(t) - r, lo, hi, xtol=1e-13,
                                rtol=8.9e-16) - lo
        return total

    top = max(rate(hi) for _, hi in pieces)
    brent = brentq(lambda r: below(r) - 0.5 * length, 0.0, top,
                   xtol=1e-12, rtol=8.9e-16)
    median = sss_measure(proc, SSSConfig(horizon=T, mode="min",
                                         excision=excision)).gamma_ref
    assert median == pytest.approx(brent, abs=1e-12)


@pytest.mark.parametrize("mode", ["fixed", "min"])
@pytest.mark.parametrize("T", [1.0, 3.0, 6.0])
@pytest.mark.parametrize("p", _ORACLE_P)
def test_closed_form_matches_quadrature_of_the_rate(p, T, mode):
    proc = DephasingSemiMarkov(s=1.0, p=p)
    result = sss_measure(proc, SSSConfig(horizon=T, mode=mode))
    ref = result.gamma_ref
    kinks = _closed_form_kinks(proc, T, ref)
    assert result.kinks == kinks.size
    # each retained piece, split at the kink inside it
    ends = [np.array([lo, *kinks[(lo < kinks) & (kinks < hi)], hi])
            for lo, hi in _rate_and_pieces(proc, T)[2]]
    quad = adaptive_quad(lambda t: abs(gamma_dephasing(proc, t) - ref),
                         np.concatenate([e[:-1] for e in ends]),
                         np.concatenate([e[1:] for e in ends]),
                         abs_tol=0.0, rel_tol=1e-12)
    assert result.xi == pytest.approx(quad.value / T, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("mode, rows", [("fixed", 31), ("min", 32)])
def test_choi_route_starts_on_the_pieces_split_at_their_kinks(monkeypatch,
                                                              mode, rows):
    # the first quadrature round has one interval per retained piece plus
    # one per kink: sss_measure excises the poles, adaptive_quad does not
    firsts = []
    gk21 = numerics._gk21

    def recorder(f, lo, hi):
        firsts.append(lo.size)
        return gk21(f, lo, hi)

    monkeypatch.setattr(numerics, "_gk21", recorder)
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    result = sss_measure(proc, SSSConfig(horizon=20.0, form="choi",
                                         mode=mode))
    pieces = len(coherence_zeros(proc, 20.0)) + 1
    assert firsts[0] == pieces + result.kinks == rows


def test_measure_result_provenance():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    rate = sss_measure(proc, SSSConfig(mode="min"))
    assert rate.quadrature is None and rate.kinks == 1
    choi = sss_measure(proc, SSSConfig(mode="min", form="choi"))
    assert choi.kinks == rate.kinks
    assert choi.quadrature.evaluations > 0
    assert 0.0 < choi.quadrature.error_estimate < 1e-6
    assert choi.raw_average == choi.quadrature.value / choi.config.horizon
    fixed = sss_measure(DephasingSemiMarkov(s=1.0, p=0.1), SSSConfig())
    assert fixed.kinks == 0


# ------------------------------------------------------------- choi form

def test_choi_form_matches_rate_form():
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    rate = sss_measure(proc, SSSConfig(horizon=1.0, form="rate"))
    choi = sss_measure(proc, SSSConfig(horizon=1.0, form="choi"))
    assert choi.xi == pytest.approx(rate.xi, rel=1e-8)
    assert choi.family_constant == pytest.approx(2.0, abs=1e-12)
    assert choi.raw_average == pytest.approx(
        choi.family_constant * choi.xi, rel=1e-12
    )
    assert rate.family_constant is None and rate.raw_average is None


def test_choi_form_min_mode_agrees_on_reference():
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    rate = sss_measure(proc, SSSConfig(horizon=1.0, mode="min", form="rate"))
    choi = sss_measure(proc, SSSConfig(horizon=1.0, mode="min", form="choi"))
    assert choi.gamma_ref == pytest.approx(rate.gamma_ref, abs=1e-6)
    assert choi.xi == pytest.approx(rate.xi, rel=1e-6)


def test_choi_form_min_mode_objective_is_lowest_at_the_median():
    proc = DephasingSemiMarkov(s=1.0, p=0.25)
    choi = sss_measure(proc, SSSConfig(horizon=1.0, mode="min", form="choi"))
    for shift in (-1e-4, 1e-4):
        moved = sss_measure(proc, SSSConfig(horizon=1.0, form="choi",
                                            gamma_ref=choi.gamma_ref + shift))
        assert moved.raw_average >= choi.raw_average


@pytest.mark.parametrize("mode", ["fixed", "min"])
def test_choi_form_matches_rate_form_across_many_poles(mode):
    # T = 20 at p = 3 spans 15 rate poles, each excised from both routes;
    # by T = 60 |q| < 1e-12 between poles too, which are still the 46 zeros
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    for T, poles in ((20.0, 15), (60.0, len(coherence_zeros(proc, 60.0)))):
        rate = sss_measure(proc, SSSConfig(horizon=T, mode=mode))
        choi = sss_measure(proc, SSSConfig(horizon=T, mode=mode, form="choi"))
        assert len(choi.excised) == poles
        assert choi.gamma_ref == rate.gamma_ref
        assert choi.xi == pytest.approx(rate.xi, rel=1e-9)


def test_choi_form_nonunital_constant():
    result = sss_measure(NonUnitalSemiMarkov(rate=1.0),
                         SSSConfig(horizon=1.0, form="choi"))
    assert result.family_constant == pytest.approx(1.0 + np.sqrt(5.0), abs=1e-9)
    assert result.xi == pytest.approx(np.log(np.cosh(1.0)), rel=1e-8)


# ------------------------------------------------------------ revival measure

def test_blp_zero_in_divisible_regime():
    result = blp_measure(DephasingSemiMarkov(s=1.0, p=0.1), 10.0)
    assert result.measure <= 1e-10


def test_blp_counts_coherence_revivals():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    result = blp_measure(proc, 10.0, n_grid=2001)
    # the optimal-pair distance is exactly |q(t)|
    expected_dist = np.abs(np.asarray(q_of_t(proc, result.times)))
    assert np.abs(result.trace_distance - expected_dist).max() < 1e-10
    inc = np.diff(expected_dist)
    assert result.measure == pytest.approx(float(inc[inc > 1e-12].sum()),
                                           abs=1e-10)
    assert result.measure > 0.01


@pytest.mark.parametrize("proc", [DephasingSemiMarkov(s=1.0, p=3.0),
                                  DephasingSemiMarkov(s=1.0, p=0.1),
                                  NonUnitalSemiMarkov(rate=1.05)])
def test_blp_distance_matches_closed_form_to_rounding(proc):
    result = blp_measure(proc, 10.0, n_grid=2001)
    if isinstance(proc, NonUnitalSemiMarkov):
        expected = 1.0 / np.cosh(proc.rate * result.times)
    else:
        expected = np.abs(np.asarray(q_of_t(proc, result.times)))
    assert np.abs(result.trace_distance - expected).max() <= 2.5e-16


def test_blp_insensitive_pairs():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    same = blp_measure(proc, 5.0, pair=(PLUS_STATE, PLUS_STATE), n_grid=201)
    assert same.measure == 0.0
    # populations are untouched by pure dephasing
    diag = blp_measure(proc, 5.0, n_grid=201,
                       pair=(np.diag([1.0, 0.0]).astype(complex),
                             np.diag([0.0, 1.0]).astype(complex)))
    assert diag.measure <= 1e-12


def test_blp_validation():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    with pytest.raises(DomainError):
        blp_measure(proc, -1.0)
    with pytest.raises(DomainError):
        blp_measure(proc, 1.0, n_grid=1)
    with pytest.raises(InvalidState):
        blp_measure(proc, 1.0, pair=(np.diag([0.9, 0.0]), PLUS_STATE))


# --------------------------------------------------------- divisibility scan

def test_scan_clean_in_divisible_regime():
    grid = np.linspace(0.0, 10.0, 300)
    for p in (0.0, 0.1):
        report = cp_divisibility_scan(DephasingSemiMarkov(s=1.0, p=p), grid)
        assert report.violation_count == 0
        assert report.cp_divisible
        assert report.first_violation is None
        assert report.singular_steps == 0
        assert np.nanmin(report.min_eigenvalues) >= -report.tol


def test_scan_flags_indivisible_regime():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    grid = np.linspace(0.0, 10.0, 1000)
    report = cp_divisibility_scan(proc, grid)
    assert report.violation_count > 300
    assert not report.cp_divisible
    t_star = float(coherence_zeros(proc, 10.0)[0])
    assert t_star < report.first_violation < t_star + 0.02
    assert np.nanmin(report.min_eigenvalues) < -1e-3


@pytest.mark.parametrize("p", [0.1, 0.5, 3.0])
def test_scan_eigenvalues_match_closed_form(p):
    # the intermediate map is diag(1, r, r, 1) with r = q(t2)/q(t1); its
    # Choi eigenvalues are 1 + r, 1 - r, 0, 0
    proc = DephasingSemiMarkov(s=1.0, p=p)
    grid = np.linspace(0.0, 10.0, 1000)
    report = cp_divisibility_scan(proc, grid)
    q = np.asarray(q_of_t(proc, grid))
    want = np.minimum(0.0, 1.0 - np.abs(q[1:] / q[:-1]))
    away = np.abs(q[:-1]) > 1e-3
    assert np.abs(report.min_eigenvalues - want)[away].max() <= 1e-12


def test_scan_records_singular_steps():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    t_star = float(coherence_zeros(proc, 1.0)[0])
    grid = np.array([0.0, 0.5, t_star, 0.9, 1.2])
    report = cp_divisibility_scan(proc, grid)
    # the step starting exactly on the coherence zero cannot be inverted
    assert report.singular_steps == 1
    assert np.isnan(report.min_eigenvalues[2])
    assert not np.isnan(report.min_eigenvalues[0])


def test_scan_grid_validation():
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    with pytest.raises(GridError):
        cp_divisibility_scan(proc, [0.0])
    with pytest.raises(GridError):
        cp_divisibility_scan(proc, [0.0, 2.0, 1.0])


# ------------------------------------------------------- boundary bisection

def test_boundary_bisection_brackets_exact_threshold():
    estimate = divisibility_boundary(1.0)
    assert 0.123 <= estimate.p_estimate <= 0.127
    assert estimate.p_low < estimate.p_estimate < estimate.p_high
    assert estimate.p_high - estimate.p_low <= estimate.p_tol


def test_boundary_bisection_requires_straddling_bracket():
    with pytest.raises(NoSignChange):
        divisibility_boundary(1.0, p_bracket=(0.3, 0.4), t_max=60.0,
                              n_grid=1200)
    with pytest.raises(NoSignChange):
        divisibility_boundary(1.0, p_bracket=(0.01, 0.05), t_max=60.0,
                              n_grid=1200)
    with pytest.raises(DomainError):
        divisibility_boundary(1.0, p_bracket=(0.4, 0.1))


# --------------------------------------------------------------- holevo

def test_holevo_closed_form_for_dephasing():
    proc = DephasingSemiMarkov(s=1.0, p=2.0)
    ts = np.linspace(0.0, 6.0, 41)
    chi = holevo_curve(proc, ts)
    qs = np.abs(np.asarray(q_of_t(proc, ts)))
    expected = 1.0 - np.array([binary_entropy((1 + q) / 2) for q in qs])
    assert np.abs(chi - expected).max() < 1e-8
    assert chi[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [2.0, 0.1, 0.01])
def test_holevo_matches_closed_form_on_fig3_grid(p):
    proc = DephasingSemiMarkov(s=1.0, p=p)
    ts = np.linspace(0.0, 6.0, 500)
    qs = np.abs(np.asarray(q_of_t(proc, ts)))
    expected = 1.0 - np.array([binary_entropy((1 + q) / 2) for q in qs])
    assert np.abs(holevo_curve(proc, ts) - expected).max() <= 1e-15


def test_holevo_vanishes_at_coherence_zero():
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    t_star = float(coherence_zeros(proc, 1.0)[0])
    assert float(holevo_curve(proc, [t_star])[0]) < 1e-12


def test_holevo_monotone_when_divisible_revives_when_not():
    ts = np.linspace(0.0, 6.0, 200)
    for p in (0.1, 0.01):
        chi = holevo_curve(DephasingSemiMarkov(s=1.0, p=p), ts)
        assert np.all(np.diff(chi) <= 1e-10)
    chi = holevo_curve(DephasingSemiMarkov(s=1.0, p=2.0), ts)
    assert np.any(np.diff(chi) > 1e-6)


def test_holevo_nonunital_decays():
    chi = holevo_curve(NonUnitalSemiMarkov(rate=1.0), np.linspace(0, 5, 50))
    assert chi[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(chi) <= 1e-10)
    assert chi[-1] < 0.01


def test_holevo_ensemble_handling():
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    single = holevo_curve(proc, [0.0, 1.0], ensemble=((1.0, PLUS_STATE),))
    assert np.abs(single).max() < 1e-12
    with pytest.raises(DomainError):
        holevo_curve(proc, [0.0], ensemble=((0.4, PLUS_STATE),
                                            (0.4, MINUS_STATE)))
    with pytest.raises(InvalidState):
        holevo_curve(proc, [0.0], ensemble=((1.0, np.diag([2.0, -1.0])),))
    with pytest.raises(GridError):
        holevo_curve(proc, [-1.0])
