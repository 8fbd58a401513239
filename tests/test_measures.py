"""Deviation-from-semigroup measure, revival measure, divisibility, Holevo."""

import numpy as np
import pytest

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
    binary_entropy,
    blp_measure,
    coherence_zeros,
    cp_divisibility_scan,
    divisibility_boundary,
    gamma_dephasing,
    holevo_curve,
    q_of_t,
    sss_measure,
    sss_rate_form,
)

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

def test_minimizing_reference_of_constant_rate_is_that_rate():
    result = sss_rate_form(lambda t: 1.3, SSSConfig(horizon=2.0, mode="min"))
    assert result.gamma_ref == pytest.approx(1.3, abs=1e-11)
    assert result.xi < 1e-11


def test_minimizing_reference_of_negative_rate_is_zero():
    # the median -2.3 lies below the allowed range, so the clip at 0 wins
    result = sss_rate_form(lambda t: -1.3 - t, SSSConfig(horizon=2.0,
                                                        mode="min"))
    assert result.gamma_ref == 0.0
    assert result.xi == pytest.approx(2.3, rel=1e-12)


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
