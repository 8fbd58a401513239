"""The dyadic time-rescaling law, checked bit for bit.

(s, p) -> (2^k s, 4^k p) is the same dephasing process on a clock 2^k times
faster, and lambda -> 2^k lambda the same non-unital one. At t/2^k the fast
process has the slow one's q, ln|q|, trace distance, Holevo information,
scan eigenvalues and verdicts and revival measure, 2^k times its rate, its
zeros and poles at 1/2^k the times, and xi(T/2^k; 2^k r, eps/2^k) =
2^k xi(T; r, eps), with gamma_ref 2^k times larger, in both reference modes
and both forms. The boundary ``p_boundary`` is 4^k times larger.
Multiplying a double by a power of two is exact while it neither overflows
nor goes subnormal, and the code forms s t, 8p/s^2, eta and the phases
from such products, so every one of these obeys the law to the bit, also
through each command's JSON, whose floats are ``repr``. zeta = xi/(1 + xi)
is not a rate, and is checked as that function of the fast xi.

The range, in which no intermediate overflows or goes subnormal: s in
[1e-3, 1e3], p/s^2 in [0, 32], k in [-30, 30], horizons with s T in
[0.1, 60], references r with r/s in [0, 1], and excisions with s eps in
[1e-9, 1e-3] and, where q oscillates, delta = s|eta| eps/2 at least 5e-8.
Past it a product that goes subnormal loses bits on one clock and not on
the other. xi keeps the law also below that delta, with s eps in
[1e-14, 1e-9] (``test_xi_at_a_tiny_excision_keeps_the_law_bit_for_bit``).
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qsemimarkov import (
    DephasingSemiMarkov,
    NonUnitalSemiMarkov,
    REGIME_INDIVISIBLE,
    SSSConfig,
    blp_measure,
    coherence_zeros,
    cp_divisibility_scan,
    gamma_dephasing,
    gamma_nonunital,
    holevo_curve,
    q_of_t,
    sss_measure,
)
from qsemimarkov.cli import run
from qsemimarkov.semimarkov import _log_abs_q


def _same(name, slow, fast, factor=1.0):
    """fast == factor * slow, bit for bit, NaN where the other is NaN."""
    slow = np.asarray(slow, dtype=float) * factor
    assert np.array_equal(slow, np.asarray(fast, dtype=float),
                          equal_nan=True), name


def _check_dephasing(s, ratio, k, s_t, s_eps, r_over_s):
    f = 2.0**k
    p = ratio * s * s
    slow = DephasingSemiMarkov(s, p)
    fast = DephasingSemiMarkov(s * f, p * f * f)
    T = s_t / s
    t = np.linspace(0.0, T, 41)
    _same("q", q_of_t(slow, t), q_of_t(fast, t / f))
    _same("ln|q|", _log_abs_q(slow, t), _log_abs_q(fast, t / f))
    _same("gamma", gamma_dephasing(slow, t), gamma_dephasing(fast, t / f), f)
    _same("zeros", coherence_zeros(slow, T), coherence_zeros(fast, T / f),
          1 / f)
    _same("p_boundary", slow.p_boundary, fast.p_boundary, f * f)
    _same("holevo", holevo_curve(slow, t), holevo_curve(fast, t / f))
    a, b = blp_measure(slow, T, n_grid=41), blp_measure(fast, T / f, n_grid=41)
    _same("blp", a.measure, b.measure)
    _same("blp times", a.times, b.times, 1 / f)
    _same("trace distance", a.trace_distance, b.trace_distance)
    a, b = cp_divisibility_scan(slow, t), cp_divisibility_scan(fast, t / f)
    _same("scan eigenvalues", a.min_eigenvalues, b.min_eigenvalues)
    assert (a.violation_count, a.singular_steps) == (b.violation_count,
                                                     b.singular_steps)
    assert (a.first_violation is None) == (b.first_violation is None)
    if a.first_violation is not None:
        _same("first violation", a.first_violation, b.first_violation, 1 / f)
    eps, r = s_eps / s, r_over_s * s
    for mode in ("fixed", "min"):
        for form in ("rate", "choi"):
            a = sss_measure(slow, SSSConfig(horizon=T, mode=mode, form=form,
                                            gamma_ref=r, excision=eps))
            b = sss_measure(fast, SSSConfig(horizon=T / f, mode=mode,
                                            form=form, gamma_ref=r * f,
                                            excision=eps / f))
            _same(f"xi {mode} {form}", a.xi, b.xi, f)
            _same(f"gamma_ref {mode} {form}", a.gamma_ref, b.gamma_ref, f)
            assert b.zeta == b.xi / (1.0 + b.xi) and a.kinks == b.kinks
            if form == "choi":
                _same("raw average", a.raw_average, b.raw_average, f)
            for i, scale in enumerate((1 / f, 1 / f, 1 / f, 1, 1)):
                _same(f"excised {i}", a.excised[i], b.excised[i], scale)


# (s, p/s^2, k, s T, s eps, r/s): each branch, the boundary, a pole row, the
# range's corners
_TABLE = [
    (1.0, 3.0, 5, 10.0, 1e-6, 0.0),
    (1.0, 0.1, -7, 10.0, 1e-6, 0.3),
    (1.0, 0.125, 30, 60.0, 1e-6, 0.25),
    (0.9, 0.2, -30, 60.0, 2e-7, 0.0),
    (1e-3, 32.0, 30, 0.1, 1e-3, 1.0),
    (1e3, 0.126, -30, 60.0, 2e-6, 0.5),
    (3.0, 0.0, 11, 5.0, 1e-6, 0.1),
]


@pytest.mark.parametrize("s, ratio, k, s_t, s_eps, r_over_s", _TABLE)
def test_dephasing_obeys_the_dyadic_law_bit_for_bit(s, ratio, k, s_t, s_eps,
                                                     r_over_s):
    _check_dephasing(s, ratio, k, s_t, s_eps, r_over_s)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(s=st.floats(1e-3, 1e3), ratio=st.one_of(
           st.floats(1e-4, 32.0), st.floats(1e-4, 32.0).map(lambda x: x / 8),
           st.just(0.125)),
       k=st.integers(-30, 30), s_t=st.floats(0.1, 60.0),
       s_eps=st.floats(1e-9, 1e-3), r_over_s=st.floats(0.0, 1.0))
def test_dephasing_obeys_the_dyadic_law_anywhere_in_range(s, ratio, k, s_t,
                                                          s_eps, r_over_s):
    proc = DephasingSemiMarkov(s, ratio * s * s)
    assume(proc.regime() != REGIME_INDIVISIBLE or s_eps * proc.w >= 1e-7)
    _check_dephasing(s, ratio, k, s_t, s_eps, r_over_s)


def test_xi_at_a_tiny_excision_keeps_the_law_bit_for_bit():
    # delta = s|eta| eps/2 below 2.6e-8, where sin delta rounds to delta:
    # Gamma at an edge takes ln(A sin delta) on each clock, as sin delta is
    # a normal double
    rng = np.random.default_rng(2)
    for _ in range(60):
        s, ratio, k = 10 ** rng.uniform(-3, 3), rng.uniform(0.2, 5.0), 20
        f = 2.0**k
        eps, T = 10 ** rng.uniform(-14, -9) / s, rng.uniform(20.0, 60.0) / s
        slow = DephasingSemiMarkov(s, ratio * s * s)
        fast = DephasingSemiMarkov(s * f, ratio * s * s * f * f)
        a = sss_measure(slow, SSSConfig(horizon=T, excision=eps)).xi
        b = sss_measure(fast, SSSConfig(horizon=T / f, excision=eps / f)).xi
        _same("xi", a, b, f)


@pytest.mark.parametrize("lam, k", [(1.0, 3), (0.05, -20), (40.0, 30)])
def test_nonunital_obeys_the_dyadic_law_bit_for_bit(lam, k):
    f = 2.0**k
    slow = NonUnitalSemiMarkov(rate=lam)
    fast = NonUnitalSemiMarkov(rate=lam * f)
    T = 12.0 / lam
    t = np.linspace(0.0, T, 41)
    _same("g", slow.survival(t), fast.survival(t / f))
    _same("gamma", gamma_nonunital(slow, t), gamma_nonunital(fast, t / f), f)
    _same("holevo", holevo_curve(slow, t), holevo_curve(fast, t / f))
    _same("scan", cp_divisibility_scan(slow, t).min_eigenvalues,
          cp_divisibility_scan(fast, t / f).min_eigenvalues)
    assert blp_measure(slow, T).measure == 0.0
    assert blp_measure(fast, T / f).measure == 0.0
    for mode in ("fixed", "min"):
        a = sss_measure(slow, SSSConfig(horizon=T, mode=mode,
                                        gamma_ref=lam / 3))
        b = sss_measure(fast, SSSConfig(horizon=T / f, mode=mode,
                                        gamma_ref=lam * f / 3))
        _same(f"xi {mode}", a.xi, b.xi, f)
        _same(f"gamma_ref {mode}", a.gamma_ref, b.gamma_ref, f)


def _json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _cells(column):
    return [np.nan if v is None else v for v in column]


# name: (the command and its other flags, its float flags at the slow
# clock, and the power of 2^k of each column and metadata value; 0 where
# none is named)
_COMMANDS = {
    "rate": (["rate"], {"s": 1.0, "p": 3.0, "t-max": 6.0},
             {"t": -1, "gamma": 1}),
    "measure": (["measure"], {"s": 1.0, "p": 3.0, "T": 10.0, "epsilon": 1e-6},
                {"p": 2, "xi": 1, "gamma_ref": 1, "p_boundary": 2}),
    "measure-min-choi": (["measure", "--mode", "min", "--form", "choi"],
                         {"s": 1.0, "p-max": 5.0, "T": 10.0, "epsilon": 1e-6},
                         {"p": 2, "xi": 1, "gamma_ref": 1, "xi_raw": 1,
                          "p_boundary": 2}),
    "holevo": (["holevo"], {"s": 1.0, "p-list": (2.0, 0.1), "t-max": 6.0},
               {"t": -1}),
    "blp": (["blp"], {"s": 1.0, "p": 3.0, "t-max": 10.0}, {"t": -1}),
    "divisibility": (["divisibility"], {"s": 1.0, "p": 3.0, "t-max": 10.0},
                     {"t": -1, "first_violation": -1}),
    "divisibility-boundary": (["divisibility", "--boundary-search"],
                              {"s": 1.0},
                              {"p_estimate": 2, "p_boundary_estimate": 2}),
    "kernel-check": (["kernel-check"], {"s": 1.0, "p": 3.0, "t-max": 5.0,
                                        "dt": 1e-3}, {"t": -1}),
    "classical-sim": (["classical-sim", "--seed", "7", "--paths", "2000"],
                      {"lambda1": 1.0, "lambda2": 2.0, "t-max": 2.0},
                      {"t": -1}),
}
# each flag's power of 2^k
_FLAG_POWER = {"s": 1, "p": 2, "p-max": 2, "p-list": 2, "lambda1": 1,
               "lambda2": 1, "t-max": -1, "T": -1, "epsilon": -1, "dt": -1}


def _argv(name, f):
    argv, flags, _ = _COMMANDS[name]
    for flag, value in flags.items():
        scale = f ** _FLAG_POWER[flag]
        text = (",".join(repr(v * scale) for v in value)
                if isinstance(value, tuple) else repr(value * scale))
        argv = [*argv, f"--{flag}", text]
    return argv


@pytest.mark.parametrize("k", [-20, 6])
@pytest.mark.parametrize("name", list(_COMMANDS))
def test_every_command_obeys_the_dyadic_law_in_its_json(name, k):
    f = 2.0**k
    powers = _COMMANDS[name][2]
    slow, fast = _json(_argv(name, 1.0)), _json(_argv(name, f))
    assert list(slow["columns"]) == list(fast["columns"]) or name == "holevo"
    for (col, a), b in zip(slow["columns"].items(), fast["columns"].values()):
        if col == "zeta":
            xi = np.array(fast["columns"]["xi"])
            _same("zeta", xi / (1.0 + xi), _cells(b))
        else:
            _same(col, _cells(a), _cells(b), f ** powers.get(col, 0))
    for key, a in slow["metadata"].items():
        b = fast["metadata"][key]
        if key == "excised_intervals":  # [lo, hi, p, P, N] per row
            _same(key, a, b, np.array([1 / f, 1 / f, f * f, 1 / f, 1.0]))
        elif key == "singular_times":  # [t_1, P, N]
            _same(key, a, b, np.array([1 / f, 1 / f, 1.0]))
        elif isinstance(a, float) and key in powers:
            _same(key, a, b, f ** powers[key])
        elif key != "defaults_applied":  # --t-max and the like are given
            assert a == b, key
