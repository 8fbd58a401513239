"""Non-Markovianity measures and divisibility diagnostics.

The central quantity is the time-averaged deviation of the canonical decay
rate gamma(t) from a constant reference rate:

    xi = min over allowed references of (1/T) int_0^T |gamma(t) - gamma_ref| dt,

reported together with its bounded companion zeta = xi / (1 + xi). Two
reference policies are supported: ``mode="fixed"`` scores against a given
constant (default 0, the semigroup with no decay), while ``mode="min"``
minimizes over all constants, which for an L1 cost means the time-median of
gamma. :func:`sss_measure` computes xi for one process or a sweep over p
exactly, with no quadrature: gamma is a log-derivative, so between the
kinks where gamma crosses the reference the integral is
|Gamma(b) - Gamma(a) - gamma_ref (b - a)|, with Gamma the antiderivative
of gamma. The two forms state xi two ways. ``form="rate"`` is the rate
deviation itself. ``form="choi"`` is the time-averaged trace norm of the
difference of generator Choi matrices, over the family constant (the trace
norm per unit rate), computed at runtime from the generator itself. Both
families' generators are the rate times one unit-rate Choi matrix, so that
trace norm is |gamma - gamma_ref| times the constant: the Choi form takes
the same xi and reports the constant times xi as the raw average. Nothing
searches: gamma rises between its poles, so each retained piece holds at
most one kink, at a closed-form time, and the time-median is one division
per p. The rate poles are cut out here only, and xi is summed over the
pieces they leave, split at their kinks. The poles form a lattice of period P,
and gamma has period P, so each p has three pieces whatever its horizon:
the first, one full stretch between two poles, counted N - 1 times for N
poles, and the last. A sweep over p is one batch of (p, piece) arrays of
that fixed shape; one process is a batch of one row. The excised holes are
reported the same way, as each row's lattice, so nothing is built per pole.

Also provided, as closed forms in q(t) or g(t) = sech(lambda t) on Bloch
vectors: the trace-distance-revival measure of the |+>, |-> pair, summed
over the peaks of |q|, its Holevo information curve, and a CP-divisibility
scan over intermediate maps, singular only where q(t1) has lost its digits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, GridError, Singularity
from .numerics import trace_norm
from .quantum import DephasingGenerator, ProjectorGenerator, choi_of_generator
from .semimarkov import (
    _IMAG,
    DephasingSemiMarkov,
    NonUnitalSemiMarkov,
    _bloch_factors,
    _level_time,
    _log_abs_q,
    _require_count,
    _require_positive,
    _zero_lattice,
    _zero_time,
    gamma_dephasing,
    gamma_nonunital,
)

__all__ = [
    "SSSConfig",
    "MeasureResult",
    "sss_measure",
    "BLPResult",
    "blp_measure",
    "DivisibilityReport",
    "cp_divisibility_scan",
    "holevo_curve",
]


_MODES = ("fixed", "min")
_FORMS = ("rate", "choi")
_CP_TOL = 1e-8    # a Choi eigenvalue above -_CP_TOL counts as CP
# 1/(k (2k - 1)) for k = 24..1: the first term left out is below 3e-18 r^2
_CHI_SERIES = [1.0 / (k * (2 * k - 1)) for k in range(24, 0, -1)]


@dataclass(frozen=True)
class SSSConfig:
    """Settings for the deviation-from-semigroup measure.

    :param horizon: averaging window T.
    :param mode: ``"fixed"`` scores against ``gamma_ref``; ``"min"``
        minimizes over constant references.
    :param form: ``"rate"`` reports the rate deviation xi; ``"choi"``
        reports the same xi as the time-averaged trace norm of the
        generator Choi difference, with the family constant and the raw
        average beside it.
    :param gamma_ref: the reference rate used by ``mode="fixed"``;
        ``mode="min"`` uses the time-median of gamma, its exact minimizer.
    :param excision: half-width of the neighborhoods removed around rate
        poles before integrating.
    """

    horizon: float = 1.0
    mode: str = "fixed"
    form: str = "rate"
    gamma_ref: float = 0.0
    excision: float = 1e-6

    def __post_init__(self) -> None:
        _require_positive("horizon", self.horizon)
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.form not in _FORMS:
            raise DomainError(f"form must be one of {_FORMS}, got {self.form!r}")
        if not np.isfinite(self.gamma_ref):
            raise DomainError(f"gamma_ref must be finite, got {self.gamma_ref!r}")
        _require_positive("excision", self.excision)


@dataclass(frozen=True)
class MeasureResult:
    """Deviation-from-semigroup score and how it was obtained.

    ``raw_average`` and ``family_constant`` are populated by the Choi form:
    the former is the time-averaged trace norm of the generator Choi
    difference, the latter times xi. The rate form leaves both None.
    ``kinks`` counts the times where gamma crosses the reference, the edges
    of the pieces on which |gamma - gamma_ref| is smooth. For a sweep (a
    1-d p) every per-process field holds one element per p. ``excised``
    holds the arrays (lo, hi, period, count, row), one element per row with
    poles, ``row`` indexing p: hole k of N is t_1 + (k - 1) P +- eps
    clipped to [0, T], and [lo, hi] the first, or their union if they meet.
    """

    xi: float | np.ndarray
    zeta: float | np.ndarray
    gamma_ref: float | np.ndarray
    excised: tuple
    config: SSSConfig
    family_constant: float | None = None
    raw_average: float | np.ndarray | None = None
    kinks: int | np.ndarray = 0


def _median_rate(proc, start: np.ndarray, length: np.ndarray,
                 mult: np.ndarray) -> np.ndarray:
    """Time-median of gamma over each row's pieces.

    The average |gamma - r| is convex in r with slope (2 below(r) - L) / T,
    where L is the retained length and below(r) the length of
    {t: gamma(t) < r}, so the median is its exact minimizer. Moved
    back onto the first branch of gamma, piece j of a row covers the phases
    [start_j, start_j + length_j], ``mult_j`` times, and there gamma is one
    increasing function of the phase. So below is
    sum_j mult_j clip(phi - start_j, 0, length_j) in the phase phi:
    piecewise linear, its slope stepping by +-mult_j at the ends of piece
    j, and one division per row finds the phase where it is L/2. The
    median is never negative: gamma >= 0 without poles, and with poles
    gamma < 0 only just after each pole, for less time than the stretch
    before that pole spends above 0.

    :raises Singularity: if a median phase lands on a rate pole.
    """
    ends = np.concatenate([start, start + length], axis=1)
    order = np.argsort(ends, axis=1, kind="stable")
    ends.sort(axis=1, kind="stable")
    r = np.arange(len(ends))
    slope = np.concatenate([mult, -mult], axis=1)[r[:, None], order].cumsum(
        axis=1)
    below = np.zeros(ends.shape)
    (slope[:, :-1] * (ends[:, 1:] - ends[:, :-1])).cumsum(
        axis=1, out=below[:, 1:])
    # from the last end where below <= L/2: on a gap, its right end
    half = 0.5 * (mult * length).sum(axis=1)
    j = (below <= half[:, None]).sum(axis=1) - 1
    phase = ends[r, j] + (half - below[r, j]) / slope[r, j]
    phase = np.where(0.0 > phase, 0.0, phase)  # gamma(0) = 0 clips a phase < 0
    if isinstance(proc, NonUnitalSemiMarkov):
        return gamma_nonunital(proc, phase)
    median = gamma_dephasing(proc, phase)
    if np.isnan(median).any():
        raise Singularity(f"rate pole at t = {phase[np.isnan(median)][0]:g}")
    return median


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """ln cosh x without overflow, and to full relative precision near 0."""
    x = np.abs(np.asarray(x, dtype=float))
    small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(x, 1.0)) ** 2)
    with np.errstate(over="ignore"):  # e^{-2x} is 0 where 2x overflows
        return np.where(x < 1.0, small,
                        x - np.log(2.0) + np.log1p(np.exp(-2.0 * x)))


@functools.cache
def _family_constant(generator) -> float:
    """The trace norm of the real Choi matrix of ``generator`` at unit rate.

    Both families' generators are the rate times that one matrix, so the
    constant depends on the generator class alone and is computed once.
    """
    return trace_norm(choi_of_generator(generator(rate=1.0, dim=2)).real)


def sss_measure(proc, config: SSSConfig | None = None) -> MeasureResult:
    """Deviation measure of one process, or of every process of a sweep as
    one batch, in the form the config names.

    ``proc`` is a ``NonUnitalSemiMarkov`` (one row) or a ``DephasingSemiMarkov``
    (a row per element of a float or 1-d p). Where p > s^2/8 the poles are a
    lattice, t_k = t_1 + (k - 1) P with P = 2 pi/(s|eta|), and gamma has
    period P, so every stretch between two excised poles is a translate of
    the first. Each row thus has three pieces, as (n, 3) arrays: the first
    [0, t_1 - eps], the full [t_1 + eps, t_2 - eps] and the last
    [t_N + eps, T], with multiplicities 1, N - 1 and 1 and shifts 0, P and
    N P onto the first branch of gamma. A row without poles keeps only its
    first piece, [0, T]. A piece that is empty, or a full piece where the
    holes merge (2 eps >= P), has multiplicity 0. N comes from
    ``_zero_lattice``, t_k from its closed form and P from ``_level_time``,
    which also splits each piece at its kink, where gamma crosses the
    reference, into the edges [lo, cut, hi].

    Both forms sum mult |Gamma(b) - Gamma(a) - ref (b - a)| over the
    (n, 3, 2) sub-pieces, with Gamma = -(1/2) ln|q(t)| for dephasing and
    ln cosh(lambda t) for the non-unital family, taken on the first branch
    (Gamma(t + P) = Gamma(t) + s P/4). At the excision edges t_k +- eps it
    is s t/4 - (1/2) ln(A |sin delta|), with A = sqrt(1 + 1/|eta|^2) and
    delta = +-s|eta| eps/2 exact, so a full piece gains s (P - 2 eps)/4.
    Each row's sum is its own, so its bits do not depend on the rest of the
    sweep. For the Choi form, both families' generator Choi matrices are
    the rate times one real unit-rate matrix, whose trace norm is the
    family constant (``_family_constant``, taken once a process). The
    trace norm is absolutely homogeneous, so the trace norm of
    Choi(L_gamma - L_ref) = (gamma - ref) times that matrix is
    |gamma - ref| times the constant, and its time average, the raw
    average, is the constant times xi.

    The holes are given as each row's lattice, from t_1, t_N, P and N. A
    float p, or the non-unital family, gives Python numbers, and a 1-d p an
    array per field: see ``MeasureResult``.

    :raises DomainError: for another process type, or a p of 2 or more
        dimensions.
    :raises Singularity: if gamma at a median, or Gamma at a piece end or
        kink, is not finite, which happens only at a rate pole inside a
        tiny excision.
    :raises GridError: if a row's horizon holds 2**53 or more rate poles
        (``_zero_lattice``), or the excision removes all of a row's horizon.
    """
    config = config or SSSConfig()
    nonunital = isinstance(proc, NonUnitalSemiMarkov)
    if not (nonunital or isinstance(proc, DephasingSemiMarkov)):
        raise DomainError(f"unknown process type {type(proc)!r}")
    if not nonunital and np.ndim(proc.p) > 1:
        raise DomainError(f"p must be a float or 1-d, got {np.ndim(proc.p)}-d")
    T, eps = config.horizon, config.excision
    n = 1 if nonunital else proc.branch.size
    counts = np.zeros(n, np.int64) if nonunital else _zero_lattice(proc, T)[2]
    level_time, period = _level_time(proc)
    has = counts > 0
    edges = np.zeros((n, 3, 3))  # [lo, cut, hi] of the three pieces
    edges[:, ::2, 2] = T  # ends the last piece, and the first without poles
    shift, mult = np.zeros((2, n, 3))
    mult[:, 0] = 1.0
    merged = np.zeros(n, dtype=bool)
    if has.any():
        w, N, P = proc.w.reshape(n)[has], counts[has], period.reshape(n)[has]
        k = np.multiply.outer(N, [0, 0, 1]) + [1, 2, 0]
        t = _zero_time(proc.s, w[:, None], k)  # t_1, t_2, t_N
        edges[has, 1:, 0] = t[:, ::2] + eps
        edges[has, :2, 2] = t[:, :2] - eps
        shift[has] = P[:, None] * (k - [1, 1, 0])
        merged[has] = 2.0 * eps >= P
        mult[has, 1] = (N - 1) * ~merged[has]
        mult[has, 2] = 1.0
    row = np.flatnonzero(has)
    # the first hole, or the merged one, which ends at t_N + eps; P and N
    excised = (np.maximum(edges[row, 0, 2], 0.0),
               np.minimum(edges[row, 1 + merged[row], 0], T),
               np.ravel(period)[row], counts[row], row)
    mult *= edges[..., 0] < edges[..., 2]
    keep = mult > 0.0
    if not keep.any(axis=1).all():
        raise GridError("singular-point excision removed the entire horizon")
    edges = np.where(keep[..., None], edges, 0.0)
    shift = np.where(keep, shift, 0.0)
    lo, hi = edges[..., 0], edges[..., 2]
    ref = (np.full(n, float(config.gamma_ref)) if config.mode == "fixed"
           else _median_rate(proc, lo - shift, hi - lo, mult))
    # gamma rises on each piece, so it crosses ref at most once there
    edges[..., 1] = cut = np.clip(level_time(ref)[:, None] + shift, lo, hi)
    inside = (lo < cut) & (cut < hi)
    kinks = np.where(inside, mult, 0.0).sum(axis=1).astype(int)
    # Gamma on the first branch: 0 at phase 0, in phase form at the
    # excision edges, from ln|q| or ln cosh elsewhere
    phase = edges - shift[..., None]
    big_gamma = np.zeros(phase.shape)
    at_edge = np.zeros(phase.shape, dtype=bool)
    if has.any():
        # Gamma - s t/4 at the excision edges, -(1/2) ln(A |sin delta|):
        # after the horizon check, so a huge eps never reaches sin
        amp, delta = np.hypot(1.0, 1.0 / w), 0.5 * proc.s * eps * w
        sin = np.abs(np.sin(delta))
        # where sin delta is subnormal or 0, as delta is:
        # ln(A delta) = ln(A s|eta|/2) + ln eps
        log_edge = np.log(amp * 0.5 * proc.s * w) + np.log(eps)
        np.log(amp * sin, out=log_edge, where=sin >= np.finfo(float).tiny)
        edge_gamma = np.zeros(n)
        edge_gamma[has] = -0.5 * log_edge
        at_edge[has] = [[0, 0, 1], [1, 0, 1], [1, 0, 0]]
        at_edge[..., 1] = ((at_edge[..., 0] & (cut == lo))
                           | (at_edge[..., 2] & (cut == hi)))
        big_gamma[at_edge] = (proc.s * phase[at_edge] / 4.0
                              + edge_gamma[np.nonzero(at_edge)[0]])
    inner = ~at_edge & (phase != 0.0)
    with np.errstate(over="ignore"):  # an overflowing lambda t: see below
        big_gamma[inner] = (
            _log_cosh(proc.rate * phase[inner]) if nonunital else -0.5
            * _log_abs_q(proc.take(np.nonzero(inner)[0]), phase[inner]))
    if not np.isfinite(big_gamma).all():
        raise Singularity("antiderivative of the rate is not finite at t = "
                          f"{edges[~np.isfinite(big_gamma)][0]:g}")
    jump = big_gamma[..., 1:] - big_gamma[..., :-1]
    jump -= ref[:, None, None] * (phase[..., 1:] - phase[..., :-1])
    jump = mult[..., None] * np.abs(jump, out=jump)
    xi = jump.sum(axis=(1, 2)) / T
    raw = constant = None
    if config.form == "choi":
        constant = _family_constant(ProjectorGenerator if nonunital
                                    else DephasingGenerator)
        with np.errstate(over="ignore"):  # xi_raw past the float range is inf
            raw = constant * xi
    zeta = xi / (1.0 + xi)
    if nonunital or not np.ndim(proc.p):  # one process: Python numbers
        return MeasureResult(
            xi[0].item(), zeta[0].item(), ref[0].item(), excised, config,
            constant, None if raw is None else raw[0].item(),
            kinks[0].item())
    return MeasureResult(xi, zeta, ref, excised, config, constant, raw, kinks)


@dataclass(frozen=True)
class BLPResult:
    """Trace-distance revival measure and the underlying distance curve."""

    measure: float
    times: np.ndarray
    trace_distance: np.ndarray


def blp_measure(proc, t_max: float, *, n_grid: int = 2001) -> BLPResult:
    """Total rise on [0, t_max] of D(t) = (1/2) || Phi(t)[|+><+| - |-><-|] ||_1
    = |a|, a = q or g, in closed form, with D sampled on ``n_grid`` points.

    No pair rises more: a dephased pair has D = (1/2) hypot(|q| r, dz), r <= 2
    the x, y length of its Bloch difference, and a non-unital one
    D = g |Delta| / 2, which only falls, as |q| does where p <= s^2/8. Where
    q oscillates (w = |eta|, P = 2 pi/(s w)), |q| rises only from each zero
    t_k = kP - 2 atan(w)/(s w) to |q(kP)| = rho^k, rho = e^{-pi/w}: so the
    measure is -expm1(-M pi/w)/expm1(pi/w) over the M = floor(t_max/P)
    peaks, plus |q(t_max)| in a rise: 0 where expm1(pi/w) overflows.
    """
    times = np.linspace(0.0, _require_positive("t_max", t_max),
                        _require_count("n_grid", n_grid, 2))
    dist = np.abs(_bloch_factors(proc, times, "blp_measure"))
    measure = 0.0
    if isinstance(proc, DephasingSemiMarkov) and proc.branch == _IMAG:
        w = proc.w.item()
        # the phase in periods; a fraction past 1 - atan(w)/pi is in a rise
        turns = proc.s * w * t_max / (2.0 * np.pi)
        with np.errstate(over="ignore", invalid="ignore"):  # inf: the limit
            peaks = np.floor(turns)
            rise = turns - peaks > 1 - np.arctan(w) / np.pi
            measure = float(rise * dist[-1] - np.expm1(-peaks * np.pi / w)
                            / np.expm1(np.pi / w))
    return BLPResult(measure=measure, times=times, trace_distance=dist)


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of a CP-divisibility scan over consecutive intermediate maps.

    ``min_eigenvalues[i]`` is the smallest Choi eigenvalue of the propagator
    from times[i] to times[i+1], NaN where q(times[i]) is 0 or subnormal (a
    singular step). A step violates CP where it is below ``-tol``, ``_CP_TOL``.
    """

    times: np.ndarray
    min_eigenvalues: np.ndarray
    violation_count: int
    first_violation: float | None
    singular_steps: int
    tol: float

    @property
    def cp_divisible(self) -> bool:
        return self.violation_count == 0


def cp_divisibility_scan(proc, times: Sequence[float]) -> DivisibilityReport:
    """Check complete positivity of every consecutive intermediate map.

    The map from t1 to t2 is its family's with factor c = q(t2)/q(t1) or
    g(t2)/g(t1). Its Choi eigenvalues are 1 +- c, 0, 0 for dephasing, a step
    singular only where q(t1) is subnormal or 0; non-unital, c <= 1 and the
    smallest is 0, with no singular step.
    """
    ts = np.asarray(times, dtype=float)
    if (ts.ndim != 1 or ts.size < 2 or not np.isfinite(ts).all()
            or np.any(np.diff(ts) <= 0.0) or ts[0] < 0.0):
        raise GridError("times must be a 1-D increasing finite grid of "
                        "length >= 2")
    a = _bloch_factors(proc, ts, "cp_divisibility_scan")
    if isinstance(proc, NonUnitalSemiMarkov):  # c <= 1: every eigenvalue is 0
        min_eigs = np.zeros(ts.size - 1)
    else:  # NaN where q(t1) is subnormal or 0
        ratio = np.divide(a[1:], a[:-1], out=np.full(ts.size - 1, np.nan),
                          where=np.abs(a[:-1]) >= np.finfo(float).tiny)
        min_eigs = np.minimum(0.0, 1.0 - np.abs(ratio))
    violating = min_eigs < -_CP_TOL  # NaN (singular) steps never violate
    return DivisibilityReport(
        times=ts, min_eigenvalues=min_eigs, violation_count=int(violating.sum()),
        first_violation=float(ts[1:][violating][0]) if violating.any() else None,
        singular_steps=int(np.isnan(min_eigs).sum()), tol=_CP_TOL)


def _one_minus_entropy(r: np.ndarray) -> np.ndarray:
    """1 - S in bits of a qubit state of Bloch length r, from its spectrum
    lam = (1 + r)/2, mu = 1 - lam; below r = 0.5, where that form
    cancels, from its series sum_k r^2k / (k (2k - 1)) / (2 ln 2)."""
    out, big, small = np.zeros_like(r), r >= 0.5, (0.0 < r) & (r < 0.5)
    lam = 0.5 + 0.5 * np.minimum(r[big], 1.0)  # a pure state's r may round past 1
    mu = 1.0 - lam
    out[big] = 1.0 + (lam * np.log1p(-mu) + mu * np.log(
        mu, out=np.zeros_like(mu), where=mu > 0.0)) / np.log(2.0)
    x = r[small] ** 2
    out[small] = x * np.polyval(_CHI_SERIES, x) / (2.0 * np.log(2.0))
    return out


def holevo_curve(proc, times: Sequence[float]) -> np.ndarray:
    """Holevo information of the evolved equal-weight |+>, |-> ensemble at
    each time, in bits.

    chi(t) = S(Phi(t)[I/2]) - S(Phi(t)[|+><+|]), the states mapped to the
    Bloch vectors (0, 0, b) and (+-a, 0, b). Dephasing (b = 0) gives
    chi(t) = 1 - H2((1 + |q(t)|) / 2). In the non-unital family, a = g and
    (1 - S)(r1 = hypot(g, 1 - g)) less (1 - S)(r2 = 1 - g) cancels near 1;
    so with d = r1 - r2 = g^2/(r1 + r2) and m = 1 - r1 = 2g(1 - g)/(1 + r1),
    2 ln 2 chi = d ln(1 + r1) + (1 + r2) log1p(d/(1 + r2)) + m ln m - g ln g,
    the last two taken as g log1p(-d/g) - d ln m where m >= g/2.
    """
    ts = np.asarray(times, dtype=float)
    if (ts.ndim != 1 or ts.size == 0 or not np.isfinite(ts).all()
            or np.any(ts < 0.0)):
        raise GridError("times must be a 1-D array of finite non-negative "
                        "values")
    a = _bloch_factors(proc, ts, "holevo_curve")
    if not isinstance(proc, NonUnitalSemiMarkov):
        return _one_minus_entropy(np.abs(a))
    r1, r2 = np.hypot(a, 1.0 - a), 1.0 - a
    d, m = a * a / (r1 + r2), 2.0 * a * (1.0 - a) / (1.0 + r1)
    # m = 0 only at g = 0 and g = 1, where m ln m - g ln g = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(m >= 0.5 * a, a * np.log1p(-d / a) - d * np.log(m),
                        m * np.log(m) - a * np.log(a))
    return (d * np.log1p(r1) + (1.0 + r2) * np.log1p(d / (1.0 + r2))
            + np.where(m > 0.0, tail, 0.0)) / (2.0 * np.log(2.0))
