"""Non-Markovianity measures and divisibility diagnostics.

The central quantity is the time-averaged deviation of the canonical decay
rate gamma(t) from a constant reference rate:

    xi = min over allowed references of (1/T) int_0^T |gamma(t) - gamma_ref| dt,

reported together with its bounded companion zeta = xi / (1 + xi). Two
reference policies are supported: ``mode="fixed"`` scores against a given
constant (default 0, the semigroup with no decay), while ``mode="min"``
minimizes over all constants, which for an L1 cost means the time-median of
gamma. :func:`sss_measure` computes xi for a process family by either of
two routes, which must agree. ``form="rate"`` is exact:
gamma is a log-derivative, so between the kinks where gamma crosses the
reference the integral is |Gamma(b) - Gamma(a) - gamma_ref (b - a)|, with
Gamma the antiderivative of gamma; no quadrature is made. ``form="choi"``
integrates the trace norm of the difference of generator Choi matrices by
adaptive quadrature, batched over the nodes of each round, and divides by
the family constant (the trace norm per unit rate), computed at runtime
from the generator itself. Neither route searches: gamma rises between its
poles, so each retained piece holds at most one kink, at a closed-form
time, and the time-median is one interpolation. The rate poles are cut out
here only, and both routes work on the same pieces, split at their kinks.

Also provided: the trace-distance-revival measure over an optimal qubit pair,
a CP-divisibility scan over intermediate maps, a bisection search for the
divisibility-breaking boundary of the dephasing family, and Holevo
information curves for a fixed input ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridError,
    NoSignChange,
    Singularity,
)
from .numerics import (
    QuadratureResult,
    adaptive_quad,
    trace_norm,
    von_neumann_entropy,
)
from .quantum import (
    DephasingGenerator,
    ProjectorGenerator,
    _propagator,
    apply_superop,
    check_density_matrix,
    choi_of_generator,
    choi_of_superop,
)
from .semimarkov import (
    DephasingSemiMarkov,
    NonUnitalSemiMarkov,
    _level_time,
    _log_abs_q,
    coherence_zeros,
    gamma_dephasing,
    gamma_nonunital,
    superop_at,
)

__all__ = [
    "PLUS_STATE",
    "MINUS_STATE",
    "SSSConfig",
    "MeasureResult",
    "sss_measure",
    "BLPResult",
    "blp_measure",
    "DivisibilityReport",
    "cp_divisibility_scan",
    "BoundaryEstimate",
    "divisibility_boundary",
    "holevo_curve",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a

PLUS_STATE = _readonly(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
MINUS_STATE = _readonly(np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))

_MODES = ("fixed", "min")
_FORMS = ("rate", "choi")


@dataclass(frozen=True)
class SSSConfig:
    """Settings for the deviation-from-semigroup measure.

    :param horizon: averaging window T.
    :param mode: ``"fixed"`` scores against ``gamma_ref``; ``"min"``
        minimizes over constant references.
    :param form: ``"rate"`` sums the rate deviation in closed form from
        the antiderivative of gamma; ``"choi"`` integrates trace norms of
        generator Choi differences and normalizes by the family constant.
    :param gamma_ref: the reference rate used by ``mode="fixed"``.
    :param gamma_max: upper clip of the minimizing reference for
        ``mode="min"``, which is the time-median of gamma clipped to
        [0, gamma_max]; default is no upper clip.
    :param excision: half-width of the neighborhoods removed around rate
        poles before integrating.
    """

    horizon: float = 1.0
    mode: str = "fixed"
    form: str = "rate"
    gamma_ref: float = 0.0
    gamma_max: float | None = None
    excision: float = 1e-6

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon!r}")
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.form not in _FORMS:
            raise DomainError(f"form must be one of {_FORMS}, got {self.form!r}")
        if not np.isfinite(self.gamma_ref):
            raise DomainError(f"gamma_ref must be finite, got {self.gamma_ref!r}")
        if self.gamma_max is not None and (
            not np.isfinite(self.gamma_max) or self.gamma_max <= 0.0
        ):
            raise DomainError(f"gamma_max must be positive, got {self.gamma_max!r}")
        if not np.isfinite(self.excision) or self.excision <= 0.0:
            raise DomainError(f"excision must be positive, got {self.excision!r}")


@dataclass(frozen=True)
class MeasureResult:
    """Deviation-from-semigroup score and how it was obtained.

    ``raw_average`` and ``family_constant`` are populated by the Choi route:
    the former is the time-averaged trace-norm integral before dividing by
    the latter. ``quadrature`` is the Choi route's ``QuadratureResult``
    (value, error estimate, evaluation count). The rate route is exact and
    leaves all three None. ``kinks`` counts the times where gamma crosses
    the reference, the edges of the pieces on which the integrand is smooth.
    """

    xi: float
    zeta: float
    gamma_ref: float
    excised: tuple[tuple[float, float], ...]
    config: SSSConfig
    family_constant: float | None = None
    raw_average: float | None = None
    quadrature: QuadratureResult | None = None
    kinks: int = 0


def _median_rate(rate: Callable[[float], float], start: np.ndarray,
                 length: np.ndarray, gamma_max: float | None) -> float:
    """Time-median of gamma over the retained pieces, clipped to [0, gamma_max].

    The average |gamma - r| is convex in r with slope (2 below(r) - L) / T,
    where L is the retained length and below(r) the length of
    {t: gamma(t) < r}, so the clipped median is its exact minimizer. Moved
    back onto the first branch of gamma, each piece covers the phases
    [start, start + length], and there gamma is one increasing function of
    the phase. So below is sum clip(phi - start, 0, length) in the phase
    phi: piecewise linear, with slope the number of pieces that cover phi,
    and one interpolation finds the phase where it is L/2. The median is
    never negative: gamma >= 0 without poles, and with poles gamma < 0 only
    just after each pole, for less time than the stretch before that pole
    spends above 0.
    """
    ends = np.concatenate([start, start + length])
    order = np.argsort(ends, kind="stable")
    slope = np.cumsum(np.where(order < start.size, 1.0, -1.0))[:-1]
    below = np.concatenate([[0.0], np.cumsum(slope * np.diff(ends[order]))])
    phase = np.interp(0.5 * length.sum(), below, ends[order])
    median = float(rate(max(phase, 0.0)))  # gamma(0) = 0 clips a phase < 0
    return median if gamma_max is None else min(median, gamma_max)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """ln cosh x without overflow, and to full relative precision near 0."""
    x = np.abs(np.asarray(x, dtype=float))
    small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(x, 1.0)) ** 2)
    return np.where(x < 1.0, small, x - np.log(2.0) + np.log1p(np.exp(-2.0 * x)))


def _excised_pieces(a: float, b: float, singular_points: Sequence[float],
                    excision: float) -> tuple[list[tuple[float, float]],
                                              list[tuple[float, float]]]:
    """Split [a, b] into (pieces, holes): the intervals kept and those
    removed, the ``excision``-neighborhoods of the poles clipped to [a, b]
    and merged where they overlap. A plain loop: at the default horizon a
    sweep point has at most one pole, where numpy would cost 20x more."""
    holes: list[tuple[float, float]] = []
    for x in sorted(singular_points):
        lo, hi = max(a, x - excision), min(b, x + excision)
        if hi <= a or lo >= b or hi <= lo:
            continue
        if holes and lo <= holes[-1][1]:
            holes[-1] = (holes[-1][0], max(holes[-1][1], hi))
        else:
            holes.append((lo, hi))
    pieces: list[tuple[float, float]] = []
    cursor = a
    for lo, hi in holes:
        if lo > cursor:
            pieces.append((cursor, lo))
        cursor = hi
    if cursor < b:
        pieces.append((cursor, b))
    return pieces, holes


def sss_measure(proc, config: SSSConfig | None = None) -> MeasureResult:
    """Deviation measure of a process family, by the route the config names.

    For the dephasing family ``_excised_pieces`` cuts the rate poles (zeros
    of the coherence factor) out of the horizon, and each retained piece is
    split at its kink, in closed form from ``semimarkov._level_time``, into
    the edges [lo, cut, hi]. The rate route sums
    |Gamma(b) - Gamma(a) - ref (b - a)| over them, with
    Gamma = -(1/2) ln|q(t)| for dephasing and ln cosh(lambda t) for the
    non-unital family. The Choi route integrates the trace norm of the Choi
    difference over the same intervals (one Choi stack per round of nodes),
    and divides by the family constant measured from the generator at
    rates 1 and 0.

    :raises Singularity: if gamma at the median, at a quadrature node, or
        Gamma at a piece end or kink is not finite, which happens only at a
        rate pole inside a tiny excision.
    :raises GridError: if the horizon holds more rate poles than
        ``coherence_zeros`` allows, or the excision removes all of it.
    """
    config = config or SSSConfig()
    T = config.horizon
    if isinstance(proc, DephasingSemiMarkov):
        rate = lambda t: gamma_dephasing(proc, t)
        antiderivative = lambda t: -0.5 * _log_abs_q(proc, t)
        poles = coherence_zeros(proc, T).tolist()
        generator = DephasingGenerator
    elif isinstance(proc, NonUnitalSemiMarkov):
        rate = lambda t: gamma_nonunital(proc, t)
        antiderivative = lambda t: _log_cosh(proc.rate * t)
        poles = []
        generator = ProjectorGenerator
    else:
        raise DomainError(f"unknown process type {type(proc)!r}")
    pieces, holes = _excised_pieces(0.0, T, poles, config.excision)
    if not pieces:
        raise GridError("singular-point excision removed the entire horizon")
    lo, hi = np.array(pieces).T
    level_time, period = _level_time(proc)
    # the piece above j poles lies j periods after the first branch of gamma
    shift = period * np.searchsorted(poles, lo) if poles else np.zeros_like(lo)
    ref = (config.gamma_ref if config.mode == "fixed"
           else _median_rate(rate, lo - shift, hi - lo, config.gamma_max))
    # gamma rises on each piece, so it crosses ref at most once there
    cut = np.clip(level_time(ref) + shift, lo, hi)
    kinks = int(np.count_nonzero((lo < cut) & (cut < hi)))
    edges = np.stack([lo, cut, hi], axis=1)
    if config.form == "rate":
        big_gamma = antiderivative(edges)
        if not np.all(np.isfinite(big_gamma)):
            raise Singularity("antiderivative of the rate is not finite at t = "
                              f"{edges[~np.isfinite(big_gamma)][0]:g}")
        jump = np.abs(np.diff(big_gamma) - ref * np.diff(edges))
        xi = float(jump[np.diff(edges) > 0.0].sum() / T)
        return MeasureResult(xi=xi, zeta=xi / (1.0 + xi), gamma_ref=ref,
                             excised=tuple(holes), config=config,
                             kinks=kinks)
    choi = lambda r: choi_of_generator(generator(rate=r, dim=2))
    constant = trace_norm(choi(1.0) - choi(0.0))
    chi_ref = choi(ref)

    def integrand(t: np.ndarray) -> np.ndarray:
        gamma = rate(t)
        if not np.all(np.isfinite(gamma)):
            raise Singularity("rate pole at t = "
                              f"{t[~np.isfinite(gamma)][0]:g}")
        return trace_norm(choi(gamma) - chi_ref)

    quad = adaptive_quad(integrand, edges[:, :-1].ravel(),
                         edges[:, 1:].ravel())
    raw = quad.value / T
    xi = raw / constant
    return MeasureResult(xi=xi, zeta=xi / (1.0 + xi), gamma_ref=ref,
                         excised=tuple(holes), config=config,
                         family_constant=constant, raw_average=raw,
                         quadrature=quad, kinks=kinks)


@dataclass(frozen=True)
class BLPResult:
    """Trace-distance revival measure and the underlying distance curve."""

    measure: float
    times: np.ndarray
    trace_distance: np.ndarray


def blp_measure(proc, t_max: float, *,
                pair: tuple[np.ndarray, np.ndarray] | None = None,
                n_grid: int = 2001,
                increment_floor: float = 1e-12) -> BLPResult:
    """Sum of trace-distance revivals over a uniform grid.

    D(t) = (1/2) || Phi(t)[rho_1 - rho_2] ||_1 is sampled on ``n_grid``
    points; increments exceeding ``increment_floor`` are accumulated. The
    default pair is |+><+|, |-><-|, which maximizes revivals for the
    dephasing family (D(t) = |q(t)|).
    """
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise DomainError(f"t_max must be positive, got {t_max!r}")
    if n_grid < 2:
        raise DomainError(f"n_grid must be >= 2, got {n_grid!r}")
    if pair is None:
        rho1, rho2 = PLUS_STATE, MINUS_STATE
    else:
        rho1, rho2 = (check_density_matrix(r) for r in pair)
    delta = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    times = np.linspace(0.0, float(t_max), int(n_grid))
    dist = 0.5 * trace_norm(apply_superop(superop_at(proc, times), delta))
    inc = np.diff(dist)
    measure = float(inc[inc > increment_floor].sum())
    return BLPResult(measure=measure, times=times, trace_distance=dist)


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of a CP-divisibility scan over consecutive intermediate maps.

    ``min_eigenvalues[i]`` is the smallest Choi eigenvalue of the propagator
    from times[i] to times[i+1] (NaN where the early map was numerically
    singular). A step counts as a violation when that eigenvalue drops below
    ``-tol``.
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


def cp_divisibility_scan(proc, times: Sequence[float], *, tol: float = 1e-8,
                         cond_max: float = 1e12) -> DivisibilityReport:
    """Check complete positivity of every consecutive intermediate map.

    Steps whose early map has condition number above ``cond_max`` are
    recorded as singular and skipped rather than treated as violations.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0.0) or ts[0] < 0.0:
        raise GridError("times must be a 1-D increasing grid of length >= 2")
    superops = superop_at(proc, ts)
    early, late = superops[:-1], superops[1:]
    cond = np.linalg.cond(early)
    regular = np.isfinite(cond) & (cond <= cond_max)
    # intermediate_map less its second conditioning test
    V = _propagator(late[regular], early[regular])
    chi = choi_of_superop(V)
    chi = 0.5 * (chi + chi.conj().swapaxes(-1, -2))  # drop roundoff skew part
    min_eigs = np.full(ts.size - 1, np.nan)
    min_eigs[regular] = np.linalg.eigvalsh(chi)[:, 0]
    violating = min_eigs < -tol  # NaN (singular) steps never violate
    return DivisibilityReport(
        times=ts, min_eigenvalues=min_eigs, violation_count=int(violating.sum()),
        first_violation=float(ts[1:][violating][0]) if violating.any() else None,
        singular_steps=int((~regular).sum()), tol=tol)


@dataclass(frozen=True)
class BoundaryEstimate:
    """Bisection bracket for the onset of CP-indivisibility in p."""

    p_estimate: float
    p_low: float
    p_high: float
    s: float
    t_max: float
    n_grid: int
    p_tol: float


def divisibility_boundary(s: float, *, p_bracket: tuple[float, float] = (0.05, 0.4),
                          t_max: float = 60.0, n_grid: int = 1200,
                          p_tol: float = 1e-4, tol: float = 1e-8,
                          cond_max: float = 1e12) -> BoundaryEstimate:
    """Bisect in p for the smallest jump-rate product breaking divisibility.

    Each probe runs :func:`cp_divisibility_scan` for the dephasing process
    (s, p) on a uniform grid over [0, t_max]. The bracket must straddle the
    boundary: no violation at ``p_bracket[0]``, violation at ``p_bracket[1]``.

    Near the boundary the violations are exponentially weak (the first
    negative Choi eigenvalue scales like the coherence revival amplitude),
    so the detectable onset sits slightly above the exact threshold; the
    defaults resolve it to a few parts in 1e3 of s^2/8.

    :raises NoSignChange: if the bracket does not straddle the boundary.
    """
    p_lo, p_hi = float(p_bracket[0]), float(p_bracket[1])
    if not 0.0 < p_lo < p_hi:
        raise DomainError(f"bad p bracket {p_bracket!r}")
    if p_tol <= 0.0:
        raise DomainError(f"p_tol must be positive, got {p_tol!r}")
    grid = np.linspace(0.0, float(t_max), int(n_grid))

    def violates(p: float) -> bool:
        proc = DephasingSemiMarkov(s=float(s), p=p)
        report = cp_divisibility_scan(proc, grid, tol=tol, cond_max=cond_max)
        return report.violation_count > 0

    if violates(p_lo):
        raise NoSignChange(f"divisibility already broken at p = {p_lo:g}")
    if not violates(p_hi):
        raise NoSignChange(f"no violation found up to p = {p_hi:g}")
    while p_hi - p_lo > p_tol:
        mid = 0.5 * (p_lo + p_hi)
        if violates(mid):
            p_hi = mid
        else:
            p_lo = mid
    return BoundaryEstimate(p_estimate=0.5 * (p_lo + p_hi), p_low=p_lo,
                            p_high=p_hi, s=float(s), t_max=float(t_max),
                            n_grid=int(n_grid), p_tol=float(p_tol))


def holevo_curve(proc, times: Sequence[float], *,
                 ensemble: Sequence[tuple[float, np.ndarray]] | None = None
                 ) -> np.ndarray:
    """Holevo information of the evolved ensemble at each time, in bits.

    chi(t) = S(sum_i p_i Phi(t)[rho_i]) - sum_i p_i S(Phi(t)[rho_i]).

    :param ensemble: pairs (probability, state); default is the equal-weight
        |+><+| / |-><-| pair, for which dephasing gives
        chi(t) = 1 - H2((1 + |q(t)|) / 2).
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or np.any(ts < 0.0):
        raise GridError("times must be a 1-D array of non-negative values")
    if ensemble is None:
        ensemble = ((0.5, PLUS_STATE), (0.5, MINUS_STATE))
    probs = np.array([float(p) for p, _ in ensemble])
    if np.any(probs <= 0.0) or abs(probs.sum() - 1.0) > 1e-10:
        raise DomainError("ensemble probabilities must be positive and sum to 1")
    states = np.array([check_density_matrix(r) for _, r in ensemble])
    outs = apply_superop(superop_at(proc, ts)[:, None], states)  # (time, state)
    avg = (probs[:, None, None] * outs).sum(axis=1)
    return von_neumann_entropy(avg) - (probs * von_neumann_entropy(outs)).sum(axis=1)
