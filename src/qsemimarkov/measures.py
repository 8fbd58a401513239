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
A sweep over p is one batch of ragged (p, piece) arrays, and
:func:`sss_measure` is that batch for one process.

Also provided: the trace-distance-revival measure over an optimal qubit pair,
a CP-divisibility scan over intermediate maps, a closed-form bisection for
the divisibility boundary of the dephasing family, certified by the scan,
and Holevo information curves for a fixed input ensemble.
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
    _COND_MAX,
    _CP_TOL,
    DephasingGenerator,
    ProjectorGenerator,
    _propagator,
    apply_superop,
    check_density_matrix,
    choi_of_generator,
    choi_of_superop,
)
from .semimarkov import (
    _MAX_POLES,
    DephasingSemiMarkov,
    NonUnitalSemiMarkov,
    _DephasingRows,
    _level_time,
    _log_abs_q,
    _zero_counts,
    _zero_times,
    gamma_dephasing,
    gamma_nonunital,
    q_of_t,
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
_REVIVAL_FLOOR = 1e-12  # trace-distance increments up to this are rounding


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


def _equal_rows(counts: np.ndarray):
    """For each distinct length m of the ragged rows (row i holds counts[i]
    consecutive elements): the rows of that length and the (rows, m) index
    of their elements. Stacked, each row is sorted, summed and cumulated as
    it would be alone: numpy sums pairwise, so a sum's bits depend on its
    length, and a padded or concatenated row would change them."""
    m = int(counts[0])
    if (counts == m).all():  # one length, as for one row: no regrouping
        yield np.arange(counts.size), np.arange(counts.size * m).reshape(-1, m)
        return
    first = counts.cumsum() - counts
    by_length = np.argsort(counts, kind="stable")
    for rows in np.split(by_length,
                         np.flatnonzero(np.diff(counts[by_length])) + 1):
        yield rows, first[rows, None] + np.arange(counts[rows[0]])


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[i], xp[i], fp[i]) for each row i, as numpy forms it, for
    xp[i, 0] <= x[i] < xp[i, -1]: from the last node j with
    xp[i, j] <= x[i]."""
    j = np.arange(x.size) * xp.shape[1] + (xp <= x[:, None]).sum(axis=1) - 1
    xp, fp, k = xp.ravel(), fp.ravel(), j + 1
    x0, y0 = xp[j], fp[j]
    slope = (fp[k] - y0) / (xp[k] - x0)
    return np.where(x0 == x, y0, slope * (x - x0) + y0)


def _median_rate(proc, start: np.ndarray, length: np.ndarray,
                 pieces: np.ndarray, gamma_max: float | None) -> np.ndarray:
    """Time-median of gamma over each row's pieces, clipped to [0, gamma_max].

    The average |gamma - r| is convex in r with slope (2 below(r) - L) / T,
    where L is the retained length and below(r) the length of
    {t: gamma(t) < r}, so the clipped median is its exact minimizer. Moved
    back onto the first branch of gamma, each piece covers the phases
    [start, start + length], and there gamma is one increasing function of
    the phase. So below is sum clip(phi - start, 0, length) in the phase
    phi: piecewise linear, with slope the number of pieces that cover phi,
    and one interpolation per row finds the phase where it is L/2. The
    median is never negative: gamma >= 0 without poles, and with poles
    gamma < 0 only just after each pole, for less time than the stretch
    before that pole spends above 0. Row i holds ``pieces[i]`` pieces.

    :raises Singularity: if a median phase lands on a rate pole.
    """
    phase = np.empty(pieces.size)
    for rows, idx in _equal_rows(pieces):
        start_i, length_i = start[idx], length[idx]
        ends = np.concatenate([start_i, start_i + length_i], axis=1)
        order = np.argsort(ends, axis=1, kind="stable")
        ends.sort(axis=1, kind="stable")
        slope = np.where(order < idx.shape[1], 1.0, -1.0).cumsum(axis=1)
        below = np.zeros(ends.shape)
        (slope[:, :-1] * (ends[:, 1:] - ends[:, :-1])).cumsum(
            axis=1, out=below[:, 1:])
        # below ends at the retained length, past its half
        phase[rows] = _interp_rows(0.5 * length_i.sum(axis=1), below, ends)
    phase = np.where(0.0 > phase, 0.0, phase)  # gamma(0) = 0 clips a phase < 0
    if isinstance(proc, NonUnitalSemiMarkov):
        median = gamma_nonunital(proc, phase)
    else:
        median = gamma_dephasing(proc, phase)
        if np.isnan(median).any():
            raise Singularity("rate pole at t = "
                              f"{phase[np.isnan(median)][0]:g}")
    return median if gamma_max is None else np.where(
        gamma_max < median, gamma_max, median)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """ln cosh x without overflow, and to full relative precision near 0."""
    x = np.abs(np.asarray(x, dtype=float))
    small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(x, 1.0)) ** 2)
    with np.errstate(over="ignore"):  # e^{-2x} is 0 where 2x overflows
        return np.where(x < 1.0, small,
                        x - np.log(2.0) + np.log1p(np.exp(-2.0 * x)))


def _excised_pieces(T: float, poles: np.ndarray, excision: float,
                    counts: Sequence[int]) -> tuple[tuple[np.ndarray, ...],
                                                    tuple[np.ndarray, ...]]:
    """Split [0, T] into (pieces, holes) for each row, each an array triple
    (lo, hi, row): the intervals kept and those removed, the
    ``excision``-neighborhoods of the poles clipped to [0, T] and merged
    where they overlap. Row i has the next ``counts[i]`` poles, in order.

    A neighborhood joins the hole before it where it starts at or before
    that hole's end. Its end rises with the poles, so a hole ends where its
    last neighborhood does, and the pieces are the gaps between consecutive
    neighborhoods, and before the first and after the last of each row,
    that are not empty.
    """
    counts = np.asarray(counts)
    n = counts.size
    lo = np.maximum(poles - excision, 0.0)
    hi = np.minimum(poles + excision, T)
    kept = (lo < T) & (hi > lo)  # hi > 0 holds: every pole is positive
    lo, hi, row = lo[kept], hi[kept], np.arange(n).repeat(counts)[kept]
    opens, closes = np.ones((2, lo.size), dtype=bool)
    opens[1:] = closes[:-1] = (row[1:] != row[:-1]) | (lo[1:] > hi[:-1])
    slot = np.arange(lo.size) + row  # of the gap before each neighborhood
    start = np.zeros(lo.size + n)
    start[slot + 1] = hi
    end = np.full(lo.size + n, float(T))
    end[slot] = lo
    gap_row = np.arange(n).repeat(np.bincount(row, minlength=n) + 1)
    gap = start < end
    return ((start[gap], end[gap], gap_row[gap]),
            (lo[opens], hi[closes], row[opens]))


@dataclass(frozen=True)
class _Sweep:
    """The measure of each process of a sweep, element i of every array for
    row i: ``xi``, ``gamma_ref``, ``kinks`` and, from the Choi route, the
    average ``raw`` (NaN on the rate route) and ``quadrature`` (None
    there). ``holes`` is the (lo, hi, row) triple of the excised intervals;
    ``constant`` the Choi route's family constant."""

    xi: np.ndarray
    gamma_ref: np.ndarray
    kinks: np.ndarray
    holes: tuple[np.ndarray, np.ndarray, np.ndarray]
    raw: np.ndarray
    quadrature: list[QuadratureResult | None]
    constant: float | None


def _sweep_rows(proc, counts: np.ndarray, config: SSSConfig) -> _Sweep:
    """``_sweep`` on rows holding ``counts`` rate poles each."""
    T, n = config.horizon, counts.size
    nonunital = isinstance(proc, NonUnitalSemiMarkov)
    poles = np.empty(0) if nonunital else _zero_times(proc, counts)
    (lo, hi, row), holes = _excised_pieces(T, poles, config.excision, counts)
    pieces = np.bincount(row, minlength=n)
    if not pieces.all():
        raise GridError("singular-point excision removed the entire horizon")
    level_time, period = _level_time(proc)
    shift = np.zeros(lo.size)
    if poles.size:
        # poles of its row below each piece: (row, t) pairs compared as
        # complex numbers are, by row and then by t
        below = ((np.arange(n).repeat(counts) + 1j * poles).searchsorted(
            row + 1j * lo) - (counts.cumsum() - counts)[row])
        # the piece above j poles lies j periods after the first branch
        shift[below > 0] = period[row[below > 0]] * below[below > 0]
    ref = (np.full(n, float(config.gamma_ref)) if config.mode == "fixed"
           else _median_rate(proc, lo - shift, hi - lo, pieces,
                             config.gamma_max))
    # gamma rises on each piece, so it crosses ref at most once there
    cut = np.clip(level_time(ref)[row] + shift, lo, hi)
    kinks = np.bincount(row[(lo < cut) & (cut < hi)], minlength=n)
    edges = np.stack([lo, cut, hi], axis=1)
    if config.form == "rate":
        big_gamma = (_log_cosh(proc.rate * edges) if nonunital else
                     -0.5 * _log_abs_q(proc.take(row[:, None]), edges))
        if not np.isfinite(big_gamma).all():
            raise Singularity("antiderivative of the rate is not finite at t = "
                              f"{edges[~np.isfinite(big_gamma)][0]:g}")
        width = edges[:, 1:] - edges[:, :-1]
        jump = np.abs(big_gamma[:, 1:] - big_gamma[:, :-1]
                      - ref[row, None] * width)
        kept = width > 0.0
        jump = jump[kept]
        xi = np.empty(n)
        for rows, idx in _equal_rows(np.bincount(row, kept.sum(axis=1),
                                                 minlength=n).astype(int)):
            xi[rows] = jump[idx].sum(axis=1) / T
        return _Sweep(xi, ref, kinks, holes, np.full(n, np.nan), [None] * n,
                      None)
    generator = ProjectorGenerator if nonunital else DephasingGenerator
    rate = gamma_nonunital if nonunital else gamma_dephasing
    choi = lambda r: choi_of_generator(generator(rate=r, dim=2))
    constant = trace_norm(choi(1.0) - choi(0.0))
    ends = pieces.cumsum()
    quads = []
    for i, (a, b) in enumerate(zip(ends - pieces, ends)):
        one = proc if nonunital else DephasingSemiMarkov(proc.s, proc.p[i])
        chi_ref = choi(float(ref[i]))

        def integrand(t: np.ndarray) -> np.ndarray:
            gamma = rate(one, t)
            if not np.all(np.isfinite(gamma)):
                raise Singularity("rate pole at t = "
                                  f"{t[~np.isfinite(gamma)][0]:g}")
            return trace_norm(choi(gamma) - chi_ref)

        quads.append(adaptive_quad(integrand, edges[a:b, :-1].ravel(),
                                   edges[a:b, 1:].ravel()))
    raw = np.array([quad.value for quad in quads]) / T
    return _Sweep(raw / constant, ref, kinks, holes, raw, quads, constant)


def _sweep(proc, config: SSSConfig) -> _Sweep:
    """Deviation measure of every process of a sweep, as one batch.

    ``proc`` is a ``NonUnitalSemiMarkov`` (one row) or a ``_DephasingRows``
    (a row per element of p). The pole counts of all rows come first, so a
    horizon with too many poles is refused before any is listed. The rows
    then go in consecutive groups of at most ``_MAX_POLES`` poles (a row
    at the cap alone), each as one set of ragged (row, piece) arrays
    through closed forms that pick the branch of eta per row.
    ``_excised_pieces`` cuts the rate poles out of the horizon, and each
    retained piece is split at its kink, in closed form from
    ``semimarkov._level_time``, into the edges [lo, cut, hi]. The rate
    route sums |Gamma(b) - Gamma(a) - ref (b - a)| over them per row, with
    Gamma = -(1/2) ln|q(t)| for dephasing and ln cosh(lambda t) for the
    non-unital family. The Choi route integrates,
    one quadrature per row, the trace norm of the Choi difference over the
    same intervals (one Choi stack per round of nodes), and divides by the
    family constant measured from the generator at rates 1 and 0. Each row
    does the arithmetic it does alone, so its bits do not depend on the
    rest of the sweep.

    :raises Singularity: if gamma at a median, at a quadrature node, or
        Gamma at a piece end or kink is not finite, which happens only at a
        rate pole inside a tiny excision.
    :raises GridError: if a row's horizon holds more than ``_MAX_POLES``
        rate poles, or the excision removes all of it.
    """
    if isinstance(proc, NonUnitalSemiMarkov):
        return _sweep_rows(proc, np.zeros(1, dtype=np.int64), config)
    counts = _zero_counts(proc, config.horizon)
    ends, parts, start = counts.cumsum(), [], 0
    while start < counts.size:
        budget = ends[start] - counts[start] + _MAX_POLES
        stop = max(start + 1, int(ends.searchsorted(budget, side="right")))
        rows = slice(start, stop)
        parts.append((start, _sweep_rows(proc.take(rows), counts[rows],
                                         config)))
        start = stop
    if len(parts) == 1:
        return parts[0][1]
    join = lambda name: np.concatenate([getattr(x, name) for _, x in parts])
    holes = [(*x.holes[:2], x.holes[2] + at) for at, x in parts]
    return _Sweep(join("xi"), join("gamma_ref"), join("kinks"),
                  tuple(map(np.concatenate, zip(*holes))), join("raw"),
                  [q for _, x in parts for q in x.quadrature],
                  parts[0][1].constant)


def sss_measure(proc, config: SSSConfig | None = None) -> MeasureResult:
    """Deviation measure of a process family, by the route the config names.

    A sweep of one process: see ``_sweep`` for both routes.

    :raises Singularity: if gamma at the median, at a quadrature node, or
        Gamma at a piece end or kink is not finite, which happens only at a
        rate pole inside a tiny excision.
    :raises GridError: if the horizon holds more rate poles than
        ``coherence_zeros`` allows, or the excision removes all of it.
    """
    config = config or SSSConfig()
    if isinstance(proc, DephasingSemiMarkov):
        sweep = _sweep(_DephasingRows.of(proc.s, [proc.p]), config)
    elif isinstance(proc, NonUnitalSemiMarkov):
        sweep = _sweep(proc, config)
    else:
        raise DomainError(f"unknown process type {type(proc)!r}")
    xi = float(sweep.xi[0])
    choi = config.form == "choi"
    return MeasureResult(
        xi=xi, zeta=xi / (1.0 + xi), gamma_ref=float(sweep.gamma_ref[0]),
        excised=tuple(zip(sweep.holes[0].tolist(), sweep.holes[1].tolist())),
        config=config, family_constant=sweep.constant,
        raw_average=float(sweep.raw[0]) if choi else None,
        quadrature=sweep.quadrature[0], kinks=int(sweep.kinks[0]))


@dataclass(frozen=True)
class BLPResult:
    """Trace-distance revival measure and the underlying distance curve."""

    measure: float
    times: np.ndarray
    trace_distance: np.ndarray


def blp_measure(proc, t_max: float, *,
                pair: tuple[np.ndarray, np.ndarray] | None = None,
                n_grid: int = 2001) -> BLPResult:
    """Sum of trace-distance revivals over a uniform grid.

    D(t) = (1/2) || Phi(t)[rho_1 - rho_2] ||_1 is sampled on ``n_grid``
    points; increments exceeding ``_REVIVAL_FLOOR`` are accumulated. The
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
    measure = float(inc[inc > _REVIVAL_FLOOR].sum())
    return BLPResult(measure=measure, times=times, trace_distance=dist)


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of a CP-divisibility scan over consecutive intermediate maps.

    ``min_eigenvalues[i]`` is the smallest Choi eigenvalue of the propagator
    from times[i] to times[i+1] (NaN where the early map was numerically
    singular). A step counts as a violation when that eigenvalue drops below
    ``-tol``, the CP tolerance ``quantum._CP_TOL``.
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

    Steps whose early map has condition number above ``_COND_MAX`` are
    recorded as singular and skipped rather than treated as violations.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0.0) or ts[0] < 0.0:
        raise GridError("times must be a 1-D increasing grid of length >= 2")
    superops = superop_at(proc, ts)
    early, late = superops[:-1], superops[1:]
    cond = np.linalg.cond(early)
    regular = np.isfinite(cond) & (cond <= _COND_MAX)
    # intermediate_map less its second conditioning test
    V = _propagator(late[regular], early[regular])
    chi = choi_of_superop(V)
    chi = 0.5 * (chi + chi.conj().swapaxes(-1, -2))  # drop roundoff skew part
    min_eigs = np.full(ts.size - 1, np.nan)
    min_eigs[regular] = np.linalg.eigvalsh(chi)[:, 0]
    violating = min_eigs < -_CP_TOL  # NaN (singular) steps never violate
    return DivisibilityReport(
        times=ts, min_eigenvalues=min_eigs, violation_count=int(violating.sum()),
        first_violation=float(ts[1:][violating][0]) if violating.any() else None,
        singular_steps=int((~regular).sum()), tol=_CP_TOL)


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


def _steps_violate(proc: DephasingSemiMarkov, times: np.ndarray) -> bool:
    """Whether ``cp_divisibility_scan`` finds a violation, in closed form: the
    map has factor c = q(t2)/q(t1), Choi eigenvalues 1 +- c, 0, 0, cond 1/|q(t1)|."""
    q = q_of_t(proc, times)
    kept = np.abs(q[:-1]) >= 1.0 / _COND_MAX
    return bool(np.any(np.abs(q[1:][kept] / q[:-1][kept]) - 1.0 > _CP_TOL))


def _bisect(violates: Callable[[float], bool], lo: float, hi: float,
            p_tol: float) -> tuple[float, float]:
    """Halve [lo, hi] across the onset of ``violates`` to p_tol or one ulp."""
    if violates(lo):
        raise NoSignChange(f"divisibility already broken at p = {lo:g}")
    if not violates(hi):
        raise NoSignChange(f"no violation found up to p = {hi:g}")
    while hi - lo > max(p_tol, np.spacing(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if violates(mid) else (mid, hi)
    return lo, hi


def divisibility_boundary(s: float, *, p_bracket: tuple[float, float] = (0.05, 0.4),
                          t_max: float = 60.0, n_grid: int = 1200,
                          p_tol: float = 1e-4) -> BoundaryEstimate:
    """Bisect in p for the smallest jump-rate product breaking divisibility.

    Each probe is ``_steps_violate`` for the dephasing process (s, p) on a
    uniform grid over [0, t_max]. The bracket must straddle the boundary: no
    violation at ``p_bracket[0]``, violation at ``p_bracket[1]``. It is
    halved until it is ``p_tol`` wide, or one float wide where ``p_tol`` is
    finer. :func:`cp_divisibility_scan` must then find no violation at
    ``p_low`` and one at ``p_high``. Where it does not, or the closed form
    refuses the bracket, the bisection reruns with the scan as its probe.

    |q| rises only after a zero of q, so a probe violates only where the
    first zero comes while |q(t1)| >= 1/``_COND_MAX``: the defaults at s = 1
    find the onset 1.3% above s^2/8.

    :raises NoSignChange: if the bracket does not straddle the boundary.
    """
    p_lo, p_hi = float(p_bracket[0]), float(p_bracket[1])
    if not 0.0 < p_lo < p_hi:
        raise DomainError(f"bad p bracket {p_bracket!r}")
    if p_tol <= 0.0:
        raise DomainError(f"p_tol must be positive, got {p_tol!r}")
    grid = np.linspace(0.0, float(t_max), int(n_grid))
    process = lambda p: DephasingSemiMarkov(s=float(s), p=p)
    scan = lambda p: cp_divisibility_scan(process(p), grid).violation_count > 0
    try:
        lo, hi = _bisect(lambda p: _steps_violate(process(p), grid), p_lo, p_hi, p_tol)
        certified = not scan(lo) and scan(hi)
    except NoSignChange:
        certified = False
    if not certified:
        lo, hi = _bisect(scan, p_lo, p_hi, p_tol)
    return BoundaryEstimate(p_estimate=0.5 * (lo + hi), p_low=lo,
                            p_high=hi, s=float(s), t_max=float(t_max),
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
