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
adaptive quadrature and divides by the family constant (the trace norm per
unit rate), computed at runtime from the generator itself. Both routes find
the kinks on gamma sampled on whole grids, refining every crossing at once.

Also provided: the trace-distance-revival measure over an optimal qubit pair,
a CP-divisibility scan over intermediate maps, a bisection search for the
divisibility-breaking boundary of the dephasing family, and Holevo
information curves for a fixed input ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridError,
    NoSignChange,
    NumericalError,
    Singularity,
)
from .numerics import (
    QuadratureResult,
    _bracketed_roots,
    _excised_pieces,
    adaptive_quad,
    trace_norm,
    von_neumann_entropy,
)
from .quantum import (
    DephasingGenerator,
    ProjectorGenerator,
    apply_superop,
    check_density_matrix,
    choi_of_generator,
    choi_of_superop,
    intermediate_map,
)
from .semimarkov import (
    DephasingSemiMarkov,
    NonUnitalSemiMarkov,
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


class _Scan(NamedTuple):
    """gamma sampled on a scan grid of every retained piece, in time order."""

    ts: np.ndarray
    gs: np.ndarray
    piece: np.ndarray  # index of the piece each scan time belongs to
    first: np.ndarray  # index of each piece's first and last scan time,
    last: np.ndarray   # which are exactly its lo and hi


def _sample_rate(rate: Callable[[np.ndarray], np.ndarray],
                 pieces: Sequence[tuple[float, float]],
                 horizon: float) -> _Scan:
    """gamma on a scan grid of each retained piece (~257 points total).

    One vectorized rate call per piece.

    :raises Singularity: if gamma is not finite at a scan time.
    """
    ts, gs = [], []
    for lo, hi in pieces:
        n = max(33, int(np.ceil(257 * (hi - lo) / horizon)) + 1)
        ts.append(np.linspace(lo, hi, n))
        gs.append(np.asarray(rate(ts[-1]), dtype=float))
    sizes = np.array([t.size for t in ts])
    ts, gs = np.concatenate(ts), np.concatenate(gs)
    if not np.all(np.isfinite(gs)):
        raise Singularity("rate is not finite at t = "
                          f"{ts[~np.isfinite(gs)][0]:g}, outside the "
                          "excised neighborhoods")
    last = np.cumsum(sizes) - 1
    return _Scan(ts, gs, np.repeat(np.arange(sizes.size), sizes),
                 last - sizes + 1, last)


class _Split(NamedTuple):
    """Where |gamma - ref| is smooth: the retained pieces cut at the kinks."""

    edges: np.ndarray  # piece ends and kinks, non-decreasing
    sign: np.ndarray   # sign of gamma - ref on each [edges[i], edges[i+1]]
    gap: np.ndarray    # True where [edges[i], edges[i+1]] is an excised hole
    kinks: np.ndarray

    def below(self, strict: bool = True) -> float:
        """Length of {t: gamma(t) < ref} (``<=`` if not ``strict``)."""
        inside = (self.sign < 0.0 if strict else self.sign <= 0.0) & ~self.gap
        return float((self.edges[1:] - self.edges[:-1])[inside].sum())


class _Crossings(NamedTuple):
    """Sign changes of gamma - ref along the scan.

    Only genuine sign changes produce kinks (a touch without sign change
    leaves |gamma - ref| smooth), so runs of exact zeros — e.g. gamma
    identically equal to the reference — contribute at most one kink, the
    middle of the run.
    """

    d: np.ndarray     # gamma - ref at the scan times
    nz: np.ndarray    # scan indices where d != 0
    a: np.ndarray     # d changes sign between scan times a and a + 1
    runs: np.ndarray  # scan indices of the kinks inside zero runs


def _crossings(scan: _Scan, ref: float) -> _Crossings:
    d = scan.gs - ref
    sig = np.sign(d)
    nz = np.flatnonzero(sig)
    a, b = nz[:-1], nz[1:]
    flip = (sig[a] != sig[b]) & (scan.piece[a] == scan.piece[b])
    a, b = a[flip], b[flip]
    adjacent = b == a + 1
    return _Crossings(d, nz, a[adjacent], (a + b)[~adjacent] // 2)


def _cut(scan: _Scan, cr: _Crossings, roots: np.ndarray) -> _Split:
    """Cut the pieces at ``roots`` (one per bracket ``cr.a``) and the runs.

    The edges are ordered by scan index, not by time: a root may round onto
    the end of its bracket, and a piece end must stay outside its kinks.
    Each stretch between kinks takes the sign of the scan inside it (0 if
    gamma equals ref at every scan time there).
    """
    keys = np.concatenate([scan.first - 0.25, scan.last + 0.25, cr.a + 0.5,
                           cr.runs])
    edges = np.concatenate([scan.ts[scan.first], scan.ts[scan.last], roots,
                            scan.ts[cr.runs]])
    order = np.argsort(keys)
    keys, edges = keys[order], edges[order]
    sign = np.zeros(edges.size - 1)
    sign[np.searchsorted(keys, cr.nz) - 1] = np.sign(cr.d[cr.nz])
    gap = keys[:-1] % 1.0 == 0.25  # the stretch after a piece's hi
    return _Split(edges, sign, gap, edges[order >= 2 * scan.first.size])


def _split(rate: Callable[[np.ndarray], np.ndarray], scan: _Scan,
           ref: float) -> _Split:
    """Kinks of |gamma - ref|: the scan's sign changes, refined together."""
    cr = _crossings(scan, ref)
    a, ts = cr.a, scan.ts
    roots = (_bracketed_roots(lambda t: rate(t) - ref, ts[a], ts[a + 1],
                              cr.d[a], cr.d[a + 1]) if a.size
             else np.empty(0))
    return _cut(scan, cr, roots)


def _newton_median(rate: Callable[[np.ndarray], np.ndarray], scan: _Scan,
                   length: float, max_iter: int = 50) -> float | None:
    """Median rate by Newton steps on r that move every kink at once.

    Each kink carries a secant model of gamma through its last point
    (t_k, g_k), so at level r it sits at t_k + (r - g_k) / m_k, and
    below(r) is linear in r with slope sum 1/|m_k|. A Newton step on r
    moves every kink, and one rate call at the moved kinks updates their
    models. The models start from the scan's chords, and start again
    whenever the crossings change. The iteration starts from the median of
    the sampled values. It stops when gamma at every kink's last point
    equals r to within the rounding of r and of that point, and either the
    step on r or below(r) - L/2 is at the rounding level (a flat gamma
    leaves the kinks ill-conditioned, but not r).

    :return: the median, or None where the iteration does not apply (no
        crossing to move) or does not settle.
    """
    ts, gs = scan.ts, scan.gs
    r = float(np.median(gs))
    a = None
    tol = 8.0 * np.finfo(float).eps
    for _ in range(max_iter):
        cr = _crossings(scan, r)
        if cr.runs.size:  # r is a sampled value: step off it
            r = np.nextafter(r, np.inf)
            continue
        if not cr.a.size:
            return None
        if a is None or not np.array_equal(cr.a, a):
            a = cr.a
            lo, hi = ts[a], ts[a + 1]
            t, g = lo, gs[a]
            m = (gs[a + 1] - g) / (hi - lo)
        kinks = np.clip(t + (r - g) / m, lo, hi)
        sp = _cut(scan, cr, kinks)
        excess = sp.below() - 0.5 * length
        step = excess / np.sum(1.0 / np.abs(m))
        if (np.all(np.abs(g - r) <= tol * (abs(r) + np.abs(m * t)))
                and min(abs(step) / abs(r), abs(excess) / length) <= tol):
            return float(r)
        r -= step
        moved = np.clip(t + (r - g) / m, lo, hi)
        g_moved = np.asarray(rate(moved), dtype=float)
        dt = moved - t
        secant = (g_moved - g) / np.where(dt == 0.0, 1.0, dt)
        keep = (np.abs(dt) < 1e-7 * (hi - lo)) | ~(secant * m > 0.0)
        m = np.where(keep, m, secant)
        t, g = moved, g_moved
    return None


def _median_reference(rate: Callable[[np.ndarray], np.ndarray],
                      split_at: Callable[[float], _Split], scan: _Scan,
                      gamma_max: float | None) -> float:
    """Time-median of gamma over the retained pieces, clipped to [0, gamma_max].

    The average |gamma - r| is convex in r with slope (2 below(r) - L) / T,
    where L is the retained length and below(r) the length of
    {t: gamma(t) < r}, so the clipped median is its exact minimizer.
    below(r) is summed over the stretches between the crossings of gamma
    with r, each classified by its sign. Inside the clip the median comes
    from :func:`_newton_median`. Where that gives None it is the root of
    below(r) - L/2 on [0, hi], found by :func:`_bracketed_roots` on one
    bracket; hi starts at the largest sampled gamma (or ``gamma_max``) and
    widens. That solve refines every kink at every probe of r; on a
    min-mode sweep it takes about four times as long as the Newton steps.
    """
    length = float(np.sum(scan.ts[scan.last] - scan.ts[scan.first]))

    def excess(r: float) -> float:
        return split_at(float(r)).below() - 0.5 * length

    if split_at(0.0).below(strict=False) >= 0.5 * length:
        return 0.0  # the slope is non-negative at r = 0 (covers gamma == 0)
    if gamma_max is not None and excess(gamma_max) <= 0.0:
        return float(gamma_max)
    median = _newton_median(rate, scan, length)
    if median is not None:
        return median
    if gamma_max is not None:
        hi = float(gamma_max)
    else:
        hi = max(float(scan.gs.max()), 0.0)
        step = max(hi, 1.0)
        while np.isfinite(hi) and excess(hi) <= 0.0:
            hi += step
            step *= 2.0
        if not np.isfinite(hi):
            raise NumericalError("no finite upper bracket for the median rate")
    root = _bracketed_roots(lambda r: np.array([excess(r[0])]), [0.0], [hi],
                            [excess(0.0)], [excess(hi)])
    return float(root[0])


def _log_cosh(x: np.ndarray) -> np.ndarray:
    """ln cosh x without overflow, and to full relative precision near 0."""
    x = np.abs(np.asarray(x, dtype=float))
    small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(x, 1.0)) ** 2)
    return np.where(x < 1.0, small, x - np.log(2.0) + np.log1p(np.exp(-2.0 * x)))


def sss_measure(proc, config: SSSConfig | None = None) -> MeasureResult:
    """Deviation measure of a process family, by the route the config names.

    For the dephasing family the rate poles (zeros of the coherence factor)
    inside the horizon are excised. The rate route sums
    |Gamma(b) - Gamma(a) - ref (b - a)| over the stretches between kinks,
    with Gamma = -(1/2) ln|q(t)| for dephasing and ln cosh(lambda t) for the
    non-unital family. The Choi route integrates the trace norm of the Choi
    difference with the kinks as breakpoints, and divides by the family
    constant measured from the generator at rates 1 and 0.
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
    scan = _sample_rate(rate, pieces, T)
    cache: dict[float, _Split] = {}  # the median's last probe is reused

    def split_at(r: float) -> _Split:
        if r not in cache:
            cache[r] = _split(rate, scan, r)
        return cache[r]

    ref = (config.gamma_ref if config.mode == "fixed"
           else _median_reference(rate, split_at, scan, config.gamma_max))
    sp = split_at(ref)
    if config.form == "rate":
        jump = np.diff(antiderivative(sp.edges))
        xi = float(np.abs(jump - ref * np.diff(sp.edges))[~sp.gap].sum() / T)
        return MeasureResult(xi=xi, zeta=xi / (1.0 + xi), gamma_ref=ref,
                             excised=tuple(holes), config=config,
                             kinks=sp.kinks.size)
    choi = lambda r: choi_of_generator(generator(rate=r, dim=2))
    constant = trace_norm(choi(1.0) - choi(0.0))
    chi_ref = choi(ref)
    quad = adaptive_quad(lambda t: trace_norm(choi(float(rate(t))) - chi_ref),
                         0.0, T, singular_points=poles,
                         excision=config.excision, breakpoints=sp.kinks)
    raw = quad.value / T
    xi = raw / constant
    return MeasureResult(xi=xi, zeta=xi / (1.0 + xi), gamma_ref=ref,
                         excised=tuple(holes), config=config,
                         family_constant=constant, raw_average=raw,
                         quadrature=quad, kinks=sp.kinks.size)


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
    V = intermediate_map(late[regular], early[regular], cond_max=cond_max)
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
