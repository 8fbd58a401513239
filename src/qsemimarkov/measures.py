"""Non-Markovianity measures and divisibility diagnostics.

The central quantity is the time-averaged deviation of the canonical decay
rate gamma(t) from a constant reference rate:

    xi = min over allowed references of (1/T) int_0^T |gamma(t) - gamma_ref| dt,

reported together with its bounded companion zeta = xi / (1 + xi). Two
reference policies are supported: ``mode="fixed"`` scores against a given
constant (default 0, the semigroup with no decay), while ``mode="min"``
minimizes over all constants, which for an L1 cost means the time-median of
gamma. Two integrand routes are supported and must agree: ``form="rate"``
integrates |gamma - gamma_ref| directly, while ``form="choi"`` integrates the
trace norm of the difference of generator Choi matrices and divides by the
family constant (the trace norm per unit rate), computed at runtime from the
generator itself.

Also provided: the trace-distance-revival measure over an optimal qubit pair,
a CP-divisibility scan over intermediate maps, a bisection search for the
divisibility-breaking boundary of the dephasing family, and Holevo
information curves for a fixed input ensemble.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridError,
    NoSignChange,
    NumericalError,
)
from .numerics import (
    _excised_pieces,
    adaptive_quad,
    find_root,
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
    "sss_rate_form",
    "sss_choi_form",
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
    :param form: ``"rate"`` integrates the rate deviation directly;
        ``"choi"`` goes through generator Choi matrices and normalizes by
        the family constant.
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
    the latter. For the rate route both are None.
    """

    xi: float
    zeta: float
    gamma_ref: float
    excised: tuple[tuple[float, float], ...]
    config: SSSConfig
    family_constant: float | None = None
    raw_average: float | None = None


def _sample_rate(gamma_fn: Callable[[float], float],
                 pieces: Sequence[tuple[float, float]],
                 horizon: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cache gamma on a scan grid of each retained piece (~257 points total)."""
    out = []
    for lo, hi in pieces:
        n = max(33, int(np.ceil(257 * (hi - lo) / horizon)) + 1)
        ts = np.linspace(lo, hi, n)
        out.append((ts, np.array([float(gamma_fn(t)) for t in ts])))
    return out


def _reference_crossings(gamma_fn: Callable[[float], float],
                         samples: Sequence[tuple[np.ndarray, np.ndarray]],
                         ref: float) -> list[float]:
    """Kink locations of |gamma - ref|: sign changes refined by Brent.

    Only genuine sign changes produce kinks (a touch without sign change
    leaves |gamma - ref| smooth), so runs of exact zeros — e.g. gamma
    identically equal to the reference — contribute at most one point.
    """
    roots: list[float] = []
    for ts, gs in samples:
        sig = np.sign(gs - ref)
        nz = np.flatnonzero(sig != 0.0)
        for a, b in zip(nz[:-1], nz[1:]):
            if sig[a] == sig[b]:
                continue
            if b == a + 1:
                roots.append(find_root(lambda t: float(gamma_fn(t)) - ref,
                                       float(ts[a]), float(ts[b])))
            else:
                # the crossing sits inside a run of exact zeros
                roots.append(float(ts[(a + b) // 2]))
    return sorted(roots)


def _median_reference(gamma_fn: Callable[[float], float],
                      samples: Sequence[tuple[np.ndarray, np.ndarray]],
                      gamma_max: float | None) -> float:
    """Time-median of gamma over the retained pieces, clipped to [0, gamma_max].

    The average |gamma - r| is convex in r with slope (2 below(r) - L) / T,
    where L is the retained length and below(r) the length of
    {t: gamma(t) < r}, so the clipped median is its exact minimizer.
    below(r) is measured from the crossings of gamma with r, classifying each
    sub-interval by gamma at its midpoint. Without ``gamma_max`` the upper
    end of the root bracket starts at the largest sampled gamma and widens.
    """
    length = sum(float(ts[-1] - ts[0]) for ts, _ in samples)

    def sublevel(r: float, cmp: Callable) -> float:
        total = 0.0
        for piece in samples:
            ts = piece[0]
            edges = [float(ts[0]), *_reference_crossings(gamma_fn, [piece], r),
                     float(ts[-1])]
            for a, b in zip(edges[:-1], edges[1:]):
                if b > a and cmp(float(gamma_fn(0.5 * (a + b))), r):
                    total += b - a
        return total

    def excess(r: float) -> float:
        return sublevel(r, operator.lt) - 0.5 * length

    if sublevel(0.0, operator.le) >= 0.5 * length:
        return 0.0  # the slope is non-negative at r = 0 (covers gamma == 0)
    if gamma_max is not None:
        hi = float(gamma_max)
        if excess(hi) <= 0.0:
            return hi
    else:
        hi = max(float(np.concatenate([g for _, g in samples]).max()), 0.0)
        step = max(hi, 1.0)
        while np.isfinite(hi) and excess(hi) <= 0.0:
            hi += step
            step *= 2.0
        if not np.isfinite(hi):
            raise NumericalError("no finite upper bracket for the median rate")
    return find_root(excess, 0.0, hi)


def _solve_measure(gamma_fn: Callable[[float], float], config: SSSConfig,
                   singular_points: Sequence[float],
                   deviation_of: Callable[[float], Callable[[float], float]],
                   normalizer: float) -> tuple[float, float, float,
                                               tuple[tuple[float, float], ...]]:
    """Shared engine: average deviation_of(ref) over the excised horizon.

    ``deviation_of(ref)`` returns the integrand t -> distance between the
    instantaneous generator and the constant-ref generator; its kinks at
    gamma(t) = ref are located on the sampled rate and passed to the
    quadrature as forced breakpoints. ``mode="min"`` takes ref as the
    clipped time-median of gamma, so either mode makes one quadrature.
    """
    T = config.horizon
    sing = sorted(float(x) for x in singular_points)
    pieces, holes = _excised_pieces(0.0, T, sing, config.excision)
    if not pieces:
        raise GridError("singular-point excision removed the entire horizon")
    samples = _sample_rate(gamma_fn, pieces, T)
    ref = (config.gamma_ref if config.mode == "fixed"
           else _median_reference(gamma_fn, samples, config.gamma_max))
    res = adaptive_quad(deviation_of(ref), 0.0, T,
                        singular_points=sing, excision=config.excision,
                        breakpoints=_reference_crossings(gamma_fn, samples, ref))
    raw = res.value / T
    xi = raw / normalizer
    return xi, raw, ref, tuple(holes)


def sss_rate_form(gamma_fn: Callable[[float], float], config: SSSConfig, *,
                  singular_points: Sequence[float] = ()) -> MeasureResult:
    """Deviation measure from the rate function directly.

    :param gamma_fn: scalar canonical rate gamma(t); may raise
        ``Singularity`` inside the excised neighborhoods of
        ``singular_points`` but must be finite elsewhere on [0, horizon].
    """
    def deviation_of(ref: float) -> Callable[[float], float]:
        return lambda t: abs(float(gamma_fn(t)) - ref)

    xi, _, ref, holes = _solve_measure(gamma_fn, config, singular_points,
                                       deviation_of, 1.0)
    return MeasureResult(xi=xi, zeta=xi / (1.0 + xi), gamma_ref=ref,
                         excised=holes, config=config)


def sss_choi_form(gamma_fn: Callable[[float], float],
                  generator_factory: Callable[[float], object],
                  config: SSSConfig, *,
                  singular_points: Sequence[float] = ()) -> MeasureResult:
    """Deviation measure via trace norms of generator Choi differences.

    ``generator_factory(rate)`` must build the family's generator snapshot
    (an object accepted by ``choi_of_generator``). The family constant --
    trace norm of the Choi difference per unit rate -- is measured from the
    factory at rates 1 and 0 and used to normalize, making the result
    directly comparable to :func:`sss_rate_form`.
    """
    constant = trace_norm(choi_of_generator(generator_factory(1.0))
                          - choi_of_generator(generator_factory(0.0)))
    if constant <= 0.0:
        raise DomainError("generator family has zero Choi response per unit rate")

    def deviation_of(ref: float) -> Callable[[float], float]:
        chi_ref = choi_of_generator(generator_factory(ref))

        def integrand(t: float) -> float:
            chi = choi_of_generator(generator_factory(float(gamma_fn(t))))
            return trace_norm(chi - chi_ref)

        return integrand

    xi, raw, ref, holes = _solve_measure(gamma_fn, config, singular_points,
                                         deviation_of, constant)
    return MeasureResult(xi=xi, zeta=xi / (1.0 + xi), gamma_ref=ref,
                         excised=holes, config=config,
                         family_constant=constant, raw_average=raw)


def sss_measure(proc, config: SSSConfig | None = None) -> MeasureResult:
    """Deviation measure of a process family, dispatching on the config form.

    For the dephasing family the rate poles (zeros of the coherence factor)
    inside the horizon are excised automatically.
    """
    config = config or SSSConfig()
    if isinstance(proc, DephasingSemiMarkov):
        gamma_fn = lambda t: gamma_dephasing(proc, t)
        singular = coherence_zeros(proc, config.horizon)
        factory = lambda rate: DephasingGenerator(rate=rate, dim=2)
    elif isinstance(proc, NonUnitalSemiMarkov):
        gamma_fn = lambda t: float(gamma_nonunital(proc, t))
        singular = ()
        factory = lambda rate: ProjectorGenerator(rate=rate, dim=2)
    else:
        raise DomainError(f"unknown process type {type(proc)!r}")
    if config.form == "rate":
        return sss_rate_form(gamma_fn, config, singular_points=singular)
    return sss_choi_form(gamma_fn, factory, config, singular_points=singular)


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
