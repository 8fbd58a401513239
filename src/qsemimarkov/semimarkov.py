"""Waiting-time distributions and the two quantum semi-Markov families.

The renewal picture: jumps occur at epochs separated by i.i.d. waits drawn
from a waiting-time distribution f(t) with survival g(t) = 1 - int_0^t f.
Each jump applies a fixed channel. Two families are implemented:

- Dephasing (qubit): the jump conjugates by sigma_z and the waits are the
  convolution of two exponentials with rates l1, l2, parametrized by
  s = l1 + l2 and p = l1 l2. The coherence factor is

      q(t) = exp(-st/2) (cosh(eta s t / 2) + sinh(eta s t / 2) / eta),
      eta = sqrt(1 - 8 p / s^2),

  the time-local rate is gamma(t) = -(1/2) d ln q / dt, and the memory
  kernel of the time-nonlocal equation is k(t) = p exp(-st).

- Non-unital (qubit): the jump is the projection rho -> |0><0| tr(rho), the
  survival is g(t) = sech(lambda t), and the rate is lambda tanh(lambda t).
  The map is the affine mixture Phi(t) = g(t) id + (1 - g(t)) P.

Both maps are Phi(t) = w id + (1 - w) J with J the jump channel: w = (1 + q)/2
for dephasing and w = g for the non-unital family.

Two branches of eta are told apart, by the exact sign of 1 - 8p/s^2: real
(eta = 0 included) and imaginary, where q oscillates. The real forms run
through the rise time tau = (1 - e^{-s eta t})/(s eta), t at eta = 0, and
c = 1 - eta, so they are continuous and exact at eta = 0. gamma(t) and
ln|q(t)| never divide by q or take its log, so they stay finite and
accurate for large t on both branches.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError, Singularity

__all__ = [
    "ExponentialWTD",
    "ExpConvolutionWTD",
    "TanhSechWTD",
    "REGIME_SEMIGROUP",
    "REGIME_DIVISIBLE",
    "REGIME_INDIVISIBLE",
    "DephasingSemiMarkov",
    "NonUnitalSemiMarkov",
    "q_of_t",
    "gamma_dephasing",
    "gamma_nonunital",
    "coherence_zeros",
    "ClassicalSimResult",
    "classical_jump_simulate",
]

_COHERENCE_FLOOR = 1e-12    # |q| e^{st/2} below this is a rate pole
# ln q is log1p of q's Taylor series where R |t| <= _SERIES_REACH, with
# R = max(s, sqrt(2p)) >= |r| for both roots of r^2 + s r + 2p = 0. There
# |c_k t^k| <= 2p t^2 (k - 1) (R|t|)^(k-2) / k! and |q - 1| >= 0.8 p t^2, so
# the first term dropped, k = _SERIES_TERMS, is below 3e-28 of q - 1
_SERIES_REACH = 0.25
_SERIES_TERMS = 20
_MAX_POLES = 10**6          # zeros one coherence_zeros call lists


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def _require_count(name: str, value, least: int) -> int:
    """A whole number >= least as an int; NaN, inf and 2.5 are refused."""
    if not (least <= value < np.inf and value % 1 == 0):
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _unit_interval(u) -> np.ndarray:
    """u as a float array, refused unless every element lies in [0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise DomainError("inverse CDF argument must lie in [0, 1)")
    return u


@dataclass(frozen=True)
class ExponentialWTD:
    """f(t) = rate * exp(-rate t); the memoryless (semigroup) case."""

    rate: float

    def __post_init__(self) -> None:
        _require_positive("rate", self.rate)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # e^{-inf} = 0 where rate t overflows
            return np.exp(-self.rate * t)

    def inverse_cdf(self, u):
        return self._quantile(_unit_interval(u))

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate


@dataclass(frozen=True)
class ExpConvolutionWTD:
    """Convolution of two exponentials, f = f_1 * f_2 (a two-stage wait).

    The survival is (b e^{-a t} - a e^{-b t}) / (b - a) for rates a < b,
    taken as e^{-a t} (1 + a (1 - e^{-(b - a) t}) / (b - a)) via expm1 so
    nearly equal rates do not lose precision to cancellation, and the
    Erlang-2 limit (1 + r t) e^{-rt} for rate1 == rate2 == r. Both forms are
    symmetric in the rates; the smaller one, a, takes the prefactor
    e^{-a t}, so the expm1 argument is never positive and cannot overflow.
    """

    rate1: float
    rate2: float

    def __post_init__(self) -> None:
        _require_positive("rate1", self.rate1)
        _require_positive("rate2", self.rate2)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        slow, fast = sorted((self.rate1, self.rate2))
        diff = fast - slow
        # a rate times t that overflows is inf, and e^{-inf} = 0
        with np.errstate(over="ignore", invalid="ignore"):
            if diff == 0.0:
                rt = slow * t  # the Erlang limit is 0 where rt is inf
                return np.where(np.isinf(rt), 0.0, (1.0 + rt) * np.exp(-rt))
            return np.exp(-slow * t) * (
                1.0 + (slow / diff) * (-np.expm1(-diff * t))
            )


@dataclass(frozen=True)
class TanhSechWTD:
    """f(t) = rate * tanh(rate t) sech(rate t), survival g(t) = sech(rate t)."""

    rate: float

    def __post_init__(self) -> None:
        _require_positive("rate", self.rate)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # sech is 0 where cosh overflows
            return 1.0 / np.cosh(self.rate * t)

    def inverse_cdf(self, u):
        return self._quantile(_unit_interval(u))

    def _quantile(self, u):
        # g = sech(rate t) = 1 - u  =>  t = asech(1 - u) / rate
        return np.arccosh(1.0 / (1.0 - u)) / self.rate


REGIME_SEMIGROUP = "semigroup-limit"
REGIME_DIVISIBLE = "cp-divisible"
REGIME_INDIVISIBLE = "cp-indivisible"


_REAL, _IMAG = range(2)  # branches of eta, in proc.branch: p <= s^2/8, above


def _by_branch(proc, t, forms):
    """Each element's value from the form of its branch of eta.

    ``forms`` holds f(p, w, c, t) for the real and imaginary branches;
    ``proc.p`` is a scalar or an array broadcasting against t. A form sees
    only the elements of its branch, so each element does the arithmetic it
    would do alone. A p of one element is taken as a float and t on whole,
    as the same value broadcast.
    """
    branch, w, c = proc.branch, proc.w, proc.c
    t = np.asarray(t, dtype=float)
    if branch.size == 1:
        return forms[int(branch.flat[0])](np.asarray(proc.p).item(),
                                          w.item(), c.item(), t)
    branch, p, w, c, t = np.broadcast_arrays(branch, proc.p, w, c, t)
    out = np.empty(t.shape)
    for which, form in enumerate(forms):
        sel = branch == which
        if sel.any():
            out[sel] = form(p[sel], w[sel], c[sel], t[sel])
    return out


def _rise_time(s: float, w, t):
    """tau = (1 - e^{-s w t})/(s w) on the real branch, eta = w >= 0; it is
    t at w = 0, and 1/(s w) where s w t overflows."""
    sw = s * w
    return np.where(sw == 0.0, t, -np.expm1(-sw * t) / sw)


def _times(t) -> np.ndarray:
    """t as a float array, refused if an element is negative (NaN is not)."""
    t = np.asarray(t, dtype=float)
    if (t < 0.0).any():
        raise DomainError(f"t must be non-negative, got {t[t < 0.0].min():g}")
    return t


def _require_one(proc, caller: str) -> None:
    """Refuse a dephasing process that holds an array p."""
    if isinstance(proc, DephasingSemiMarkov) and np.ndim(proc.p):
        raise DomainError(f"{caller} takes one process, not an array p")


@dataclass(frozen=True)
class DephasingSemiMarkov:
    """Qubit dephasing renewal process with s = l1 + l2, p = l1 l2.

    p is a float, or an array of any shape holding one process per element,
    all sharing s; the closed forms broadcast it against t. Its first bad
    element is refused by value. Each element's branch of eta, w = |eta|
    and c = (8p/s^2)/(1 + w), 1 - eta on the real branch, are worked out
    once, here. The branch is the sign of 1 - 8p/s^2, taken exactly: real
    where p <= s^2/8, eta = 0 included, and imaginary where p > s^2/8.
    """

    s: float
    p: float | np.ndarray
    branch: np.ndarray = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s = _require_positive("s", self.s)
        h = s * s
        if h == np.inf:  # so that s^2, here and in the forms, is finite
            raise DomainError(f"s must have a finite square, got {s!r}")
        p = np.array(self.p, dtype=float)  # a copy: the fields stay true
        ok = np.isfinite(p) & (p >= 0.0)
        if not ok.all():
            raise DomainError("p must be non-negative and finite, got "
                              f"{float(p[~ok][0])!r}")
        # 8p/s^2 is 0 at p = 0, the semigroup for every s, also where s^2
        # underflows to 0
        with np.errstate(over="ignore", divide="ignore"):
            ratio = np.divide(8.0 * p, h, out=np.zeros_like(p), where=p > 0.0)
        if np.isinf(ratio).any():  # |eta| would be inf: every phase 0 * inf
            raise DomainError(f"8p/s^2 overflows at s = {self.s!r}, p = "
                              f"{float(p[np.isinf(ratio)].flat[0])!r}")
        # 1 - 8p/s^2 as ((h - 8p) + l)/h with s^2 = h + l exactly (Dekker's
        # split of s), so it keeps its digits, and its sign, near p = s^2/8
        big = s * 134217729.0 - (s * 134217729.0 - s)  # 2^27 + 1: top 26 bits
        small = s - big
        l = ((big * big - h) + 2.0 * big * small) + small * small
        disc = np.divide((h - 8.0 * p) + l, h, out=np.ones_like(p),
                         where=p > 0.0)
        w = np.sqrt(np.abs(disc))
        self.__dict__.update(  # frozen: the fields are set this once
            p=p if p.ndim else self.p, w=w, c=ratio / (1.0 + w),  # 1 - eta
            branch=np.where(disc < 0.0, _IMAG, _REAL))

    @classmethod
    def from_rates(cls, rate1: float, rate2: float) -> "DephasingSemiMarkov":
        _require_positive("rate1", rate1)
        _require_positive("rate2", rate2)
        return cls(s=rate1 + rate2, p=rate1 * rate2)

    def take(self, index) -> "DephasingSemiMarkov":
        """The processes at a numpy ``index`` into p, with their branches,
        w and c taken along, not worked out again (one is returned as is)."""
        if self.branch.size == 1:
            return self
        part = copy.copy(self)
        part.__dict__.update(p=self.p[index], branch=self.branch[index],
                             w=self.w[index], c=self.c[index])
        return part

    @property
    def p_boundary(self) -> float:
        """The largest p that ``regime()`` calls divisible: s*s/8, or below."""
        b = self.s * self.s / 8.0
        above = DephasingSemiMarkov(self.s, b).branch == _IMAG  # s*s rounds up
        return float(np.nextafter(b, 0.0)) if above else b

    def regime(self) -> str:
        """Exact classification against the boundary p = s^2 / 8: the
        branch of eta, with the semigroup at p = 0."""
        _require_one(self, "regime")
        if self.p == 0.0:
            return REGIME_SEMIGROUP
        return REGIME_INDIVISIBLE if self.branch == _IMAG else REGIME_DIVISIBLE


def q_of_t(proc: DephasingSemiMarkov, t):
    """Coherence factor q(t); vectorized over t >= 0.

    On the real branch q = e^{-s c t/2} (1 + c s tau/2), with c = 1 - eta
    and tau the rise time, no growing exponential; at p = s^2/8, w = 0, it
    is e^{-st/2} (1 + st/2). Where q oscillates (p > s^2/8) it is
    e^{-st/2} (cos x + sin x/|eta|) with x = s|eta|t/2. |q| <= 1 exactly,
    but q can round to 1 + 2e-16 near t = 0, so it is clipped to [-1, 1]
    here and nowhere else. q is 0 where s c t or the phase x overflows, as
    its decay is 0 there, and NaN at a NaN t.

    :raises DomainError: for a t < 0.
    """
    t, s = _times(t), proc.s

    def real(p, w, c, t):
        x = s * c * t / 2
        return np.where(np.isinf(x), 0.0,
                        np.exp(-x) * (1.0 + c * s * _rise_time(s, w, t) / 2))

    def imag(p, w, c, t):
        x = s * t * w / 2
        return np.where(np.isinf(x), 0.0,
                        np.exp(-s * t / 2) * (np.cos(x) + np.sin(x) / w))

    # s t overflows to inf where q is 0; np.where drops inf * 0, cos(inf)
    # and the 0/0 of tau at w = 0
    with np.errstate(over="ignore", invalid="ignore"):
        return np.clip(_by_branch(proc, t, (real, imag)), -1.0, 1.0)


def _log_q_series(s: float, p, t):
    """ln q(t) = log1p(sum_{k>=2} c_k t^k), from q'' + s q' + 2p q = 0 with
    q(0) = 1 and q'(0) = 0: c_0 = 1, c_1 = 0 and
    c_{k+2} = -(s (k+1) c_{k+1} + 2p c_k) / ((k+1) (k+2))."""
    st, pt2 = s * t, 2.0 * p * t * t
    prev, term, total = 1.0, 0.0, 0.0  # c_{k-1} t^{k-1}, c_k t^k, from k = 1
    for k in range(1, _SERIES_TERMS - 1):
        prev, term = term, -(k * st * term + pt2 * prev) / (k * (k + 1))
        total = total + term
    return np.log1p(total)


def _log_abs_q(proc: DephasingSemiMarkov, t):
    """ln|q(t)|, vectorized, to full relative precision also where q ~ 1.

    Where max(s, sqrt(2p)) |t| <= ``_SERIES_REACH`` it is the log1p of q's
    Taylor series about t = 0, the same on every branch: the closed forms
    below lose q - 1 ~ -p t^2 to the cancellation of their O(s t) terms.
    Elsewhere, where q oscillates (p > s^2/8), it is
    -s t/2 + ln|cos x + sin x/|eta|| with x = s|eta|t/2, so only the zeros
    of q make it -inf. On the real branch, with c = 1 - eta and tau the
    rise time, it is formed in log space, -s c t/2 + log1p(c s tau/2), so
    it stays finite where q underflows; at p = s^2/8 that is
    -s t/2 + log1p(s t/2). It is -inf where s c t or x overflows, and NaN
    at a NaN t.
    """
    s, t = proc.s, np.asarray(t, dtype=float)

    def imag(p, w, c, t):
        x = s * w * t / 2
        log_q = -s * t / 2 + np.log(np.abs(np.cos(x) + np.sin(x) / w))
        return np.where(np.isinf(x), -np.inf, log_q)

    def real(p, w, c, t):
        x = s * c * t / 2
        return np.where(np.isinf(x), -np.inf,
                        np.log1p(c * s * _rise_time(s, w, t) / 2) - x)

    # -inf at an exact zero of q; where s t overflows, np.where drops the
    # inf - inf and cos(inf) for -inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_q = _by_branch(proc, t, (real, imag))
        small = t * t * np.maximum(s * s, 2.0 * proc.p) <= _SERIES_REACH**2
    if small.any():
        t, p = np.broadcast_arrays(t, proc.p)
        log_q[small] = _log_q_series(s, p[small], t[small])
    return log_q


def gamma_dephasing(proc: DephasingSemiMarkov, t):
    """Time-local dephasing rate gamma(t) = -(1/2) d ln q / dt.

    Formed from neither q nor q', so it stays finite where q underflows.
    For p <= s^2/8 it is 2p / (s eta coth(s eta t / 2) + s), evaluated as
    p / (1/tau + c s/2) with c = 1 - eta and tau the rise time, and tends
    to s c/4; at p = s^2/8 (w = 0) it is s^2 t / (8 + 4 s t), tending to
    s/4. Where q oscillates (p > s^2/8) it is
    2p sin x / (s (|eta| cos x + sin x)) with
    x = s|eta|t/2, with a pole where |cos x + sin x/|eta|| < 1e-12: the
    test ignores the decay e^{-st/2} of q, so only its zeros are poles. It
    has no limit there, so it is NaN where x overflows. Every branch gives
    NaN at a NaN t. An array t gives NaN at a pole; a 0-d t gives a float.
    ``proc.p`` may be an array broadcasting against t.

    :raises DomainError: for a negative t.
    :raises Singularity: for a 0-d t at a pole.
    """
    t, s = _times(t), proc.s

    def real(p, w, c, t):  # +0.0 at t = 0 (1/tau = inf) and at p = 0
        return p / (1.0 / _rise_time(s, w, t) + c * s / 2)

    def imag(p, w, c, t):
        x = s * w * t / 2
        sin_x, cos_x = np.sin(x), np.cos(x)
        pole = np.abs(cos_x + sin_x / w) < _COHERENCE_FLOOR
        if pole.ndim == 0 and pole:
            raise Singularity(f"rate pole at t = {float(t):g}")
        # adding the pole mask keeps the quotient finite at poles
        return np.where(pole, np.nan,
                        2.0 * p * sin_x / (s * (w * cos_x + sin_x) + pole))

    # 1/tau is inf at t = 0, where gamma is 0; np.where drops tau's 0/0 at
    # w = 0 and sin(inf) where s t overflows past p = s^2/8
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gamma = _by_branch(proc, t, (real, imag))
    return float(gamma) if gamma.ndim == 0 else gamma


def _zero_lattice(proc, t_max: float):
    """The zeros of q on (0, t_max] for each element of ``proc.p``,
    flattened, as their lattice t_k = t_1 + (k - 1) P: the arrays
    (t_1, P, N), of which t_1 and P mean something where N > 0.

    :raises GridError: if a count is not finite or reaches 2**53, past
        which a float no longer counts every zero.
    """
    w = proc.w.ravel()
    # an overflowing count is inf, refused; inf * 0 and 1 / 0 where w = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        count = np.where(proc.branch.ravel() == _IMAG, np.floor(
            (proc.s * t_max * w / 2 + np.arctan(w)) / np.pi), 0.0)
        first = _zero_time(proc.s, w, 1)
    over = ~(count < 2.0**53)  # also refuses a NaN count
    if over.any():
        raise GridError(f"{count[over][0]:.3g} coherence zeros on "
                        f"(0, {t_max:g}] exceed the exact-count cap of 2**53")
    return first, _level_time(proc)[1].ravel(), count.astype(np.int64)


def _zero_time(s: float, w, k):
    """The k-th zero of q, t_k = 2 (k pi - arctan w) / (s w), where
    eta = i w; w and k broadcast."""
    return 2.0 * (k * np.pi - np.arctan(w)) / (s * w)


def coherence_zeros(proc: DephasingSemiMarkov, t_max: float) -> np.ndarray:
    """Zeros of q on (0, t_max], empty unless p > s^2/8.

    In the oscillatory branch the zeros solve tan(w s t / 2) = -w with
    w = |eta|, i.e. t_k = 2 (k pi - arctan w) / (s w), k = 1, 2, ...

    :raises DomainError: if ``t_max`` is negative or NaN.
    :raises GridError: if there are more than ``_MAX_POLES`` zeros, before
        any is allocated.
    """
    if not t_max >= 0.0:
        raise DomainError(f"t_max must be non-negative, got {t_max!r}")
    counts = _zero_lattice(proc, t_max)[2]
    total = counts.sum(dtype=float)
    if total > _MAX_POLES:
        raise GridError(f"{total:.3g} coherence zeros on (0, {t_max:g}] "
                        f"exceed the cap of {_MAX_POLES}")
    row = np.arange(counts.size).repeat(counts)
    ks = np.arange(1, row.size + 1) - (counts.cumsum() - counts)[row]
    return _zero_time(proc.s, proc.w.ravel()[row], ks)


def _level_time(proc):
    """t(r), where gamma first equals r, and the spacing of the rate poles.

    Between poles gamma rises strictly: it solves the Riccati equation
    gamma' = 2 gamma^2 - s gamma + p for dephasing (q'' + s q' + 2p q = 0)
    and gamma' = lambda^2 - gamma^2 for the non-unital family. So gamma = r
    at t(r) = int_0^r dg / gamma'(g), in closed form. Where p > s^2/8
    gamma runs from -inf to inf once per period 2 pi/k, k = s|eta|, and on
    the stretch above j poles it equals r at t(r) + j 2 pi/k. Elsewhere the
    period is inf, t(r) is inf where gamma stays below r, and it is
    negative where gamma exceeds r at every t >= 0.

    :return: (t, period), with t vectorized over r, and the period of each
        element of ``proc.p`` for dephasing.
    """
    if isinstance(proc, NonUnitalSemiMarkov):
        lam = proc.rate

        def level_time(r):
            with np.errstate(divide="ignore"):
                return np.arctanh(np.clip(np.asarray(r) / lam, -1.0, 1.0)) / lam
        return level_time, np.inf
    s = proc.s

    def imag(p, w, c, r):  # 2/k [atan((4r - s)/k) + atan(s/k)], summed exactly
        k = s * w
        return 2.0 / k * np.arctan2(r * k, 2.0 * p - r * s)

    # elsewhere gamma rises to its top rate b, the smaller root of
    # 2g^2 - s g + p, as t -> inf: with the larger root a and
    # z = r s eta/(2a (b - r)), t(r) = [log1p(z)/z] r/(2a (b - r)), which at
    # p = s^2/8 (z = 0, a = b = s/4) is 8r/(s (s - 4r))
    def real(p, w, c, r):
        a, b = s * (1.0 + w) / 4, s * c / 4
        u = r / (b - r) / (2.0 * a)
        z = u * s * w
        return np.where(r < b, np.where(z == 0.0, u, np.log1p(z) / z * u),
                        np.inf)

    def level_time(r):
        # np.where drops what a form makes past its top rate or float range
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _by_branch(proc, r, (real, imag))

    with np.errstate(divide="ignore"):  # w = 0 off the oscillating branch
        period = np.where(proc.branch == _IMAG, 2.0 * np.pi / (s * proc.w),
                          np.inf)
    return level_time, period


@dataclass(frozen=True)
class NonUnitalSemiMarkov(TanhSechWTD):
    """Qubit renewal process whose jump projects onto |0><0|.

    It is the tanh-sech law with a projector jump: the survival is
    g(t) = sech(rate t), the map is Phi(t) = g id + (1 - g) P, and
    ``classical_jump_simulate`` walks the process as its waits.
    """


def gamma_nonunital(proc: NonUnitalSemiMarkov, t):
    """gamma(t) = rate * tanh(rate t) = -d ln g / dt; vectorized, no poles.
    :raises DomainError: for a negative t."""
    t = _times(t)
    with np.errstate(over="ignore"):  # tanh(inf) = 1
        return proc.rate * np.tanh(proc.rate * t)


def _bloch_factors(proc, t, caller: str):
    """The factor a by which Phi(t) scales the x, y Bloch coordinates of any
    state: q for dephasing, g for the non-unital family (which also moves
    the z coordinate of |+> and |-> to 1 - g).
    :raises DomainError: for another process type or an array p."""
    _require_one(proc, caller)
    if isinstance(proc, DephasingSemiMarkov):
        return q_of_t(proc, t)
    if not isinstance(proc, NonUnitalSemiMarkov):
        raise DomainError(f"unknown process type {type(proc)!r}")
    return proc.survival(t)


@dataclass(frozen=True)
class ClassicalSimResult:
    """Empirical curves from the classical renewal simulation."""

    times: np.ndarray           # shape (n_times,)
    survival: np.ndarray        # P(no jump by t), shape (n_times,)
    survival_se: np.ndarray
    occupation: np.ndarray      # site occupation frequencies, shape (2, n_times)
    occupation_se: np.ndarray
    n_paths: int
    seed: int
    philox_counters: int        # Philox counters drawn over all paths


_CHUNK_UNIFORMS = 1 << 16  # uniforms per vectorized block draw; caps memory
_MAX_RENEWALS = 10**8      # expected renewal steps of a run: 8 to 13 s

# Philox4x64-10 (Salmon et al., SC'11) exactly as numpy's Philox computes it
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(x: np.ndarray, m: int, hi: np.ndarray, lo: np.ndarray,
             a: np.ndarray, b: np.ndarray) -> None:
    """Write the high and low words of the 128-bit product x * m into hi, lo.

    Schoolbook product of 32-bit halves (Warren, Hacker's Delight, mulhu),
    with the scratch buffers a, b of x's shape: no temporary is allocated.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LO32, out=a)           # x_lo
    np.right_shift(x, _S32, out=hi)           # x_hi
    np.multiply(a, m_lo, out=b)
    np.right_shift(b, _S32, out=b)            # (x_lo m_lo) >> 32
    np.multiply(hi, m_lo, out=lo)
    np.add(lo, b, out=lo)                     # u = x_hi m_lo + that
    np.right_shift(lo, _S32, out=b)           # u >> 32
    np.bitwise_and(lo, _LO32, out=lo)
    np.multiply(a, m_hi, out=a)
    np.add(lo, a, out=lo)                     # v = (u & LO32) + x_lo m_hi
    np.multiply(hi, m_hi, out=hi)
    np.add(hi, b, out=hi)
    np.right_shift(lo, _S32, out=lo)
    np.add(hi, lo, out=hi)                    # x_hi m_hi + u>>32 + v>>32
    np.multiply(x, np.uint64(m), out=lo)      # x m mod 2^64


def _philox_uniforms(seed: int, paths: np.ndarray, first_counter: int,
                     n_counters: int, lead: int = 0) -> np.ndarray:
    """Uniforms of counters ``first_counter`` upward, one column per path.

    The array has shape (lead + 4 n_counters, paths.size). Its first
    ``lead`` rows are left unset, for the caller to fill; below them,
    column i holds draws ``4 (first_counter - 1)`` to
    ``4 (first_counter + n_counters - 1) - 1`` of
    ``Generator(Philox(key=(seed, paths[i]))).random``, in stream order.
    Rounds 3 to 10 run in buffers allocated once per call.
    """
    shape = (n_counters, paths.size)
    w1 = np.uint64(_PHILOX_W[1])
    k1 = paths.astype(np.uint64)    # the path key word, a row broadcast
    # The counter is (c, 0, 0, 0) with c < 2**64, as _MAX_RENEWALS keeps a
    # run near 10**8 expected steps. So round 1 multiplies only the counter
    # column (M1 * 0 = 0), and only the path key makes it 2-D.
    ctr = np.arange(first_counter, first_counter + n_counters,
                    dtype=np.uint64)
    col_hi, col_lo = np.empty_like(ctr), np.empty_like(ctr)
    _mulhilo(ctr, _PHILOX_M[0], col_hi, col_lo, np.empty_like(ctr),
             np.empty_like(ctr))
    col_hi, col_lo = col_hi[:, None], col_lo[:, None]
    c0, c1, c2, spare, h0, l0, h1, l1, a, b = (
        np.empty(shape, dtype=np.uint64) for _ in range(10))
    np.bitwise_xor(col_hi, k1, out=c2)      # c = (seed, 0, c2, col_lo)
    # round 2: the seed's product is a constant, so c3 becomes a scalar
    np.add(k1, w1, out=k1)
    hi, lo = divmod(seed * _PHILOX_M[0], 2**64)
    _mulhilo(c2, _PHILOX_M[1], c0, c1, a, b)
    np.bitwise_xor(c0, np.uint64((seed + _PHILOX_W[0]) % 2**64), out=c0)
    np.bitwise_xor(col_lo ^ np.uint64(hi), k1, out=c2)
    c3 = np.uint64(lo)
    for r in range(2, 10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2**64)
        np.add(k1, w1, out=k1)
        _mulhilo(c0, _PHILOX_M[0], h0, l0, a, b)
        _mulhilo(c2, _PHILOX_M[1], h1, l1, a, b)
        np.bitwise_xor(h1, c1, out=h1)
        np.bitwise_xor(h1, k0, out=h1)        # new c0 = hi1 ^ c1 ^ k0
        np.bitwise_xor(h0, c3, out=h0)
        np.bitwise_xor(h0, k1, out=h0)        # new c2 = hi0 ^ c3 ^ k1
        c0, c1, c2, c3, h0, l0, h1, l1 = (h1, l1, h0, l0, c0, c1, c2,
                                          c3 if r > 2 else spare)
    del h0, l0, h1, l1, a, b        # freed before the output is allocated
    out = np.empty((lead + 4 * n_counters, paths.size))
    drawn = out[lead:].reshape(n_counters, 4, paths.size)  # a view
    for j, word in enumerate((c0, c1, c2, c3)):
        np.right_shift(word, np.uint64(11), out=word)
        np.multiply(word, 2.0**-53, out=drawn[:, j])
    return out


def _mean_wait(wtd) -> float:
    """Mean wait: 1/rate, 1/rate1 + 1/rate2, or pi/(2 rate) for tanh-sech;
    inf where a tiny rate's reciprocal overflows."""
    if isinstance(wtd, ExpConvolutionWTD):  # Python floats: no warning
        return 1.0 / float(wtd.rate1) + 1.0 / float(wtd.rate2)
    return (np.pi / 2 if isinstance(wtd, TanhSechWTD) else 1.0) / float(wtd.rate)


def _waits_from_uniforms(wtd, u: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (..., per_step) to waits via the inverse CDF.

    A wait that overflows is inf: that path never jumps again.
    """
    with np.errstate(over="ignore"):
        if isinstance(wtd, ExpConvolutionWTD):
            return (-np.log1p(-u[..., 0]) / wtd.rate1
                    - np.log1p(-u[..., 1]) / wtd.rate2)
        return wtd._quantile(u[..., 0])  # u is in [0, 1) by construction


def _grid_bins(times: np.ndarray):
    """Return ``x -> np.searchsorted(times, x)`` for 1-D x without NaN.

    With ``n = len(times) - 1`` and ``scale = n / times[-1]``, let ``y(x)``
    be the rounded product ``x * scale``, clipped to [0, n], and δ the
    grid's largest ``|y(times[i]) - i|``. Where ``times`` is sorted and
    δ < 1/4, most indices are found by arithmetic. Rounding is monotone, so
    ``y`` is monotone in x. Where ``y(x)`` is more than δ from every
    integer, with k its floor, ``y(times[k]) <= k + δ < y(x) < k + 1 - δ
    <= y(times[k + 1])``, so ``times[k] < x < times[k + 1]`` and the index
    is k + 1. The test is exact: as δ < 1/4, each ``y(times[i]) - i`` is
    exact (Sterbenz), and so are ``f = y(x) - k`` and, for f >= 1/4,
    ``f - 1/2``. The index is taken where ``|f - 1/2| < c``, with c the
    double below the rounded ``1/2 - δ``; where f <= δ, ``1/2 - f`` rounds
    to at least c, so that f is refused too. The rest (grid points and
    their neighbours, x <= 0, x >= times[-1], ±inf) takes a binary search,
    as does every x on a grid whose scale overflows (a subnormal
    ``times[-1]``) or that is uneven.
    """
    n = times.size - 1
    with np.errstate(over="ignore"):
        scale = n / times[-1]
    search = functools.partial(np.searchsorted, times)
    if not (np.isfinite(scale) and np.all(times[1:] >= times[:-1])):
        return search
    delta = np.max(np.abs(times * scale - np.arange(n + 1)))
    if not delta < 0.25:
        return search
    c = np.nextafter(0.5 - delta, 0.0)

    def bins(x):
        with np.errstate(over="ignore"):
            y = np.multiply(x, scale)
        np.clip(y, 0, n, out=y)                 # and so for x = +-inf
        k = y.astype(np.intp)                   # its floor, as y >= 0
        y -= k                                  # f, exactly
        y -= 0.5
        near = np.flatnonzero(np.abs(y, out=y) >= c)  # within δ of k or k+1
        k += 1
        k[near] = search(x[near])
        return k
    return bins


def _accumulate_steps(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``op.accumulate(a, axis=0)`` in place: the same sequential results.

    numpy accumulates down one column at a time, so where columns far
    outnumber rows (short blocks of many paths) a row at a time is faster.
    """
    if a.shape[1] < 4 * a.shape[0]:
        return op.accumulate(a, axis=0, out=a)
    for j in range(1, len(a)):
        op(a[j], a[j - 1], out=a[j])
    return a


def _walk(wtd, per_step: int, jump_prob: float, times: np.ndarray, seed: int,
          n_paths: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk paths ``0 .. n_paths - 1`` until each passes ``times[-1]``.

    Paths are walked in cohorts that share their next Philox counter, a
    chunk of ``_CHUNK_UNIFORMS // 6`` paths at a time, block by block.
    Blocks are counted in Philox counters per live path: three blocks of
    one counter, then each twice the cohort's last, capped at the most
    counters for which the cohort's uniforms, carried ones included, fit
    ``_CHUNK_UNIFORMS`` (never below one). A block takes the whole steps
    its uniforms hold; the uniforms of a step it only begins carry into the
    next block, drawn with leading rows that hold them, so no block is
    copied. A path stops once its last epoch reaches ``times[-1]``.

    A cohort is walked on while at least half a chunk of the paths a block
    drew for stay live. Then its survivors are parked under their next
    counter: path keys, last epochs, sites, carried uniforms and the last
    block's counters. Paths at counter c carry ``4 (c - 1) mod per_step``
    uniforms each, so cohorts that meet at one counter merge by
    concatenation, keeping the smaller last block. The next walk takes a
    chunk of a cohort that holds one, else opens a fresh chunk at counter
    1, else (the final flush) takes the lowest-counter cohort. So until the
    last chunk opens every draw covers at least half a chunk. Parked state
    costs about 33 bytes a path, and a cohort is walked once it holds a
    chunk.

    A path's site is a bool parity, xor-accumulated down a block's steps a
    row at a time where the block is wide. Each hop before ``times[-1]`` is
    tallied by its time index j and the site it lands on, in one integer
    ``np.bincount`` a block over ``2 j + site``.

    :return: integer histograms over the time indices 0..len(times), and
        the Philox counters drawn over all paths: ``first[j]`` counts paths
        whose first jump is at a time in (times[j-1], times[j]] (index
        len(times): none before t_max), and ``flips[j]``, the net change
        of the site-0 count at times[j], is the hops there that land on
        site 0 less those that land on site 1.
    """
    t_max = times[-1]
    n_bins = times.size + 1
    bins = _grid_bins(times)
    # a one-counter block fits the budget: 4 uniforms and a carry of at
    # most 2 (per_step - 1 <= 2) a path
    chunk = max(1, _CHUNK_UNIFORMS // 6)
    first = np.zeros(n_bins, dtype=np.intp)
    landed = np.zeros(2 * n_bins, dtype=np.intp)  # hops by (bin, site)
    drawn = 0
    # next counter -> (paths, last epochs, sites, carried uniforms as rows,
    # counters of the last block)
    parked = {}
    fresh = iter(range(0, n_paths, chunk))
    counter = live = 0
    while True:
        if 2 * live < chunk:        # the cohort walked last has thinned
            wide = [c for c, (p, *_) in parked.items() if p.size >= chunk]
            if not wide and (start := next(fresh, None)) is not None:
                paths = np.arange(start, min(start + chunk, n_paths),
                                  dtype=np.uint64)
                parked[1] = (paths, np.zeros(paths.size),
                             np.zeros(paths.size, dtype=bool),
                             np.empty((0, paths.size)), 1)
            if not parked:
                break
            counter = wide[0] if wide else min(parked)
        *cohort, n_ctr = parked.pop(counter)
        if cohort[0].size > chunk:  # the rest waits at this counter
            parked[counter] = (*(a[..., chunk:] for a in cohort), n_ctr)
        paths, last, site, carry = (a[..., :chunk] for a in cohort)
        if counter > 3:             # past the three one-counter blocks
            fit = (_CHUNK_UNIFORMS // paths.size - len(carry)) // 4
            n_ctr = max(1, min(2 * n_ctr, fit))
        u = _philox_uniforms(seed, paths, counter, n_ctr, len(carry))
        drawn += paths.size * n_ctr
        u[:len(carry)] = carry
        steps = len(u) // per_step
        carry = u[steps * per_step:]
        u = u[:steps * per_step].reshape(steps, per_step, paths.size)
        epochs = _waits_from_uniforms(wtd, u.transpose(0, 2, 1))
        # sequential cumsum carried over from the last block: same bits. An
        # epoch past the float range is inf: that path never jumps again
        with np.errstate(over="ignore"):
            epochs[0] += last
            _accumulate_steps(np.add, epochs)
        if counter == 1:
            t1 = np.where(epochs[0] < t_max, epochs[0], np.inf)
            first += np.bincount(bins(t1), minlength=n_bins)
        hops = epochs < t_max
        # indices, not a mask: a random mask's branches are slow to index
        going = np.flatnonzero(hops[-1])
        hops &= u[:, -1] < jump_prob
        at = np.flatnonzero(hops)
        hops[0] ^= site
        sites = _accumulate_steps(np.bitwise_xor, hops)  # the site after a step
        key = bins(epochs.ravel()[at])
        key <<= 1
        key += sites.ravel()[at]
        landed += np.bincount(key, minlength=2 * n_bins)
        counter, live = counter + n_ctr, going.size
        if live:
            cohort = (paths[going], epochs[-1, going], sites[-1, going],
                      carry[:, going])
            if counter in parked:
                *other, other_ctr = parked[counter]
                cohort = [np.concatenate(pair, axis=-1)
                          for pair in zip(other, cohort)]
                n_ctr = min(n_ctr, other_ctr)
            parked[counter] = (*cohort, n_ctr)
        del u, carry, epochs, hops, sites, at, key  # freed before next block
    return first, landed[0::2] - landed[1::2], drawn


def classical_jump_simulate(wtd, jump_prob: float, t_max: float,
                            n_paths: int, *, seed: int,
                            n_times: int = 41) -> ClassicalSimResult:
    """Monte Carlo renewal simulation of a two-site classical jump process.

    Paths start in site 0; at each renewal epoch the walker hops to the
    other site with probability ``jump_prob``. Waits come from the inverse
    CDF of ``wtd``. Path i consumes its own counter-based stream
    ``Philox(key=(seed, i))``, each renewal step using its uniforms in a
    fixed order (wait draws, then the hop draw), so results are
    bit-reproducible and independent of evaluation order. A path stops once
    its epoch reaches ``t_max``. Paths are walked together, up to
    ``_CHUNK_UNIFORMS // 6`` at a time, in blocks of Philox counters: one
    counter each for three blocks, then doubling while the walked paths'
    uniforms, with those carried from a step a block began, fit
    ``_CHUNK_UNIFORMS``. A chunk of paths is walked while at least half of
    it is live. Its survivors are then parked by their next counter until
    paths of other chunks that reach that counter make up a chunk again;
    the last cohorts are walked lowest counter first (see ``_walk``).
    Parked state costs about 33 bytes a path, and a cohort is walked once
    it holds a chunk, so memory grows with the counters paths are parked
    at, not with ``n_paths``. A path still draws at most one block past the
    counters it reads.

    :param seed: required 64-bit seed (0 <= seed < 2**64).
    :return: ``ClassicalSimResult`` on a uniform grid of ``n_times`` points
        spanning [0, t_max], with binomial standard errors and the Philox
        counters drawn over all paths.
    :raises GridError: before any path is walked, if the expected renewal
        steps, n_paths (t_max / (mean wait) + 1), exceed ``_MAX_RENEWALS``.
    """
    if not 0.0 <= jump_prob <= 1.0:
        raise DomainError(f"jump probability {jump_prob!r} outside [0, 1]")
    _require_positive("t_max", t_max)
    n_paths = _require_count("n_paths", n_paths, 1)
    n_times = _require_count("n_times", n_times, 2)
    if not (0 <= seed < 2**64 and seed % 1 == 0):
        raise DomainError(f"seed must be a whole number in [0, 2**64), got "
                          f"{seed!r}")
    seed = int(seed)

    # waits a path draws: those before t_max, and the one that passes it
    renewals = n_paths * (float(t_max) / _mean_wait(wtd) + 1.0)
    if not renewals <= _MAX_RENEWALS:  # also where t_max / mean is inf
        raise GridError(f"about {renewals:.3g} renewal steps over {n_paths} "
                        f"paths exceed the cap of {_MAX_RENEWALS:.0e}")
    times = np.linspace(0.0, float(t_max), n_times)
    per_step = 3 if isinstance(wtd, ExpConvolutionWTD) else 2
    first, flips, drawn = _walk(wtd, per_step, jump_prob, times, seed,
                                n_paths)

    survival = (n_paths - np.cumsum(first[:-1])) / n_paths
    occ0 = (n_paths + np.cumsum(flips[:-1])) / n_paths
    occupation = np.vstack([occ0, 1.0 - occ0])
    survival_se = np.sqrt(survival * (1.0 - survival) / n_paths)
    occupation_se = np.sqrt(occupation * (1.0 - occupation) / n_paths)
    return ClassicalSimResult(
        times=times,
        survival=survival,
        survival_se=survival_se,
        occupation=occupation,
        occupation_se=occupation_se,
        n_paths=n_paths,
        seed=seed,
        philox_counters=drawn,
    )
