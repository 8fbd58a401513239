"""The closed forms in mpmath, kept as the tests' one high-precision oracle.

Each function takes the float inputs the package sees, converts them exactly
and returns mpf values in the caller's ``mpmath.workdps``; only ``xi`` sets
its own precision, from its excision. The branch of a dephasing process is
the exact sign of 1 - 8p/s^2 of the float s and p, as the package reads it:
eta = sqrt(1 - 8p/s^2) is real where it is positive, i w where negative,
and exactly 0 only where 8p = s^2 exactly.

With z = s eta t/2, q(t) = e^(-st/2) (C + S) for C = cosh z and
S = sinh(z)/eta (cos x and sin(x)/w at x = s w t/2, 1 and st/2 at
eta = 0), gamma = -q'/(2q) = 2p S/(s (C + S)) and Gamma = -(1/2) ln|q|.
"""

import functools
import math
from fractions import Fraction

import mpmath


def eta(s, p):
    """(1 - 8p/s^2, |eta|) of the float s and p, the first with its exact
    sign."""
    return _eta(s, p, mpmath.mp.prec)


@functools.lru_cache(maxsize=None)
def _eta(s, p, prec):
    e2 = 1 - 8 * Fraction(p) / Fraction(s) ** 2
    e2 = mpmath.mpf(e2.numerator) / e2.denominator
    return e2, mpmath.sqrt(abs(e2))


def _c_and_s(s, p, t):
    (e2, e), z = eta(s, p), s * mpmath.mpf(t) / 2
    if e2 > 0:
        return mpmath.cosh(e * z), mpmath.sinh(e * z) / e
    if e2 < 0:
        c, sn = mpmath.cos_sin(e * z)
        return c, sn / e
    return mpmath.mpf(1), z


def q(s, p, t):
    c, sn = _c_and_s(s, p, t)
    return mpmath.exp(-mpmath.mpf(s) * t / 2) * (c + sn)


def log_abs_q(s, p, t):
    c, sn = _c_and_s(s, p, t)
    return mpmath.log(abs(c + sn)) - mpmath.mpf(s) * t / 2


def big_gamma(s, p, t):
    """Gamma = -(1/2) ln|q|, the antiderivative of gamma from 0."""
    return -log_abs_q(s, p, t) / 2


def gamma(s, p, t):
    c, sn = _c_and_s(s, p, t)
    return 2 * mpmath.mpf(p) * sn / (mpmath.mpf(s) * (c + sn))


def zeros(s, p, t_max):
    """The zeros of q on [0, t_max], t_k = 2 (k pi - arctan w)/(s w); none
    off the oscillating branch."""
    e2, w = eta(s, p)
    if e2 >= 0:
        return []
    k, theta = s * w, mpmath.atan(w)
    n = int(mpmath.floor((k * t_max / 2 + theta) / mpmath.pi))
    return [2 * (j * mpmath.pi - theta) / k for j in range(1, n + 1)]


def level_time(s, p, r):
    """t(r), where gamma first equals r: from the roots a > b of
    2g^2 - s g + p where p <= s^2/8, from an arctan past it."""
    (e2, e), s, p, r = eta(s, p), mpmath.mpf(s), mpmath.mpf(p), mpmath.mpf(r)
    if e2 == 0:
        return 8 * r / (s * (s - 4 * r))
    if e2 > 0:
        a, b = s * (1 + e) / 4, s * (1 - e) / 4
        return (mpmath.log1p(-r / a) - mpmath.log1p(-r / b)) / (s * e)
    k = s * e
    return 2 / k * mpmath.atan2(r * k, 2 * p - r * s)


def xi(s, p, T, eps, ref=None):
    """(xi, r) of the measure on [0, T] with every rate pole t_k +- eps
    excised: T xi sums |Gamma(b) - Gamma(a) - r (b - a)| over each retained
    piece, split where gamma = r. r is ``ref``, or the exact time-median of
    gamma over the pieces where ``ref`` is None.

    gamma has period P = 2 pi/(s w), so on piece j, after the j-th pole,
    it is its first branch at the phase t - j P. The median phase solves
    sum_j clip(phi - a_j + j P, 0, b_j - a_j) = L/2, never below 0, where
    gamma(0) = 0; piece j is split at t(r) + j P. The context keeps 40
    digits below eps, so Gamma at a hole edge, where |q| ~ eps, keeps 40.
    """
    with mpmath.workdps(40 + max(0, -math.floor(math.log10(eps)))):
        poles, e = zeros(s, p, T), mpmath.mpf(eps)
        period = 2 * mpmath.pi / (s * eta(s, p)[1]) if poles else 0
        ends = [0, *(t + d for t in poles for d in (-e, e)), mpmath.mpf(T)]
        pieces = [(a, b, j * period) for j, (a, b)
                  in enumerate(zip(ends[::2], ends[1::2])) if a < b]
        if ref is None:  # sweep the pieces' phase ends, the slope at each
            half, covered, slope = sum(b - a for a, b, _ in pieces) / 2, 0, 0
            ends = sorted((x - shift, d) for a, b, shift in pieces
                          for x, d in ((a, 1), (b, -1)))
            for (x, d), (y, _) in zip(ends, ends[1:]):
                slope += d
                if covered + slope * (y - x) >= half:
                    break
                covered += slope * (y - x)
            ref = gamma(s, p, max(x + (half - covered) / slope, 0))
        level, total = level_time(s, p, ref), 0
        for a, b, shift in pieces:
            cut = level + shift
            values = [big_gamma(s, p, t) - ref * t
                      for t in (a, *[cut][:a < cut < b], b)]
            total += sum(abs(y - x) for x, y in zip(values, values[1:]))
        return total / T, mpmath.mpf(ref)


def blp(s, p, T):
    """(sum_{k <= M} rho^k + [T in a rise] |q(T)|, pi/w): the revival
    measure on [0, T], and kappa = pi/w, the condition number of
    rho = e^(-pi/w) in w. With x = s w T/2, M = floor(x/pi); T is in a rise,
    from a zero of q to a peak of |q|, where sin x (cos x + sin x/w) < 0,
    as q' = -(s/2)(w + 1/w) e^(-sT/2) sin x."""
    w, s, T = eta(s, p)[1], mpmath.mpf(s), mpmath.mpf(T)
    rho, x = mpmath.exp(-mpmath.pi / w), s * w * T / 2
    total = rho * (1 - rho ** mpmath.floor(x / mpmath.pi)) / (1 - rho)
    bracket = mpmath.cos(x) + mpmath.sin(x) / w
    if mpmath.sin(x) * bracket < 0:
        total += mpmath.exp(-s * T / 2) * abs(bracket)
    return total, mpmath.pi / w


def one_minus_s(r):
    """1 - S in bits for a qubit state of Bloch length r in [0, 1]:
    [(1 + r) ln(1 + r) + (1 - r) ln(1 - r)]/(2 ln 2), which is
    1 - H2((1 + r)/2), the Holevo information of the equal-weight pair of
    states at +-r."""
    r = mpmath.mpf(r)
    if not 0 <= r <= 1:
        raise ValueError(f"Bloch length {r} outside [0, 1]")
    tail = (1 - r) * mpmath.log1p(-r) if r < 1 else 0
    return ((1 + r) * mpmath.log1p(r) + tail) / (2 * mpmath.log(2))
