"""Small statistical helpers shared by the harness and the test suite.

The exact binomial interval needs quantiles of the beta distribution. They
are computed here from the regularized incomplete beta function, so that
importing choicelab needs no scipy.
"""

from __future__ import annotations

import math

from .core import _is_integer

_TINY = 1e-300  # Lentz's stand-in for a denominator that comes out zero
_CF_EPS = 1e-15  # relative size of the last continued-fraction factor
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(z: float) -> float:
    """lgamma(z) less its Stirling main part (z - 1/2) log z - z + log(2 pi)/2."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI
    r = 1.0 / (z * z)  # the asymptotic series; its first omitted term is < 2e-14
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _log_front(a: float, b: float, x: float) -> float:
    """log(x^a (1-x)^b / B(a, b)), for 0 < x < 1.

    Taken from lgamma directly, this subtracts terms of size (a+b) log(a+b)
    and loses about 1e-9 of relative accuracy at a+b = 1e6. Here it is
    written around the mean p = a/(a+b), with the Stirling main parts
    cancelled by hand: near the mean, x - p is exact and the two logarithms
    are log1p's of small ratios.
    """
    c = a + b
    if a <= b:  # p + q == 1 exactly, so p's rounding cancels to first order
        q = b / c
        p = 1.0 - q
    else:
        p = a / c
        q = 1.0 - p
    d = x - p
    log_x = math.log1p(d / p) if x > 0.5 * p else math.log(x / p)
    log_1mx = math.log1p(-d / q) if 1.0 - x > 0.5 * q else math.log((1.0 - x) / q)
    return (
        a * log_x + b * log_1mx + 0.5 * math.log(a * b / c) - _HALF_LOG_2PI
        - _stirling_tail(a) - _stirling_tail(b) + _stirling_tail(c)
    )


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method
    (Numerical Recipes section 6.4). It converges fast for x < (a+1)/(a+b+2)
    and takes about sqrt(a+b) terms near the mean."""
    # near the mean it took at most 1.5 sqrt(a+b) terms for a+b up to 1e7;
    # past the cap the fraction has not converged and the value would be wrong
    cap = 50 + int(2.5 * math.sqrt(a + b))
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / (1.0 - qab * x / qap or _TINY)
    h = d
    for m in range(1, cap + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / (1.0 + aa * d or _TINY)
        c = 1.0 + aa / c or _TINY
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / (1.0 + aa * d or _TINY)
        c = 1.0 + aa / c or _TINY
        h *= d * c
        if abs(d * c - 1.0) <= _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(_log_front(a, b, x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _beta_ppf(q: float, a: float, b: float) -> float:
    """The q-quantile of Beta(a, b), for 0 < q < 1: I_x(a, b) = q solved by
    Newton steps on the beta density, kept inside a bracket [lo, hi] that
    every evaluation narrows, with bisection whenever a step leaves it."""
    lo, hi = 0.0, 1.0
    x = a / (a + b)
    for _ in range(200):
        f = _betainc(a, b, x) - q
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        density = math.exp(_log_front(a, b, x) - math.log(x) - math.log1p(-x))
        step = f / density if density > 0.0 else math.inf
        # 1e-15 absolute: for tiny x the swapped fraction reads 1 - x, which
        # drops x's low bits, so I_x is noisy at about that size in x
        if abs(step) <= 1e-14 * x + 1e-15:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x in (lo, hi):  # the bracket is two adjacent floats
                return x
    raise ArithmeticError(f"beta quantile did not converge: q={q}, a={a}, b={b}")


def clopper_pearson(successes: int, trials: int, alpha: float = 0.05):
    """Exact (Clopper-Pearson) two-sided confidence interval for a binomial
    rate. Counts that are not integers, bools included, raise ValueError."""
    if not (_is_integer(successes) and _is_integer(trials)):
        raise ValueError("successes and trials must be integers")
    successes, trials = int(successes), int(trials)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    lo = 0.0 if successes == 0 else _beta_ppf(alpha / 2, successes, trials - successes + 1)
    hi = 1.0 if successes == trials else _beta_ppf(1 - alpha / 2, successes + 1, trials - successes)
    return lo, hi
