"""Scalar special functions backing the statistical tests.

Everything in this module is plain Python on top of :mod:`math`, so the
statistics layer has no third-party numerical dependencies.  The normal
CDF rides on the C library's ``erfc``; the regularized upper incomplete
gamma and the incomplete beta use the classic series / continued-fraction
split, iterated to relative machine tolerance; both continued fractions
advance by one modified-Lentz update, ``_lentz_step``.  The chi-square
and t tails built on them match scipy to 1e-9 relative error for df from
1 to 1e6 and p down to 1e-300; past |t| ~ 1.34e154, where t^2 overflows,
the t tail hands the incomplete beta log x in place of x.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

__all__ = [
    "sigmoids",
    "normal_cdf",
    "normal_quantile",
    "normal_quantiles",
    "regularized_gamma_q",
    "regularized_beta",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_EPS = 1e-16
_MAX_ITER = 800
_TINY = 1e-300


def sigmoids(xs: Sequence[float]) -> list[float]:
    """Logistic function 1 / (1 + exp(-x)) of each x, stable for large |x|.

    With z = exp(-|x|), which never overflows, this is 1 / (1 + z) for
    x >= 0 and z / (1 + z) otherwise.
    """
    tails = map(math.exp, map(operator.neg, map(abs, xs)))
    return [(1.0 if x >= 0.0 else z) / (1.0 + z) for x, z in zip(xs, tails)]


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / _SQRT2)


# Acklam's piecewise rational minimax approximation to the probit.  On its
# own it is good to ~1.15e-9 relative; one Halley step against normal_cdf
# in normal_quantiles brings it to near machine accuracy.
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def normal_quantiles(ps: Iterable[float]) -> list[float]:
    """``normal_quantile`` of every p, in one pass with no per-element call.

    This is the one implementation of the probit: Acklam's initializer,
    then one Halley refinement against ``normal_cdf``.  The scalar form
    wraps it, so both give the same bits.

    Raises:
        ValueError: if any ``p`` is not strictly between 0 and 1.
    """
    a0, a1, a2, a3, a4, a5 = _ACKLAM_A
    b0, b1, b2, b3, b4 = _ACKLAM_B
    c0, c1, c2, c3, c4, c5 = _ACKLAM_C
    d0, d1, d2, d3 = _ACKLAM_D
    p_high = 1.0 - _P_LOW
    erfc, exp, log, sqrt = math.erfc, math.exp, math.log, math.sqrt
    quantiles = []
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ValueError(f"normal_quantile requires 0 < p < 1, got {p!r}")
        if p < _P_LOW or p > p_high:  # the upper tail is the lower one's negation
            q = sqrt(-2.0 * log(p if p < _P_LOW else 1.0 - p))
            x = (((((c0 * q + c1) * q + c2) * q + c3) * q + c4) * q + c5) / (
                (((d0 * q + d1) * q + d2) * q + d3) * q + 1.0
            )
            if p > p_high:
                x = -x
        else:
            q = p - 0.5
            r = q * q
            x = (((((a0 * r + a1) * r + a2) * r + a3) * r + a4) * r + a5) * q / (
                ((((b0 * r + b1) * r + b2) * r + b3) * r + b4) * r + 1.0
            )
        # One Halley refinement; skipped if exp would overflow (|x| > ~37,
        # where the initializer is already at the limit of double precision).
        half_x2 = 0.5 * x * x
        if half_x2 < 700.0:
            err = 0.5 * erfc(-x / _SQRT2) - p
            u = err * _SQRT_TWO_PI * exp(half_x2)
            x -= u / (1.0 + 0.5 * x * u)
        quantiles.append(x)
    return quantiles


def normal_quantile(p: float) -> float:
    """Inverse of ``normal_cdf`` on the open interval (0, 1).

    Raises:
        ValueError: if ``p`` is not strictly between 0 and 1.
    """
    return normal_quantiles((p,))[0]


# From this shape on, the prefactors take lgamma(a) as (a - 0.5) log a - a +
# log(2 pi) / 2 + 1 / (12 a) (Stirling, off by < 3e-15): lgamma's own rounding,
# about 2e-16 a log a, passes 2e-11.  Below it they keep the bits of n <= 2e4 audits.
_STIRLING_MIN = 1e4


def _gamma_front(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), the factor of both incomplete-gamma forms."""
    if a < _STIRLING_MIN:
        log_front = -x + a * math.log(x) - math.lgamma(a)
    else:  # a log(x / a) - (x - a) is -a (d - log1p(d)): no large terms cancel
        d = (x - a) / a
        log_front = 0.5 * math.log(a / (2.0 * math.pi)) - a * (d - math.log1p(d)) - 1.0 / (12.0 * a)
    return 0.0 if log_front < -745.0 else math.exp(log_front)


def _gamma_series(a: float, x: float) -> float:
    # Lower incomplete gamma by power series, DLMF 8.11.4 shape.
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER + int(10.0 * math.sqrt(a))):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * _gamma_front(a, x)


def _lentz_step(an: float, bn: float, c: float, d: float) -> tuple[float, float, float]:
    """One modified-Lentz update for the term an / (bn + ...): the new c and d, and
    the factor d * c by which the continued fraction's value moves."""
    d = an * d + bn
    if abs(d) < _TINY:
        d = _TINY
    c = bn + an / c
    if abs(c) < _TINY:
        c = _TINY
    d = 1.0 / d
    return c, d, d * c


def _gamma_continued_fraction(a: float, x: float) -> float:
    # Upper incomplete gamma via modified Lentz continued fraction.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + int(10.0 * math.sqrt(a))):
        b += 2.0
        c, d, delta = _lentz_step(-i * (i - a), b, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return _gamma_front(a, x) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a!r}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_continued_fraction(a, x)


def _beta_continued_fraction(x: float, a: float, b: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    # The zeroth term is a step too: from c = inf its c is exactly 1.0 and h = d.
    c, d, h = _lentz_step(-qab * x / qap, 1.0, math.inf, 1.0)
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        c, d, delta = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(
    x: float, a: float, b: float, complement: float | None = None, log_x: float | None = None
) -> float:
    """Regularized incomplete beta I_x(a, b).  From ``_STIRLING_MIN`` on, a given
    ``complement`` is 1 - x without the rounding of an x near 1, and is used for it.
    A given ``log_x`` is log x for an x that is subnormal or underflows to 0.0,
    and is used for it."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a!r} b={b!r}")
    if log_x is None and x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    small, big = sorted((a, b))
    y, log_y = 1.0 - x, math.log1p(-x)
    if big < _STIRLING_MIN:
        log_gammas = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    else:  # the same by Stirling's series, so that no large terms cancel
        log_gammas = (big - 0.5) * math.log1p(small / big) + small * (math.log(big + small) - 1.0)
        log_gammas += 1.0 / (12.0 * (big + small)) - 1.0 / (12.0 * big) - math.lgamma(small)
        if complement is not None:
            y, log_y = complement, math.log(complement)
    log_front = log_gammas + a * (math.log(x) if log_x is None else log_x) + b * log_y
    front = math.exp(log_front) if log_front > -745.0 else 0.0
    # Continued fraction converges fast on the side below the mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(x, a, b) / a
    return 1.0 - front * _beta_continued_fraction(y, b, a) / b
