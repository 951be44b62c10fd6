"""Hypothesis tests used by the equity audit.

All tests are implemented from their defining formulas, without
continuity corrections anywhere.  That keeps the classical cross-test
identities exact and testable: a 2x2 Pearson chi-square equals the
squared pooled two-proportion z, and a single-stratum CMH statistic
equals (n-1)/n times the Pearson statistic.  Users comparing output
against correcting implementations should expect small offsets.

Every test is a pure function of its inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import Sequence

from .special import normal_cdf, regularized_beta, regularized_gamma_q

__all__ = [
    "ONE_SIDED_LOWER",
    "ONE_SIDED_UPPER",
    "TWO_SIDED",
    "TestResult",
    "chi_square_tail",
    "student_t_tail",
    "welch_t_one_sided",
    "two_proportion_one_sided",
    "chi_square_independence",
    "cmh_conditional_independence",
]

ONE_SIDED_LOWER = "one_sided_lower"
ONE_SIDED_UPPER = "one_sided_upper"
TWO_SIDED = "two_sided"


@dataclass(frozen=True, slots=True)
class TestResult:
    """Outcome of one hypothesis test.

    ``df`` is None for tests with no degrees-of-freedom notion (normal
    reference).  ``degenerate`` marks inputs on which the test statistic
    is undefined and a neutral p-value of 0.5 was substituted.
    """

    statistic: float
    df: float | None
    p_value: float
    direction: str
    degenerate: bool = False


def chi_square_tail(statistic: float, df: float) -> float:
    """Upper tail P(X > statistic) of the chi-square distribution."""
    if df <= 0.0:
        raise ValueError(f"chi-square df must be positive, got {df!r}")
    if statistic < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {statistic!r}")
    return regularized_gamma_q(0.5 * df, 0.5 * statistic)


def student_t_tail(statistic: float, df: float) -> float:
    """Upper tail P(T > statistic) of Student's t distribution."""
    if df <= 0.0:
        raise ValueError(f"t df must be positive, got {df!r}")
    if statistic == 0.0:
        return 0.5
    t2 = statistic * statistic
    if t2 == math.inf:  # |t| > ~1.34e154: log x = log(df / (df + t^2)), t never squared
        t = abs(statistic)
        log_x = math.log(df) - 2.0 * math.log(t) - math.log1p(df / t / t)
        x, complement = math.exp(log_x), -math.expm1(log_x)
        tail = 0.5 * regularized_beta(x, 0.5 * df, 0.5, complement, log_x=log_x)
    else:
        tail = 0.5 * regularized_beta(df / (df + t2), 0.5 * df, 0.5, t2 / (df + t2))
    return tail if statistic > 0.0 else 1.0 - tail


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _sample_variance(values: Sequence[float], mean: float) -> float:
    return math.fsum(map(pow, map(sub, values, repeat(mean)), repeat(2))) / (len(values) - 1)


def welch_t_one_sided(
    sample_hi: Sequence[float], sample_lo: Sequence[float]
) -> TestResult:
    """Welch two-sample t test of mean(sample_hi) > mean(sample_lo).

    Uses unequal variances with Satterthwaite degrees of freedom; the
    p-value is the upper tail of the t distribution at the statistic.

    Raises:
        ValueError: a sample has fewer than two values or holds a NaN or
            infinite value, or both samples have zero variance.
        OverflowError: finite values whose squared deviations from their
            mean exceed the float range, such as ``[1e308, 0.0, 2.0]``.
    """
    hi = [float(v) for v in sample_hi]
    lo = [float(v) for v in sample_lo]
    if len(hi) < 2 or len(lo) < 2:
        raise ValueError("welch_t_one_sided requires n >= 2 in each sample")
    if not (all(map(math.isfinite, hi)) and all(map(math.isfinite, lo))):
        raise ValueError("welch_t_one_sided requires finite samples")
    m1, m0 = _mean(hi), _mean(lo)
    v1, v0 = _sample_variance(hi, m1), _sample_variance(lo, m0)
    if v1 == 0.0 and v0 == 0.0:
        raise ValueError("both samples have zero variance; mean contrast is untestable")
    a1, a0 = v1 / len(hi), v0 / len(lo)
    se2 = a1 + a0
    t = (m1 - m0) / math.sqrt(se2)
    df = se2 * se2 / (a1 * a1 / (len(hi) - 1) + a0 * a0 / (len(lo) - 1))
    return TestResult(t, df, student_t_tail(t, df), ONE_SIDED_UPPER)


def two_proportion_one_sided(x1: int, n1: int, x0: int, n0: int) -> TestResult:
    """Pooled-variance z test of proportion p1 < p0 (lower tail).

    A pooled proportion of exactly 0 or 1 leaves the statistic
    undefined; the result is then p = 0.5 with the degenerate flag set.
    """
    for label, x, n in (("sample 1", x1, n1), ("sample 0", x0, n0)):
        if n < 1:
            raise ValueError(f"{label}: need at least one trial, got {n!r}")
        if not 0 <= x <= n:
            raise ValueError(f"{label}: successes {x!r} outside [0, {n}]")
    pooled = (x1 + x0) / (n1 + n0)
    if pooled == 0.0 or pooled == 1.0:
        return TestResult(0.0, None, 0.5, ONE_SIDED_LOWER, degenerate=True)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n0))
    z = (x1 / n1 - x0 / n0) / se
    return TestResult(z, None, normal_cdf(z), ONE_SIDED_LOWER)


def _validate_grid(table: Sequence[Sequence[float]]) -> list[list[float]]:
    grid = [[float(c) for c in row] for row in table]
    if len(grid) < 2 or any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("contingency table must be rectangular with >= 2 rows")
    if len(grid[0]) < 2:
        raise ValueError("contingency table needs >= 2 columns")
    if any(c < 0 for row in grid for c in row):
        raise ValueError("contingency table counts must be non-negative")
    return grid


def chi_square_independence(table: Sequence[Sequence[float]]) -> TestResult:
    """Pearson chi-square test of independence on an R x C table.

    No continuity correction; df = (R-1)(C-1); upper-tail p-value.
    Raises on any zero row or column margin, naming the empty margin.
    """
    grid = _validate_grid(table)
    row_totals = [math.fsum(row) for row in grid]
    col_totals = [math.fsum(col) for col in zip(*grid)]
    for margin, totals in (("row", row_totals), ("column", col_totals)):
        for i, total in enumerate(totals):
            if total == 0.0:
                raise ValueError(f"{margin} {i} of the contingency table has zero total")
    n = math.fsum(row_totals)
    statistic = 0.0
    for i, row in enumerate(grid):
        for j, observed in enumerate(row):
            expected = row_totals[i] * col_totals[j] / n
            diff = observed - expected
            statistic += diff * diff / expected
    df = float((len(grid) - 1) * (len(grid[0]) - 1))
    return TestResult(statistic, df, chi_square_tail(statistic, df), TWO_SIDED)


def cmh_conditional_independence(
    strata: Sequence[Sequence[Sequence[float]]],
) -> TestResult:
    """Cochran-Mantel-Haenszel test over a sequence of 2x2 strata.

    The statistic is (sum_k (a_k - E_k))^2 / sum_k V_k where E_k and V_k
    are the hypergeometric mean and variance of the (0, 0) cell under
    the stratum margins.  Strata with a zero row or column margin
    contribute nothing and are skipped; no continuity correction.
    """
    excess = 0.0
    variance = 0.0
    informative = 0
    for k, stratum in enumerate(strata):
        grid = [[float(c) for c in row] for row in stratum]
        if len(grid) != 2 or any(len(row) != 2 for row in grid):
            raise ValueError(f"stratum {k} is not a 2x2 table")
        if any(c < 0 for row in grid for c in row):
            raise ValueError(f"stratum {k} has negative counts")
        (a, b), (c, d) = grid
        n = a + b + c + d
        r1, r2 = a + b, c + d
        c1, c2 = a + c, b + d
        if 0.0 in (r1, r2, c1, c2):
            continue
        excess += a - r1 * c1 / n
        variance += r1 * r2 * c1 * c2 / (n * n * (n - 1.0))
        informative += 1
    if informative == 0 or variance == 0.0:
        raise ValueError("every stratum is degenerate; CMH statistic undefined")
    statistic = excess * excess / variance
    return TestResult(statistic, 1.0, chi_square_tail(statistic, 1.0), TWO_SIDED)
