"""Logistic regression fitted by iteratively reweighted least squares.

Newton-Raphson on the Bernoulli log-likelihood with step halving.  For
the canonical logit link the observed and expected information coincide
(X'WX), so standard errors come from inverting the final information
matrix.  The solver is written for the small designs this package fits
(a handful of coefficients on up to some tens of thousands of rows) and
needs no linear algebra library.

The per-row work runs as a column kernel.  The covariates are turned
into columns once per fit.  Each candidate of the line search builds the
linear predictor eta in one pass of ``map`` chains over the columns, and
exp(-|eta|) once, which both the log-likelihood (its softplus) and the
score pass (its sigmoid) read; the accepted candidate's eta and
exp(-|eta|) are kept for the score pass instead of being recomputed, and
are the only n-sized sequences besides the columns.  Both passes walk
the rows in blocks of ``_BLOCK``, so their temporaries (mu, the
residuals, the weights, w * x_j) stay bounded whatever n is.  Every loop
over rows is a ``map``/``operator`` chain, a comprehension or an
``itertools.compress``.

Every score, information and log-likelihood sum is folded left to right
into a running total (``functools.reduce(operator.add, terms, total)``),
which is the order of a plain loop over the rows, so a fit does not
depend on the block size.  Builtin ``sum`` is avoided on purpose: since
CPython 3.12 it adds floats with compensated summation, so its result
would depend on the interpreter.  ``math.fsum`` would change the bits as
well.

A covariate column whose values are all exactly 0.0 or 1.0 (a group
indicator) is folded with ``itertools.compress``: its sums keep only the
rows where it is 1.0, where x * v is v exactly, and skip the rest, where
the row loop adds a term that is +0.0 or -0.0.  Skipping such a term
gives the same bits, because every running total starts at +0.0 and can
never become -0.0 (a sum is -0.0 only when both addends are), and
t + (+-0.0) == t for every t that is not -0.0.  The skipped terms are
signed zeros only because the factors they multiply are finite: the
weights and residuals are finite whenever eta is not NaN, and the fit
rejects non-finite covariates, for which a skipped 0.0 * inf would drop
the NaN the row loop keeps.  A NaN eta makes the intercept's score NaN,
which ends the fit as non-converged whatever the other sums hold.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from math import exp, isfinite, log1p
from operator import add, mul, neg, sub
from typing import Sequence

from .special import normal_cdf

__all__ = ["LogisticFit", "SingularDesignError", "fit_logistic_irls"]

_NAN = float("nan")

# Rows per block of the log-likelihood and score passes; bounds their
# temporaries.
_BLOCK = 2048


class SingularDesignError(ValueError):
    """Raised when the weighted normal equations are singular at the start.

    ``columns`` lists the offending design column indices (0 is the
    intercept prepended by the fit).
    """

    def __init__(self, columns: Sequence[int]):
        self.columns = tuple(columns)
        cols = ", ".join(str(c) for c in self.columns)
        super().__init__(
            f"singular weighted normal equations; collinear design column(s): {cols}"
        )


@dataclass(frozen=True, slots=True)
class LogisticFit:
    """Coefficients and Wald inference for one fitted model.

    ``covariance`` is the inverse of the final information matrix X'WX.
    ``converged`` is False when either the score did not vanish within
    the iteration budget or it vanished only through saturated fitted
    probabilities (the numerical signature of complete separation);
    standard errors, covariance, and p-values are NaN/None in that case.
    """

    coefficients: list[float]
    standard_errors: list[float]
    wald_z: list[float]
    p_values: list[float]
    converged: bool
    iterations: int
    max_abs_score: float
    covariance: list[list[float]] | None = None


class _SingularPivot(ValueError):
    """Gaussian elimination met a numerically zero pivot in ``column``."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"singular at column {column}")


def _solve(matrix: list[list[float]], rhs: list[list[float]]) -> list[list[float]]:
    """Gaussian elimination with partial pivoting; returns solutions columnwise.

    Raises _SingularPivot with the stuck pivot column when the matrix is
    numerically singular.
    """
    p = len(matrix)
    aug = [matrix[i][:] + [col[i] for col in rhs] for i in range(p)]
    scale = max(abs(v) for row in matrix for v in row) or 1.0
    for col in range(p):
        pivot_row = max(range(col, p), key=lambda r: abs(aug[r][col]))
        pivot = aug[pivot_row][col]
        if abs(pivot) <= 1e-12 * scale:
            raise _SingularPivot(col)
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = 1.0 / aug[col][col]
        for r in range(p):
            if r == col:
                continue
            factor = aug[r][col] * inv
            if factor != 0.0:
                row_r, row_c = aug[r], aug[col]
                for k in range(col, len(row_r)):
                    row_r[k] -= factor * row_c[k]
    return [[aug[i][p + j] / aug[i][i] for i in range(p)] for j in range(len(rhs))]


def _linear_predictor(columns: list[list[float]], beta: list[float], n: int) -> list[float]:
    """eta for every row, summed over j as the row loop did: ((0 + b0) + x1 b1) + ..."""
    eta = repeat(0.0 + 1.0 * beta[0], n)
    for column, b in zip(columns, beta[1:]):
        eta = map(add, eta, map(mul, column, repeat(b)))
    return list(eta)


def _tails(eta: list[float]) -> array:
    """exp(-|eta|) for every row: it never overflows, and serves both passes.

    An array of doubles holds the same values in a third of the memory of
    a list of floats, and leaves no float objects behind to fragment the
    heap.
    """
    return array("d", map(exp, map(neg, map(abs, eta))))


def _log_likelihood(eta: list[float], tails: array, y: list[int]) -> float:
    total = 0.0
    for start in range(0, len(y), _BLOCK):
        rows = slice(start, start + _BLOCK)
        # log(1 + exp(eta)) without overflow.  `0.0 if 0.0 > h else h` is
        # the comparison max(h, 0.0) makes, so -0.0 and NaN come out the
        # same, without a call per row.
        terms = [
            yi * h - ((0.0 if 0.0 > h else h) + tail)
            for yi, h, tail in zip(y[rows], eta[rows], map(log1p, tails[rows]))
        ]
        total = reduce(add, terms, total)
    return total


# If every observation is classified to within this residual, the
# likelihood has no interior maximum (complete separation) and a
# vanishing score is vacuous rather than a sign of convergence.
_PERFECT_FIT_RESIDUAL = 1e-4


def _times(values, x: list[float], binary: bool):
    """The terms v * x_i, leaving out the signed zeros of a 0/1 column."""
    return compress(values, x) if binary else map(mul, values, x)


def _score_and_information(
    columns: list[list[float]],
    binary: list[bool],
    y: list[int],
    eta: list[float],
    tails: array,
) -> tuple[list[float], list[list[float]], float, float]:
    p = len(columns) + 1
    score = [0.0] * p
    info = [[0.0] * p for _ in range(p)]
    max_abs_resid = 0.0
    for start in range(0, len(y), _BLOCK):
        rows = slice(start, start + _BLOCK)
        # sigmoid(h): 1 / (1 + exp(-h)) for h >= 0, else z / (1 + z) with
        # z = exp(h); both exponents equal -|h|
        mu = [(1.0 if h >= 0.0 else z) / (1.0 + z) for h, z in zip(eta[rows], tails[rows])]
        resid = list(map(sub, y[rows], mu))
        # max keeps its running value unless an item compares greater, as
        # the row loop's `if abs(resid) > max_abs_resid` did (NaN included).
        max_abs_resid = max(chain((max_abs_resid,), map(abs, resid)))
        w = list(map(mul, mu, map(sub, repeat(1.0), mu)))
        # The intercept column is 1.0, and 1.0 * v == v exactly.
        xs = [column[rows] for column in columns]
        score[0] = reduce(add, resid, score[0])
        row = info[0]
        row[0] = reduce(add, w, row[0])
        for k, xk in enumerate(xs, 1):
            row[k] = reduce(add, _times(w, xk, binary[k - 1]), row[k])
        for j, xj in enumerate(xs, 1):
            score[j] = reduce(add, _times(resid, xj, binary[j - 1]), score[j])
            row = info[j]
            if binary[j - 1]:
                # Rows where x_j is 0.0 add only signed zeros to row j, and
                # where it is 1.0, w * x_j * x_k is w * x_k.
                wxj = list(compress(w, xj))
                row[j] = reduce(add, wxj, row[j])
                for k in range(j + 1, p):
                    xk = list(compress(xs[k - 1], xj))
                    row[k] = reduce(add, _times(wxj, xk, binary[k - 1]), row[k])
            else:
                wxj = list(map(mul, w, xj))
                for k in range(j, p):
                    row[k] = reduce(add, _times(wxj, xs[k - 1], binary[k - 1]), row[k])
    for j in range(p):
        for k in range(j + 1, p):
            info[k][j] = info[j][k]
    return score, info, max(abs(s) for s in score), max_abs_resid


def fit_logistic_irls(
    design_rows: Sequence[Sequence[float]],
    outcomes: Sequence[int],
    max_iter: int = 50,
    tol: float = 1e-8,
) -> LogisticFit:
    """Maximum-likelihood logistic fit of outcomes on the given covariates.

    An intercept column is prepended internally, so ``design_rows``
    carries covariates only.  Convergence means every component of the
    score X'(y - mu) has magnitude at most ``tol`` and the final
    information matrix can be inverted for standard errors.

    Raises:
        SingularDesignError: collinear design columns (detected at the
            start, where the weights are uniform, whatever the score).
        ValueError: mismatched lengths, an empty design, design rows of
            unequal length, non-finite covariates, or non-binary outcomes.
    """
    # float(v) of a float is v itself, so the columns share the caller's
    # floats; zip stops at the shortest row, which the dimension check
    # below catches.
    columns = [list(map(float, column)) for column in zip(*design_rows)]
    n = len(outcomes)
    if len(design_rows) != n:
        raise ValueError("design and outcome lengths differ")
    if not n:
        raise ValueError("empty design")
    if set(map(len, design_rows)) != {len(columns)}:
        raise ValueError("design rows have inconsistent dimension")
    if not all(all(map(isfinite, column)) for column in columns):
        raise ValueError("covariates must be finite")
    # Check the raw values: int() would truncate 0.7 to 0 and 1.9 to 1.
    if any(v not in (0, 1) for v in outcomes):
        raise ValueError("outcomes must be binary")
    y = [int(v) for v in outcomes]
    width = len(columns) + 1
    binary = [{0.0, 1.0}.issuperset(column) for column in columns]

    beta = [0.0] * width
    eta = _linear_predictor(columns, beta, n)
    tails = _tails(eta)
    loglik = _log_likelihood(eta, tails, y)
    iterations = 0
    score, info, max_abs_score, max_resid = _score_and_information(
        columns, binary, y, eta, tails
    )
    # At beta = 0 every weight is 1/4, so info is X'X / 4: check its rank
    # here, before the score test, so a collinear design whose score
    # already vanishes cannot pass as converged.
    try:
        _solve(info, [score])
    except _SingularPivot as exc:
        raise SingularDesignError([exc.column]) from None
    while iterations < max_iter and max_abs_score > tol:
        try:
            (delta,) = _solve(info, [score])
        except _SingularPivot:
            # Weights collapsed mid-path (separation); report as such.
            break
        step = 1.0
        for _ in range(30):
            candidate = [b + step * d for b, d in zip(beta, delta)]
            eta = tails = None  # free the previous lists before building the next
            eta = _linear_predictor(columns, candidate, n)
            tails = _tails(eta)
            candidate_ll = _log_likelihood(eta, tails, y)
            if candidate_ll >= loglik - 1e-10:
                break
            step *= 0.5
        beta, loglik = candidate, candidate_ll
        iterations += 1
        score, info, max_abs_score, max_resid = _score_and_information(
            columns, binary, y, eta, tails
        )

    # A score that vanished only because every observation is classified
    # exactly is the numerical face of separation, not an interior maximum.
    converged = max_abs_score <= tol and max_resid > _PERFECT_FIT_RESIDUAL

    covariance = None
    if converged:
        identity = [[1.0 if i == j else 0.0 for i in range(width)] for j in range(width)]
        try:
            inv_cols = _solve(info, identity)
            covariance = [[inv_cols[j][i] for j in range(width)] for i in range(width)]
            ses = [math.sqrt(max(covariance[j][j], 0.0)) for j in range(width)]
        except _SingularPivot:
            ses = [_NAN] * width
            converged = False
    else:
        ses = [_NAN] * width
    wald = [
        b / se if se and not math.isnan(se) and se > 0.0 else _NAN
        for b, se in zip(beta, ses)
    ]
    p_values = [
        2.0 * normal_cdf(-abs(z)) if not math.isnan(z) else _NAN for z in wald
    ]
    return LogisticFit(
        coefficients=beta,
        standard_errors=ses,
        wald_z=wald,
        p_values=p_values,
        converged=converged,
        iterations=iterations,
        max_abs_score=max_abs_score,
        covariance=covariance,
    )
