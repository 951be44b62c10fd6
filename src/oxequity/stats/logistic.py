"""Logistic regression fitted by iteratively reweighted least squares.

Newton-Raphson on the Bernoulli log-likelihood with step halving.  For
the canonical logit link the observed and expected information coincide
(X'WX), so standard errors come from inverting the final information
matrix.  The solver is written for designs of a handful of coefficients,
and needs no linear algebra library: each Newton step solves its p x p
system once, by Gaussian elimination.

The fit stops on the first of two tests.  The score test holds when
every component of X'(y - mu) is at most ``_SCORE_TOL`` (1e-8) in
magnitude.  The decrement test holds when the Newton decrement
delta'g/2 of the next step is at most ``_DECREMENT_TOL`` (1e-12) times
max(1, |loglik|): that step is then taken in full without a line
search, since its gain is below the rounding noise of an n-term
log-likelihood, which grows with n.  Without the second test, some fits
on 8e4 rows rejected every step on that noise near the optimum until
they ran out of their ``_MAX_ITER`` (50) steps.

The per-row work runs as a column kernel.  The covariates are turned
into columns once per fit.  Each candidate of the line search builds the
linear predictor eta in one pass of ``map`` chains over the columns, and
exp(-|eta|) once, which both the log-likelihood (its softplus) and the
score pass (its logistic mean) read; the accepted candidate's eta and
exp(-|eta|) are kept for the score pass instead of being recomputed, and
are the only n-sized sequences besides the columns.  Both passes walk
the rows in blocks of ``_BLOCK``, so their temporaries (mu, the
residuals, the weights, w * x_j) stay bounded whatever n is.  Every loop
over rows is a ``map``/``operator`` chain, a comprehension or an
``itertools.compress``.  Each list of terms w * x_j is built once and
folded twice: into entry j of the information's row 0, and against the
x_k of row j.

The start point beta = 0 needs no pass over the rows for eta.  Every
covariate is finite, so x * 0.0 is +0.0 or -0.0, and 0.0 + (+-0.0) is
+0.0: eta is exactly +0.0 on every row, whatever the design.  So every
tail exp(-|eta|) is 1.0, every mu 0.5, every residual y - 0.5 and every
weight 0.25, and each log-likelihood term is 0.0 - (0.0 + log1p(1.0)).
The fit folds the start's log-likelihood, score and information from
these constants, in the same order as at any other beta, so the bits
are those of the generic passes.

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
from itertools import compress, repeat
from math import exp, isfinite, log1p
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from .special import normal_cdf

__all__ = ["LogisticFit", "SingularDesignError", "fit_logistic_irls"]

_NAN = float("nan")

# Rows per block of the log-likelihood and score passes; bounds their
# temporaries.
_BLOCK = 2048

# The two stop tests and the step cap; see the module docstring.
_SCORE_TOL = 1e-8
_DECREMENT_TOL = 1e-12
_MAX_ITER = 50


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


def _solve(matrix: list[list[float]], rhs: list[list[float]]) -> list[list[float]]:
    """Gaussian elimination with partial pivoting; returns solutions columnwise.

    Raises SingularDesignError naming the stuck pivot column when the
    matrix is numerically singular.
    """
    p = len(matrix)
    aug = [matrix[i][:] + [col[i] for col in rhs] for i in range(p)]
    scale = max(abs(v) for row in matrix for v in row) or 1.0
    for col in range(p):
        pivot_row = max(range(col, p), key=lambda r: abs(aug[r][col]))
        pivot = aug[pivot_row][col]
        if abs(pivot) <= 1e-12 * scale:
            raise SingularDesignError([col])
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


def _moments(y: list[int], eta: list[float], tails: array):
    """Per block of rows: its slice, the residuals y - mu and the weights mu (1 - mu)."""
    for start in range(0, len(y), _BLOCK):
        rows = slice(start, start + _BLOCK)
        # mu = 1 / (1 + exp(-h)) for h >= 0, else z / (1 + z) with
        # z = exp(h); both exponents equal -|h|
        mu = [(1.0 if h >= 0.0 else z) / (1.0 + z) for h, z in zip(eta[rows], tails[rows])]
        yield rows, list(map(sub, y[rows], mu)), [m * (1.0 - m) for m in mu]


def _start_moments(y: list[int]):
    """``_moments`` at beta = 0, where every mu is exactly 0.5."""
    for start in range(0, len(y), _BLOCK):
        rows = slice(start, start + _BLOCK)
        resid = list(map(sub, y[rows], repeat(0.5)))
        yield rows, resid, [0.25] * len(resid)


def _score_and_information(
    columns: list[list[float]],
    binary: list[bool],
    moments: Iterable[tuple[slice, list[float], list[float]]],
) -> tuple[list[float], list[list[float]], float, bool]:
    """Score, information and max |score| from the blocks of ``moments``, and
    whether some |residual| exceeds ``_PERFECT_FIT_RESIDUAL``."""
    p = len(columns) + 1
    score = [0.0] * p
    info = [[0.0] * p for _ in range(p)]
    misfit = False
    for rows, resid, w in moments:
        # The fit asks only whether one residual exceeds the bound, so the
        # scan stops at the first that does; a NaN residual compares false,
        # as it did in the row loop's running max.
        misfit = misfit or any(map(_PERFECT_FIT_RESIDUAL.__lt__, map(abs, resid)))
        # The intercept column is 1.0, and 1.0 * v == v exactly.
        xs = [column[rows] for column in columns]
        score[0] = reduce(add, resid, score[0])
        info[0][0] = reduce(add, w, info[0][0])
        for j, xj in enumerate(xs, 1):
            score[j] = reduce(add, _times(resid, xj, binary[j - 1]), score[j])
            # The terms of row 0's entry j are the w * x_j of row j.
            wxj = list(_times(w, xj, binary[j - 1]))
            info[0][j] = reduce(add, wxj, info[0][j])
            row = info[j]
            if binary[j - 1]:
                # Rows where x_j is 0.0 add only signed zeros to row j, and
                # where it is 1.0, w * x_j * x_k is w * x_k; so the diagonal
                # is row 0's entry j.
                row[j] = info[0][j]
                for k in range(j + 1, p):
                    xk = list(compress(xs[k - 1], xj))
                    row[k] = reduce(add, _times(wxj, xk, binary[k - 1]), row[k])
            else:
                for k in range(j, p):
                    row[k] = reduce(add, _times(wxj, xs[k - 1], binary[k - 1]), row[k])
    for j in range(p):
        for k in range(j + 1, p):
            info[k][j] = info[j][k]
    return score, info, max(abs(s) for s in score), misfit


def fit_logistic_irls(
    design_rows: Sequence[Sequence[float]], outcomes: Sequence[int]
) -> LogisticFit:
    """Maximum-likelihood logistic fit of outcomes on the given covariates.

    An intercept column is prepended internally, so ``design_rows``
    carries covariates only.  Convergence means that within
    ``_MAX_ITER`` Newton steps the score test or the decrement test held
    (see the module docstring), that not every observation is fitted
    exactly (which would signal separation), and that the final
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
    # One lookup checks each value and makes it an int: 1.0 finds 1; 0.7, NaN and "1" fail.
    try:
        y = list(map({0: 0, 1: 1}.__getitem__, outcomes))
    except (KeyError, TypeError):
        raise ValueError("outcomes must be binary") from None
    width = len(columns) + 1
    binary = [{0.0, 1.0}.issuperset(column) for column in columns]

    # At beta = 0 every eta is +0.0, every tail 1.0 and every mu 0.5 (see
    # the module docstring), so no pass over the rows computes them.
    beta = [0.0] * width
    loglik = reduce(add, repeat(0.0 - (0.0 + log1p(1.0)), n), 0.0)
    iterations = 0
    final = False
    score, info, max_abs_score, misfit = _score_and_information(
        columns, binary, _start_moments(y)
    )
    # At beta = 0 every weight is 1/4, so info is X'X / 4: check its rank
    # here, before the score test, so a collinear design whose score
    # already vanishes cannot pass as converged.  The solution is the
    # first Newton step.
    (delta,) = _solve(info, [score])
    while iterations < _MAX_ITER and max_abs_score > _SCORE_TOL:
        if iterations:
            try:
                (delta,) = _solve(info, [score])
            except SingularDesignError:
                # Weights collapsed mid-path (separation); report as such.
                break
        # Below the log-likelihood's rounding noise the line search would
        # only compare that noise: take the full step untested and stop.
        decrement = reduce(add, map(mul, delta, score)) / 2.0
        final = decrement <= _DECREMENT_TOL * max(1.0, abs(loglik))
        step = 1.0
        for _ in range(30):
            candidate = [b + step * d for b, d in zip(beta, delta)]
            eta = tails = None  # free the previous lists before building the next
            eta = _linear_predictor(columns, candidate, n)
            tails = _tails(eta)
            if final:
                break
            candidate_ll = _log_likelihood(eta, tails, y)
            if candidate_ll >= loglik - 1e-10:
                break
            step *= 0.5
        beta = candidate
        iterations += 1
        score, info, max_abs_score, misfit = _score_and_information(
            columns, binary, _moments(y, eta, tails)
        )
        if final:
            break
        loglik = candidate_ll

    # A score that vanished only because every observation is classified
    # exactly is the numerical face of separation, not an interior maximum.
    converged = (max_abs_score <= _SCORE_TOL or final) and misfit

    covariance = None
    if converged:
        identity = [[1.0 if i == j else 0.0 for i in range(width)] for j in range(width)]
        try:
            inv_cols = _solve(info, identity)
        except SingularDesignError:
            converged = False
        else:
            covariance = [[inv_cols[j][i] for j in range(width)] for i in range(width)]
    # se > 0.0 rejects NaN and zero alike, and normal_cdf(NaN) is NaN.
    ses, wald, p_values = [], [], []
    for j, b in enumerate(beta):
        se = math.sqrt(max(covariance[j][j], 0.0)) if covariance else _NAN
        z = b / se if se > 0.0 else _NAN
        ses.append(se)
        wald.append(z)
        p_values.append(2.0 * normal_cdf(-abs(z)))
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
