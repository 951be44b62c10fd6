"""Logistic regression fitted by iteratively reweighted least squares.

Newton-Raphson on the Bernoulli log-likelihood with step halving.  For
the canonical logit link the observed and expected information coincide
(X'WX), so standard errors come from inverting the final information
matrix.  The solver is written for the small designs this package fits
(a handful of coefficients on a few thousand rows) and needs no linear
algebra library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .special import normal_cdf, sigmoid

__all__ = ["LogisticFit", "SingularDesignError", "fit_logistic_irls"]

_NAN = float("nan")


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

    Raises ValueError with the stuck pivot column when the matrix is
    numerically singular.
    """
    p = len(matrix)
    aug = [matrix[i][:] + [col[i] for col in rhs] for i in range(p)]
    scale = max(abs(v) for row in matrix for v in row) or 1.0
    for col in range(p):
        pivot_row = max(range(col, p), key=lambda r: abs(aug[r][col]))
        pivot = aug[pivot_row][col]
        if abs(pivot) <= 1e-12 * scale:
            raise ValueError(f"singular at column {col}")
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


def _log_likelihood(x_rows: list[tuple[float, ...]], y: list[int], beta: list[float]) -> float:
    total = 0.0
    for xi, yi in zip(x_rows, y):
        eta = 0.0
        for j, b in enumerate(beta):
            eta += xi[j] * b
        # log(1 + exp(eta)) without overflow
        total += yi * eta - (max(eta, 0.0) + math.log1p(math.exp(-abs(eta))))
    return total


# If every observation is classified to within this residual, the
# likelihood has no interior maximum (complete separation) and a
# vanishing score is vacuous rather than a sign of convergence.
_PERFECT_FIT_RESIDUAL = 1e-4


def _score_and_information(
    x_rows: list[tuple[float, ...]], y: list[int], beta: list[float]
) -> tuple[list[float], list[list[float]], float, float]:
    p = len(beta)
    score = [0.0] * p
    info = [[0.0] * p for _ in range(p)]
    max_abs_resid = 0.0
    for xi, yi in zip(x_rows, y):
        eta = 0.0
        for j in range(p):
            eta += xi[j] * beta[j]
        mu = sigmoid(eta)
        resid = yi - mu
        if abs(resid) > max_abs_resid:
            max_abs_resid = abs(resid)
        w = mu * (1.0 - mu)
        for j in range(p):
            xj = xi[j]
            score[j] += xj * resid
            wxj = w * xj
            row = info[j]
            for k in range(j, p):
                row[k] += wxj * xi[k]
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
    score X'(y - mu) has magnitude at most ``tol``.

    Raises:
        SingularDesignError: collinear design columns (detected at the
            start, where the weights are uniform, whatever the score).
        ValueError: mismatched lengths or non-binary outcomes.
    """
    x_rows = [(1.0, *(float(v) for v in row)) for row in design_rows]
    y = [int(v) for v in outcomes]
    if len(x_rows) != len(y):
        raise ValueError("design and outcome lengths differ")
    if not x_rows:
        raise ValueError("empty design")
    width = len(x_rows[0])
    if any(len(xi) != width for xi in x_rows):
        raise ValueError("design rows have inconsistent dimension")
    if any(v not in (0, 1) for v in y):
        raise ValueError("outcomes must be binary")

    beta = [0.0] * width
    loglik = _log_likelihood(x_rows, y, beta)
    iterations = 0
    score, info, max_abs_score, max_resid = _score_and_information(x_rows, y, beta)
    # At beta = 0 every weight is 1/4, so info is X'X / 4: check its rank
    # here, before the score test, so a collinear design whose score
    # already vanishes cannot pass as converged.
    try:
        _solve(info, [score])
    except ValueError as exc:
        column = int(str(exc).rsplit(" ", 1)[-1])
        raise SingularDesignError([column]) from None
    while iterations < max_iter and max_abs_score > tol:
        try:
            (delta,) = _solve(info, [score])
        except ValueError:
            # Weights collapsed mid-path (separation); report as such.
            break
        step = 1.0
        for _ in range(30):
            candidate = [b + step * d for b, d in zip(beta, delta)]
            candidate_ll = _log_likelihood(x_rows, y, candidate)
            if candidate_ll >= loglik - 1e-10:
                break
            step *= 0.5
        beta, loglik = candidate, candidate_ll
        iterations += 1
        score, info, max_abs_score, max_resid = _score_and_information(x_rows, y, beta)

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
        except ValueError:
            ses = [_NAN] * width
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
