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

The per-row work is one row pass per candidate of the line search.  It
walks the rows once and folds that candidate's log-likelihood, score,
information and misfit flag (whether some |y - mu| exceeds
``_PERFECT_FIT_RESIDUAL``) into local running totals.  Only the accepted
candidate's score and information are used; a rejected candidate's go
with it.  The first pass, at the start point, reads the caller's rows
and copies each as a tuple of floats, which the later passes read.  A
design of p coefficients has p score and p (p + 1) / 2 information
totals, each a local variable, so the pass is generated once per design
width from one template (``_row_pass_source``), compiled with ``exec``
and cached, the way ``dataclasses`` and ``collections.namedtuple`` build
their methods.

Every total takes one plain float ``+=`` per row, in row order, of the
terms of the textbook per-row loop: eta = ((0 + b0) + x1 b1) + ..., the
score's entry j adds x_j (y - mu), and the information's entry (j, k)
adds (w x_j) x_k.  That loop is the reference because its order is the
one a reader of the fit would write, and because matching it term for
term makes the bits equal by construction: no term is skipped, and no
sum is regrouped.  The pass branches on the sign of eta where the loop
takes exp(-|eta|) and max(eta, 0.0); both branches compute the same
values.  Builtin ``sum`` is avoided on purpose: since CPython 3.12 it
adds floats with compensated summation, so its result would depend on
the interpreter.  ``math.fsum`` would change the bits as well.

The start variant of the pass, at beta = 0, needs no exp or log1p.
Every covariate is finite, so x * 0.0 is +0.0 or -0.0, and 0.0 + (+-0.0)
is +0.0: eta is exactly +0.0 on every row, whatever the design.  So
every mu is 0.5, every residual y - 0.5 and every weight 0.25, and each
log-likelihood term is 0.0 - (0.0 + log1p(1.0)), the values the general
pass computes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain
from math import exp, isfinite, log1p
from operator import add, mul
from typing import Sequence

from .special import normal_cdf

__all__ = ["LogisticFit", "SingularDesignError", "fit_logistic_irls"]

_NAN = float("nan")

# The two stop tests and the step cap; see the module docstring.
_SCORE_TOL = 1e-8
_DECREMENT_TOL = 1e-12
_MAX_ITER = 50

# If every observation is classified to within this residual, the
# likelihood has no interior maximum (complete separation) and a
# vanishing score is vacuous rather than a sign of convergence.
_PERFECT_FIT_RESIDUAL = 1e-4

# Each log-likelihood term at beta = 0; see the module docstring.
_START_TERM = 0.0 - (0.0 + log1p(1.0))


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


def _row_pass_source(width: int, start: bool) -> str:
    """The source of ``row_pass(rows, y, b0, ..., b{width-1})``.

    It returns the log-likelihood, the score, the information matrix and
    the misfit flag at that beta, for rows of ``width - 1`` float
    covariates and float outcomes.  The ``start`` variant takes no beta:
    it is the pass at beta = 0 (see the module docstring).  It reads rows
    of any numbers, takes float(x) of each, and returns those float rows
    as well.
    """
    js = range(width)
    xs = [f"x{j}" for j in js[1:]]
    # a tuple display; the trailing comma keeps one covariate a tuple
    row = f"({''.join(f'{x}, ' for x in xs)})"
    info = [[f"i{min(j, k)}_{max(j, k)}" for k in js] for j in js]
    if start:
        head = ["def row_pass(rows, y):", "    floats = []"]
        moments = [
            *(f"{x} = float({x})" for x in xs),
            f"floats.append({row})",
            f"ll += {_START_TERM!r}",
            "r = yi - 0.5",
            "w = 0.25",
        ]
    else:
        # exp and log1p as locals; the row loop's eta adds 1.0 * b0 to 0.0 first
        betas = ", ".join(f"b{j}" for j in js)
        head = [f"def row_pass(rows, y, {betas}, *, exp=exp, log1p=log1p):", "    b0 = 0.0 + b0"]
        eta = "".join(f" + {x} * b{j}" for j, x in enumerate(xs, 1))
        # By the sign of h: z = exp(-|h|), which never overflows, mu the
        # logistic mean, and log(1 + exp(h)) = max(h, 0.0) + log1p(z).
        moments = [
            f"h = b0{eta}",
            "if h >= 0.0:",
            "    z = exp(-h)",
            "    mu = 1.0 / (1.0 + z)",
            "    ll += yi * h - (h + log1p(z))",
            "else:",
            "    z = exp(h)",
            "    mu = z / (1.0 + z)",
            "    ll += yi * h - (0.0 + log1p(z))",
            "r = yi - mu",
            "w = mu * (1.0 - mu)",
        ]
    # A NaN residual compares false, as in a running max of |r|.
    bound = _PERFECT_FIT_RESIDUAL
    body = [*moments, f"if r > {bound!r} or r < {-bound!r}:", "    misfit = True"]
    # The intercept is 1.0, and 1.0 * v == v exactly.
    body += ["s0 += r", "i0_0 += w"]
    for j, x in enumerate(xs, 1):
        body += [f"s{j} += {x} * r", f"w{j} = w * {x}", f"i0_{j} += w{j}"]
        body += [f"i{j}_{k} += w{j} * x{k}" for k in js[j:]]
    totals = ["ll", *(f"s{j}" for j in js), *(name for j in js for name in info[j][j:])]
    score = ", ".join(f"s{j}" for j in js)
    matrix = ", ".join(f"[{', '.join(entries)}]" for entries in info)
    return "\n".join(
        [
            *head,
            f"    {' = '.join(totals)} = 0.0",
            "    misfit = False",
            f"    for {row}, yi in zip(rows, y):",
            *(f"        {line}" for line in body),
            f"    return ll, [{score}], [{matrix}], misfit{', floats' if start else ''}",
            "",
        ]
    )


@cache
def _row_pass(width: int, start: bool):
    """The compiled row pass of ``_row_pass_source``, named in tracebacks and profiles."""
    kind = "start row pass" if start else "row pass"
    code = compile(
        _row_pass_source(width, start), f"<oxequity.stats.logistic {kind}, width {width}>", "exec"
    )
    namespace = {"exp": exp, "log1p": log1p}
    exec(code, namespace)
    return namespace["row_pass"]


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
    n = len(outcomes)
    if len(design_rows) != n:
        raise ValueError("design and outcome lengths differ")
    if not n:
        raise ValueError("empty design")
    width = len(design_rows[0]) + 1
    if set(map(len, design_rows)) != {width - 1}:
        raise ValueError("design rows have inconsistent dimension")
    # One lookup checks each value and makes it a float: 1.0 finds 1; 0.7,
    # NaN and "1" fail.  A float y adds and multiplies as its int would.
    try:
        y = list(map({0: 0.0, 1: 1.0}.__getitem__, outcomes))
    except (KeyError, TypeError):
        raise ValueError("outcomes must be binary") from None

    beta = [0.0] * width
    loglik, score, info, misfit, rows = _row_pass(width, True)(design_rows, y)
    # Each start score term x * (y - 0.5) is finite exactly when x is, and
    # a running total stays non-finite from its first non-finite term, so
    # finite start scores clear every covariate without a pass of their own.
    if not all(map(isfinite, score)) and not all(map(isfinite, chain.from_iterable(rows))):
        raise ValueError("covariates must be finite")
    max_abs_score = max(map(abs, score))
    iterations = 0
    final = False
    # At beta = 0 every weight is 1/4, so info is X'X / 4: check its rank
    # here, before the score test, so a collinear design whose score
    # already vanishes cannot pass as converged.  The solution is the
    # first Newton step.
    (delta,) = _solve(info, [score])
    row_pass = _row_pass(width, False)
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
            candidate_ll, score, info, misfit = row_pass(rows, y, *candidate)
            if final or candidate_ll >= loglik - 1e-10:
                break
            step *= 0.5
        beta = candidate
        iterations += 1
        max_abs_score = max(map(abs, score))
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
