"""Self-contained statistical primitives (no third-party numerics)."""

from .auc import auc_mann_whitney, hanley_mcneil_se
from .hypotests import (
    ONE_SIDED_LOWER,
    ONE_SIDED_UPPER,
    TWO_SIDED,
    TestResult,
    chi_square_independence,
    chi_square_tail,
    cmh_conditional_independence,
    student_t_tail,
    two_proportion_one_sided,
    welch_t_one_sided,
)
from .logistic import LogisticFit, SingularDesignError, fit_logistic_irls
from .special import (
    normal_cdf,
    normal_quantile,
    normal_quantiles,
    regularized_beta,
    regularized_gamma_q,
    sigmoids,
)

__all__ = [
    "ONE_SIDED_LOWER",
    "ONE_SIDED_UPPER",
    "TWO_SIDED",
    "TestResult",
    "LogisticFit",
    "SingularDesignError",
    "auc_mann_whitney",
    "chi_square_independence",
    "chi_square_tail",
    "cmh_conditional_independence",
    "fit_logistic_irls",
    "hanley_mcneil_se",
    "normal_cdf",
    "normal_quantile",
    "normal_quantiles",
    "regularized_beta",
    "regularized_gamma_q",
    "sigmoids",
    "student_t_tail",
    "two_proportion_one_sided",
    "welch_t_one_sided",
]
