"""IRLS logistic regression: closed forms, score convergence, inference."""

import math
import random

import pytest

from oxequity.stats.logistic import SingularDesignError, fit_logistic_irls
from oxequity.stats.special import sigmoid

from oracles import fd_hessian

LOGIT_02 = math.log(0.2 / 0.8)
LOGIT_DIFF = math.log(0.8 / 0.2) - math.log(0.2 / 0.8)


def two_level_design(successes0, n0, successes1, n1):
    rows = [(0.0,)] * n0 + [(1.0,)] * n1
    outcomes = [1] * successes0 + [0] * (n0 - successes0)
    outcomes += [1] * successes1 + [0] * (n1 - successes1)
    return rows, outcomes


def test_equal_rates_give_zero_coefficients():
    rows, outcomes = two_level_design(5, 10, 5, 10)
    fit = fit_logistic_irls(rows, outcomes)
    assert fit.converged
    assert abs(fit.coefficients[0]) < 1e-8
    assert abs(fit.coefficients[1]) < 1e-8


def test_saturated_two_level_closed_form():
    rows, outcomes = two_level_design(2, 10, 8, 10)
    fit = fit_logistic_irls(rows, outcomes)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(LOGIT_02, abs=1e-6)
    assert fit.coefficients[1] == pytest.approx(LOGIT_DIFF, abs=1e-6)


def test_score_vanishes_at_convergence():
    rng = random.Random(11)
    rows = [(rng.gauss(0, 1), rng.uniform(0, 1)) for _ in range(400)]
    outcomes = [
        1 if rng.random() < sigmoid(-0.5 + 1.2 * x1 - 0.8 * x2) else 0
        for x1, x2 in rows
    ]
    fit = fit_logistic_irls(rows, outcomes, tol=1e-8)
    assert fit.converged
    assert fit.max_abs_score <= 1e-8


def test_information_matches_finite_difference_hessian():
    rng = random.Random(7)
    rows = [(rng.gauss(0, 1.5), rng.gauss(1, 1)) for _ in range(300)]
    outcomes = [
        1 if rng.random() < sigmoid(0.3 + 0.9 * x1 - 0.6 * x2) else 0
        for x1, x2 in rows
    ]
    fit = fit_logistic_irls(rows, outcomes)
    assert fit.converged and fit.covariance is not None
    hessian = fd_hessian(rows, outcomes, fit.coefficients)
    # covariance is inv(X'WX) and the observed information is -Hessian,
    # so (-H) @ cov should be the identity to the finite-difference accuracy
    p = len(fit.coefficients)
    for i in range(p):
        for j in range(p):
            prod = sum(-hessian[i][k] * fit.covariance[k][j] for k in range(p))
            assert prod == pytest.approx(1.0 if i == j else 0.0, abs=1e-4)


def test_parameter_recovery_quick():
    # 20-seed smoke version of the acceptance-scale recovery study
    hits = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        truth = (-0.4, 0.8, -1.1)
        rows = [(rng.gauss(0, 1), rng.uniform(-1, 1)) for _ in range(1200)]
        outcomes = [
            1 if rng.random() < sigmoid(truth[0] + truth[1] * x1 + truth[2] * x2) else 0
            for x1, x2 in rows
        ]
        fit = fit_logistic_irls(rows, outcomes)
        assert fit.converged
        if all(
            abs(b - t) <= 3.0 * se
            for b, t, se in zip(fit.coefficients, truth, fit.standard_errors)
        ):
            hits += 1
    assert hits >= 18


def test_wald_inference_shape():
    rows, outcomes = two_level_design(2, 40, 25, 40)
    fit = fit_logistic_irls(rows, outcomes)
    assert len(fit.standard_errors) == len(fit.coefficients) == 2
    assert all(se > 0 for se in fit.standard_errors)
    assert all(0.0 <= p <= 1.0 for p in fit.p_values)
    assert fit.p_values[1] < 1e-4  # strong two-level split


def test_complete_separation_flagged_not_raised():
    rows = [(float(x),) for x in range(-10, 10)]
    outcomes = [1 if x >= 0 else 0 for x, in rows]
    fit = fit_logistic_irls(rows, outcomes, max_iter=40)
    assert not fit.converged
    assert abs(fit.coefficients[1]) > 3.0  # slope diverging
    assert all(math.isnan(se) for se in fit.standard_errors)
    assert fit.covariance is None
    assert all(math.isnan(p) for p in fit.p_values)


# (w_star, group) -> treated of a 7-patient cohort: the score test passes
# at iteration 22 while the final information matrix is singular.
QUASI_SEPARATED_ROWS = [(0.0, 0.0)] * 3 + [(25.0, 0.0), (0.0, 1.0), (8.0, 1.0), (77.0, 1.0)]
QUASI_SEPARATED_OUTCOMES = [0, 0, 0, 0, 1, 0, 1]


def test_singular_final_information_is_not_converged():
    fit = fit_logistic_irls(QUASI_SEPARATED_ROWS, QUASI_SEPARATED_OUTCOMES)
    assert fit.max_abs_score <= 1e-8
    assert not fit.converged
    assert all(math.isnan(se) for se in fit.standard_errors)
    assert all(math.isnan(p) for p in fit.p_values)


def test_collinear_design_names_column():
    rng = random.Random(3)
    rows = []
    outcomes = []
    for _ in range(50):
        x = rng.gauss(0, 1)
        rows.append((x, 2.0 * x))  # second covariate collinear with first
        outcomes.append(1 if rng.random() < sigmoid(x) else 0)
    with pytest.raises(SingularDesignError) as excinfo:
        fit_logistic_irls(rows, outcomes)
    assert excinfo.value.columns
    assert "column" in str(excinfo.value)


def test_collinear_design_with_vanishing_score_is_rejected():
    # A determines W* (90 vs 93) and half of each group is treated, so the
    # score is already zero at beta = 0; the rank check must still fire.
    rows = [(90.0, 0.0)] * 20 + [(93.0, 1.0)] * 20
    outcomes = [1, 0] * 20
    with pytest.raises(SingularDesignError) as excinfo:
        fit_logistic_irls(rows, outcomes)
    assert excinfo.value.columns == (2,)


def test_input_validation():
    with pytest.raises(ValueError):
        fit_logistic_irls([(1.0,)], [1, 0])
    with pytest.raises(ValueError):
        fit_logistic_irls([(1.0,), (2.0, 3.0)], [1, 0])
    with pytest.raises(ValueError):
        fit_logistic_irls([(1.0,), (2.0,)], [1, 2])
    with pytest.raises(ValueError):
        fit_logistic_irls([], [])


def test_fractional_outcomes_rejected_not_truncated():
    rows = [(0.0,), (1.0,), (0.0,), (1.0,)]
    with pytest.raises(ValueError, match="outcomes must be binary"):
        fit_logistic_irls(rows, [0.7, 1.9, 1.2, 0.4])
    with pytest.raises(ValueError, match="outcomes must be binary"):
        fit_logistic_irls(rows, [0, 1, 1, 0.5])
    # integral floats and bools are binary values and still fit
    assert fit_logistic_irls(rows, [0.0, 1.0, True, False]) == fit_logistic_irls(rows, [0, 1, 1, 0])
