"""The generated row pass of ``fit_logistic_irls`` equals the per-row loop bit for bit.

``oracles.fit_logistic_irls_oracle`` is the textbook row loop: one
(1, x...) tuple per row and plain running sums.  Every field of every fit
is compared through ``float.hex``, so a change in any last bit (a
different summation order, compensated summation, a recomputed
predictor) fails here.  Designs cover the audit's own fits, a CSV round
trip at the audit benchmark's size, random designs of 1 to 5000 rows
(2047 to 2049 straddle the block size of an earlier kernel), the
rejected-step path and the failure paths.
"""

import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from oxequity.cohort import ScenarioConfig, generate_cohort
from oxequity.io import read_cohort_csv, write_cohort_csv
from oxequity.stats import logistic
from oxequity.stats.logistic import SingularDesignError, fit_logistic_irls
from oxequity.stats.special import sigmoids

import oracles
from oracles import fit_logistic_irls_oracle, scenario_configs_oracle


def _bits(value):
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


def _fit_bits(fit):
    return {f.name: _bits(getattr(fit, f.name)) for f in dataclasses.fields(fit)}


def assert_same_fit(rows, outcomes, max_iter=logistic._MAX_ITER):
    expected = fit_logistic_irls_oracle(rows, outcomes, max_iter=max_iter)
    actual = fit_logistic_irls(rows, outcomes)
    assert _fit_bits(actual) == _fit_bits(expected)
    return actual


def _audit_design(cohort):
    # The design the systemic-bias metric fits: treatment on W* and group.
    return list(zip(cohort.w_star, map(float, cohort.group_a))), cohort.treated


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_grid_scenario_fits_match(seed):
    for config in scenario_configs_oracle(ScenarioConfig(n_total=2500, seed=seed)).values():
        fit = assert_same_fit(*_audit_design(generate_cohort(config)))
        assert fit.converged


def test_csv_round_trip_at_20000_matches(tmp_path):
    path = tmp_path / "cohort.csv"
    write_cohort_csv(generate_cohort(ScenarioConfig(n_total=20000, seed=7)), path)
    fit = assert_same_fit(*_audit_design(read_cohort_csv(path)))
    assert fit.iterations > 1


def test_large_cohort_stops_on_decrement():
    # At n=8e4 the log-likelihood's rounding noise outgrows the line
    # search's slack near the optimum; without the Newton-decrement stop
    # this fit halved its steps until the iteration cap.
    fit = assert_same_fit(*_audit_design(generate_cohort(ScenarioConfig(n_total=80000, seed=1))))
    assert fit.converged and fit.iterations <= 10


def _random_design(p, n, seed):
    rng = random.Random(1000 * p + n + seed)
    truth = [rng.uniform(-1.0, 1.0) for _ in range(p + 1)]
    rows = []
    outcomes = []
    for _ in range(n):
        row = tuple(
            float(rng.random() < 0.3) if j % 2 else rng.gauss(0.0, 2.0) for j in range(p)
        )
        eta = truth[0] + sum(b * x for b, x in zip(truth[1:], row))
        rows.append(row)
        outcomes.append(1 if rng.random() < sigmoids([eta])[0] else 0)
    return rows, outcomes


@pytest.mark.parametrize("n", (1, 2, 30, 2047, 2048, 2049, 5000))
@pytest.mark.parametrize("p", (1, 2, 3, 4))
def test_random_designs_match(p, n):
    rows, outcomes = _random_design(p, n, seed=0)
    try:
        expected = fit_logistic_irls_oracle(rows, outcomes)
    except SingularDesignError as exc:
        with pytest.raises(SingularDesignError) as excinfo:
            fit_logistic_irls(rows, outcomes)
        assert excinfo.value.columns == exc.columns
        assert str(excinfo.value) == str(exc)
        return
    assert _fit_bits(fit_logistic_irls(rows, outcomes)) == _fit_bits(expected)


def test_intercept_only_design_matches():
    assert_same_fit([()] * 40, [1] * 13 + [0] * 27)


def test_zero_score_at_start_matches():
    # The score vanishes at beta = 0, so no Newton step runs and the start
    # point's residuals and information are the fit's own.
    fit = assert_same_fit([(-1.0,), (1.0,), (-1.0,), (1.0,)] * 25, [0, 0, 1, 1] * 25)
    assert fit.iterations == 0 and fit.converged
    assert fit.coefficients == [0.0, 0.0]
    assert fit.standard_errors == [0.2, 0.2]


def test_complete_separation_matches():
    rows = [(float(x),) for x in range(-10, 10)]
    fit = assert_same_fit(rows, [1 if x >= 0 else 0 for x, in rows])
    assert not fit.converged


def test_singular_final_information_matches():
    rows = [(0.0, 0.0)] * 3 + [(25.0, 0.0), (0.0, 1.0), (8.0, 1.0), (77.0, 1.0)]
    fit = assert_same_fit(rows, [0, 0, 0, 0, 1, 0, 1])
    assert fit.max_abs_score <= 1e-8 and not fit.converged


def test_collinear_design_matches():
    rng = random.Random(3)
    rows = []
    outcomes = []
    for _ in range(50):
        x = rng.gauss(0, 1)
        rows.append((x, 2.0 * x))
        outcomes.append(1 if rng.random() < sigmoids([x])[0] else 0)
    with pytest.raises(SingularDesignError) as expected:
        fit_logistic_irls_oracle(rows, outcomes)
    with pytest.raises(SingularDesignError) as actual:
        fit_logistic_irls(rows, outcomes)
    assert actual.value.columns == expected.value.columns
    assert str(actual.value) == str(expected.value)


def test_single_iteration_matches(monkeypatch):
    monkeypatch.setattr(logistic, "_MAX_ITER", 1)
    rows, outcomes = _random_design(2, 500, seed=1)
    fit = assert_same_fit(rows, outcomes, max_iter=1)
    assert fit.iterations == 1 and not fit.converged


def test_rejected_step_matches(monkeypatch):
    # No other design in these tests rejects a full Newton step, so the
    # first candidate's log-likelihood is forced to -inf on both sides: the
    # line search must halve the step and go on from the half step's score
    # and information.
    rows, outcomes = _random_design(2, 500, seed=1)
    make_row_pass = logistic._row_pass
    candidates = []

    def rejecting_first(width, start):
        row_pass = make_row_pass(width, start)
        if start:
            return row_pass

        def wrapped(rows, y, *beta):
            loglik, *moments = row_pass(rows, y, *beta)
            candidates.append(beta)
            return (-math.inf if len(candidates) == 1 else loglik, *moments)

        return wrapped

    oracle_log_likelihood = oracles._irls_log_likelihood_oracle
    oracle_calls = []

    def oracle_rejecting_first(*args):
        # call 1 is the start point, call 2 the first candidate
        oracle_calls.append(args)
        return -math.inf if len(oracle_calls) == 2 else oracle_log_likelihood(*args)

    monkeypatch.setattr(logistic, "_row_pass", rejecting_first)
    monkeypatch.setattr(oracles, "_irls_log_likelihood_oracle", oracle_rejecting_first)
    fit = assert_same_fit(rows, outcomes)
    assert fit.converged
    # one candidate per step, and one more for the rejected full step
    assert len(candidates) == fit.iterations + 1
    assert list(candidates[1]) == [0.5 * b for b in candidates[0]]


@pytest.mark.parametrize("start", (False, True), ids=("general", "start"))
def test_row_pass_code_is_named(start):
    kind = "start row pass" if start else "row pass"
    code = logistic._row_pass(3, start).__code__
    assert code.co_filename == f"<oxequity.stats.logistic {kind}, width 3>"


def test_all_zero_outcomes_match():
    rows, _ = _random_design(2, 300, seed=2)
    fit = assert_same_fit(rows, [0] * len(rows))
    assert not fit.converged
    assert all(math.isnan(se) for se in fit.standard_errors)


def _draw(kind, rng):
    if kind == "b":
        return float(rng.random() < 0.4)
    if kind == "c":
        return float(rng.randrange(3))  # a count: 0, 1 or 2 is no indicator
    return rng.gauss(0.0, 1.5)


def _indicator_design(kinds, n, seed):
    """Rows whose columns are 0/1 indicators ("b"), counts in {0, 1, 2} ("c")
    or Gaussian ("g"), in the order of ``kinds``."""
    rng = random.Random(seed)
    rows = []
    outcomes = []
    for _ in range(n):
        row = tuple(_draw(k, rng) for k in kinds)
        eta = -0.3 + sum((0.8 if k == "b" else -0.5) * x for k, x in zip(kinds, row))
        rows.append(row)
        outcomes.append(1 if rng.random() < sigmoids([eta])[0] else 0)
    return rows, outcomes


@pytest.mark.parametrize("n", (30, 2049, 5000))
@pytest.mark.parametrize("kinds", ("b", "bb", "gb", "bg", "bgb", "gbbg", "bbbb", "cb", "bc"))
def test_indicator_designs_match(kinds, n):
    # a 0/1 column adds a signed zero on each of its 0 rows; the bits must not move
    rows, outcomes = _indicator_design(kinds, n, seed=len(kinds) * n)
    assert_same_fit(rows, outcomes)


def test_signed_zero_indicator_matches():
    rows, outcomes = _indicator_design("gb", 400, seed=5)
    rows = [(g, -0.0 if b == 0.0 else b) for g, b in rows]
    assert_same_fit(rows, outcomes)


@pytest.mark.parametrize("constant", (0.0, 1.0))
def test_constant_indicator_column_matches(constant):
    # all-zero and all-one 0/1 columns: both singular at the start
    rows, outcomes = _indicator_design("g", 300, seed=11)
    rows = [(g, constant) for g, in rows]
    with pytest.raises(SingularDesignError) as expected:
        fit_logistic_irls_oracle(rows, outcomes)
    with pytest.raises(SingularDesignError) as actual:
        fit_logistic_irls(rows, outcomes)
    assert actual.value.columns == expected.value.columns
    assert str(actual.value) == str(expected.value)


def test_indicator_separation_matches():
    # the outcome is the indicator itself: quasi-complete separation
    rows, _ = _indicator_design("gb", 200, seed=13)
    fit = assert_same_fit(rows, [int(b) for _, b in rows])
    assert not fit.converged


@pytest.mark.parametrize(
    "kinds, number", (("cb", int), ("bb", bool), ("gc", Fraction), ("gb", Decimal))
)
def test_non_float_covariates_fit_as_their_floats(kinds, number):
    # the fit reads float(v) of each covariate, and float(number(x)) is x here
    rows, outcomes = _indicator_design(kinds, 400, seed=19)
    expected = _fit_bits(fit_logistic_irls(rows, outcomes))
    converted = [tuple(map(number, row)) for row in rows]
    assert [tuple(map(float, row)) for row in converted] == rows
    assert _fit_bits(fit_logistic_irls(converted, outcomes)) == expected
    # and one such row among floats changes nothing either
    rows[7] = converted[7]
    assert _fit_bits(fit_logistic_irls(rows, outcomes)) == expected


@pytest.mark.parametrize("number", (float, int, Decimal))
@pytest.mark.parametrize("row", (0, 20))
def test_ragged_rows_rejected(number, row):
    rows, outcomes = _indicator_design("cb", 50, seed=23)
    rows = [tuple(map(number, r)) for r in rows]
    for ragged in (rows[row][:1], rows[row] + rows[row][:1]):
        design = rows[:row] + [ragged] + rows[row + 1 :]
        with pytest.raises(ValueError, match="inconsistent dimension"):
            fit_logistic_irls(design, outcomes)


def test_overflowing_start_score_is_no_non_finite_covariate():
    # x (y - 0.5) summed over these rows overflows to inf at the start, yet
    # every covariate is finite; the fit must fail as the row loop does
    rows = [(1e308,)] * 4 + [(0.0,), (1.0,)] * 4
    outcomes = [1] * 4 + [0, 1] * 4
    with pytest.raises(SingularDesignError) as expected:
        fit_logistic_irls_oracle(rows, outcomes)
    with pytest.raises(SingularDesignError) as actual:
        fit_logistic_irls(rows, outcomes)
    assert actual.value.columns == expected.value.columns


@pytest.mark.parametrize(
    "bad",
    (math.inf, -math.inf, math.nan, Decimal("Infinity"), Decimal("-Infinity"), Decimal("NaN")),
)
def test_non_finite_covariates_rejected(bad):
    rows, outcomes = _indicator_design("gb", 50, seed=17)
    rows[20] = (bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        fit_logistic_irls(rows, outcomes)
