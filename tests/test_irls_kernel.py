"""The column kernel of ``fit_logistic_irls`` equals the per-row loop bit for bit.

``oracles.fit_logistic_irls_oracle`` is the row loop the fitter ran
before its column kernel.  Every field of every fit is compared through
``float.hex``, so a change in any last bit (a different summation order,
compensated summation, a recomputed predictor) fails here.  Designs cover
the audit's own fits, a CSV round trip at the audit benchmark's size,
random designs on both sides of the kernel's block boundary, and the
failure paths.
"""

import dataclasses
import math
import random

import pytest

from oxequity.cohort import ScenarioConfig, generate_cohort
from oxequity.io import read_cohort_csv, write_cohort_csv
from oxequity.stats import logistic
from oxequity.stats.logistic import _BLOCK, SingularDesignError, fit_logistic_irls
from oxequity.stats.special import sigmoids

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


@pytest.mark.parametrize("n", (1, 2, 30, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000))
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


@pytest.mark.parametrize("n", (30, _BLOCK + 1, 5000))
@pytest.mark.parametrize("kinds", ("b", "bb", "gb", "bg", "bgb", "gbbg", "bbbb", "cb", "bc"))
def test_indicator_designs_match(kinds, n):
    # 0/1 columns are folded with compress; the bits must not move
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


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_non_finite_covariates_rejected(bad):
    rows, outcomes = _indicator_design("gb", 50, seed=17)
    rows[20] = (bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        fit_logistic_irls(rows, outcomes)
