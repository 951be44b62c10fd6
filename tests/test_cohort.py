"""Cohort generator: model formulas, channel independence, determinism."""

import math
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from oxequity.cohort import (
    DEFAULT_DGP,
    W_HIGH,
    W_LOW,
    DgpParams,
    ScenarioConfig,
    _saturation_inverse_cdf,
    generate_cohort,
    measurement_errors,
    oracle_tau,
    outcome_assignments,
    outcome_risks,
    treatment_assignments,
)
from oxequity.io import read_cohort_csv, write_cohort_csv
from oxequity.metrics import AuditConfig

from oracles import cohort_of, gold_free, records_of, truncated_normal_inverse_oracle

# frozen oracle inversions of the truncated-normal CDF
MEDIAN_DEFAULT = 88.2999990574     # mean 88.3, sd 2.35, u = 0.5
Q977_DEFAULT = 92.9891607947       # mean 88.3, sd 2.35, u = 0.977
MEDIAN_WIDE = 91.8859323889        # mean 92, sd 4, u = 0.5
Q977_WIDE = 98.7720359403          # mean 92, sd 4, u = 0.977


def saturation(u, params):
    """One patient's true saturation: a one-element column of the inverse CDF."""
    return _saturation_inverse_cdf((u,), params)[0]


class TestTrueSaturation:
    def test_median_draw_is_close_to_mean(self):
        value = saturation(0.5, DEFAULT_DGP)
        assert value == pytest.approx(MEDIAN_DEFAULT, abs=1e-6)
        assert value == pytest.approx(DEFAULT_DGP.saturation_mean, abs=0.01)

    def test_upper_quantile_matches_truncated_inverse_cdf(self):
        value = saturation(0.977, DEFAULT_DGP)
        assert value == pytest.approx(Q977_DEFAULT, abs=1e-6)

    def test_wide_parameterization_against_oracle(self):
        params = replace(DEFAULT_DGP, saturation_mean=92.0, saturation_sd=4.0)
        assert saturation(0.5, params) == pytest.approx(MEDIAN_WIDE, abs=1e-6)
        assert saturation(0.977, params) == pytest.approx(Q977_WIDE, abs=1e-6)
        # the frozen values themselves come from the bisection oracle
        assert truncated_normal_inverse_oracle(0.977, 92.0, 4.0) == pytest.approx(
            Q977_WIDE, abs=1e-8
        )

    def test_degenerate_sd_returns_mean(self):
        params = replace(DEFAULT_DGP, saturation_sd=0.0)
        assert _saturation_inverse_cdf((0.01, 0.5, 0.99), params) == [88.3] * 3

    def test_column_matches_one_draw_at_a_time(self):
        draws = (0.7, 0.0001, 0.9999, 0.5)
        column = _saturation_inverse_cdf(draws, DEFAULT_DGP)
        assert column == [saturation(u, DEFAULT_DGP) for u in draws]

    @pytest.mark.parametrize(
        "mean, u",
        (
            (40.0, 0.5),
            (50.0, 0.977),
            (65.0, 0.001),
            *((mean, u) for mean in (-100.0, -300.0) for u in (0.001, 0.5, 0.977)),
        ),
    )
    def test_mean_below_the_window_against_oracle(self, mean, u):
        # Below the window the normal CDF at both edges rounds to 1.0; the
        # draws must still follow the truncated law, whose mass sits near
        # 70.  A mean more than 37 sd below (-100, -300) is rejected: the
        # tail at 70 would underflow.
        if mean < W_LOW - 37 * DEFAULT_DGP.saturation_sd:
            with pytest.raises(ValueError, match="saturation_mean"):
                replace(DEFAULT_DGP, saturation_mean=mean)
            return
        params = replace(DEFAULT_DGP, saturation_mean=mean)
        assert saturation(u, params) == pytest.approx(
            truncated_normal_inverse_oracle(u, mean, params.saturation_sd), abs=1e-6
        )

    @pytest.mark.parametrize("mean", (190.0, 195.0, 200.0, 300.0))
    def test_mean_above_the_window_against_oracle(self, mean):
        # Each mean lies more than 37 sd above the window, where the normal
        # CDF at its upper edge would be subnormal or 0.0: it is rejected.
        assert mean > W_HIGH + 37 * DEFAULT_DGP.saturation_sd
        with pytest.raises(ValueError, match="saturation_mean"):
            replace(DEFAULT_DGP, saturation_mean=mean)

    @pytest.mark.parametrize("sd", (0.5, 2.35, 6.0))
    @pytest.mark.parametrize("side", ("below", "above"))
    def test_mean_37_sd_outside_the_window_against_oracle(self, side, sd):
        mean = W_LOW - 37.0 * sd if side == "below" else W_HIGH + 37.0 * sd
        params = replace(DEFAULT_DGP, saturation_mean=mean, saturation_sd=sd)
        us = (0.001, 0.5, 0.977)
        draws = _saturation_inverse_cdf(us, params)
        for u, w in zip(us, draws):
            assert w == pytest.approx(truncated_normal_inverse_oracle(u, mean, sd), abs=1e-6)
        assert draws[0] < draws[1] < draws[2]
        farther = W_LOW - 37.001 * sd if side == "below" else W_HIGH + 37.001 * sd
        with pytest.raises(ValueError, match="saturation_mean"):
            replace(params, saturation_mean=farther)

    @pytest.mark.parametrize("mean", (69.5, 100.5))
    def test_degenerate_sd_mean_must_lie_in_the_window(self, mean):
        with pytest.raises(ValueError, match=f"saturation_mean={mean!r} lies more than 37"):
            replace(DEFAULT_DGP, saturation_mean=mean, saturation_sd=0.0)

    def test_extreme_draws_stay_in_bounds(self):
        low = saturation(1e-300, DEFAULT_DGP)
        high = saturation(1.0 - 1e-16, DEFAULT_DGP)
        assert 70.0 <= low <= 100.0
        assert 70.0 <= high <= 100.0


class TestMeasurementError:
    def test_hand_computed_hinge_case(self):
        params = replace(
            DEFAULT_DGP,
            err_base=1.3,
            err_group_shift=1.0,
            err_group_slope=0.2,
            err_pivot=95.0,
        )
        (eps,) = measurement_errors((85.0,), (1,), (0.0,), params)
        assert eps == pytest.approx(1.3 + 1.0 + 0.2 * 10.0, abs=1e-12)

    def test_group_zero_gets_baseline_only(self):
        assert measurement_errors((82.0,), (0,), (0.0,), DEFAULT_DGP) == [DEFAULT_DGP.err_base]

    def test_toggle_off_removes_differential_terms(self):
        # An off measurement-bias channel is its group terms set to 0.0.
        params = replace(DEFAULT_DGP, err_group_shift=0.0, err_group_slope=0.0)
        assert measurement_errors((82.0,), (1,), (0.0,), params) == [DEFAULT_DGP.err_base]

    def test_noise_scales_with_configured_sd(self):
        (base,) = measurement_errors((90.0,), (0,), (0.0,), DEFAULT_DGP)
        (noisy,) = measurement_errors((90.0,), (0,), (1.0,), DEFAULT_DGP)
        assert noisy - base == pytest.approx(DEFAULT_DGP.err_noise_sd, abs=1e-12)

    def test_differential_error_grows_as_saturation_falls(self):
        errors = measurement_errors(
            (95.0, 90.0, 87.0, 82.0, 75.0), (1,) * 5, (0.0,) * 5, DEFAULT_DGP
        )
        assert errors == sorted(errors)


def treated(w_star, group_a, mode, u, params):
    """The one-element treatment column of one patient, unpacked."""
    (z,) = treatment_assignments((w_star,), (group_a,), mode, (u,), params)
    return z


class TestTreatmentAssignment:
    def test_deterministic_threshold(self):
        assert treated(91.9, 0, "deterministic", 0.5, DEFAULT_DGP) == 1
        assert treated(92.0, 0, "deterministic", 0.5, DEFAULT_DGP) == 0

    def test_stochastic_probability_at_threshold(self):
        params = replace(DEFAULT_DGP, treat_intercept=1.6, treat_slope=0.35)
        # at w_star == w_treat the probability is sigmoid(1.6) ~ 0.832018
        assert treated(92.0, 0, "stochastic", 0.8320, params) == 1
        assert treated(92.0, 0, "stochastic", 0.8321, params) == 0

    def test_stochastic_group_penalty(self):
        params = replace(
            DEFAULT_DGP, treat_intercept=1.6, treat_slope=0.35, treat_group_penalty=-0.75
        )
        # sigmoid(1.6 - 0.75) ~ 0.700567
        assert treated(92.0, 1, "stochastic", 0.7005, params) == 1
        assert treated(92.0, 1, "stochastic", 0.7006, params) == 0
        # an off systemic-bias channel is a penalty of 0.0
        unbiased = replace(params, treat_group_penalty=0.0)
        assert treated(92.0, 1, "stochastic", 0.8320, unbiased) == 1
        assert treated(92.0, 1, "stochastic", 0.8321, unbiased) == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            treatment_assignments((90.0,), (0,), "bernoulli", (0.5,), DEFAULT_DGP)


class TestOutcomeAssignment:
    def test_risk_at_reference_points(self):
        params = replace(DEFAULT_DGP, out_intercept=-3.0, out_severity=0.3, out_benefit=1.0)
        # untreated healthy patient: risk sigmoid(-3) ~ 0.047426
        assert outcome_assignments((95.0,), (0,), (0.0474,), params) == [1]
        assert outcome_assignments((95.0,), (0,), (0.0475,), params) == [0]
        # treated hypoxemic patient: sigmoid(-3 + 0.3 * 8 - 1) = sigmoid(-1.6) ~ 0.167982
        assert outcome_assignments((80.0,), (1,), (0.1679,), params) == [1]
        assert outcome_assignments((80.0,), (1,), (0.1680,), params) == [0]

    def test_treatment_is_protective_pointwise(self):
        for w in (75.0, 84.0, 88.0, 93.0, 99.0):
            for u in (0.02, 0.05, 0.11, 0.4, 0.9):
                assert outcome_assignments((w,), (1,), (u,), DEFAULT_DGP) <= (
                    outcome_assignments((w,), (0,), (u,), DEFAULT_DGP)
                )


class TestGenerateCohort:
    def test_regeneration_is_identical(self):
        config = ScenarioConfig(n_total=400, seed=5)
        assert generate_cohort(config) == generate_cohort(config)

    def test_systemic_toggle_preserves_measurement_columns(self):
        # the systemic channel is off when its treatment penalty is 0.0
        on = generate_cohort(ScenarioConfig(n_total=600, seed=9))
        unpenalised = replace(DEFAULT_DGP, treat_group_penalty=0.0)
        off = generate_cohort(ScenarioConfig(n_total=600, seed=9, dgp=unpenalised))
        for a, b in zip(records_of(on), records_of(off)):
            assert a.w_true == b.w_true
            assert a.epsilon == b.epsilon
            assert a.w_star == b.w_star
            assert a.group_a == b.group_a

    def test_measurement_toggle_preserves_draws(self):
        # with treatment independent of the reading and outcome flat in
        # severity, zeroing the measurement channel's group terms must not
        # change the treated and outcome columns: they consume the same uniforms
        dgp = replace(DEFAULT_DGP, treat_slope=0.0, out_severity=0.0)
        on = generate_cohort(ScenarioConfig(n_total=600, seed=13, dgp=dgp))
        unbiased = replace(dgp, err_group_shift=0.0, err_group_slope=0.0)
        off = generate_cohort(ScenarioConfig(n_total=600, seed=13, dgp=unbiased))
        assert on.treated == off.treated
        assert on.outcome == off.outcome
        assert any(a != b for a, b in zip(on.w_star, off.w_star))

    def test_group_shares_follow_probability(self):
        cohort = generate_cohort(ScenarioConfig(n_total=4000, seed=2, p_group1=0.2))
        share = sum(cohort.group_a) / len(cohort)
        assert share == pytest.approx(0.2, abs=0.025)

    def test_record_consistency(self):
        cohort = generate_cohort(ScenarioConfig(n_total=800, seed=21))
        for r in records_of(cohort):
            assert 70.0 <= r.w_true <= 100.0
            assert 0.0 <= r.w_star <= 100.0
            assert r.group_a in (0, 1) and r.treated in (0, 1) and r.outcome in (0, 1)
            assert r.w_star == min(max(r.w_true + r.epsilon, 0.0), 100.0)

    def test_differential_means_ordered_across_seeds(self):
        # sample mean of the error: group 1 above group 0 above zero
        for seed in range(1, 21):
            cohort = generate_cohort(ScenarioConfig(seed=seed, n_total=2500))
            eps1 = [e for e, a in zip(cohort.epsilon, cohort.group_a) if a == 1]
            eps0 = [e for e, a in zip(cohort.epsilon, cohort.group_a) if a == 0]
            m1, m0 = sum(eps1) / len(eps1), sum(eps0) / len(eps0)
            assert m1 > m0 > 0.0

    def test_clamping_is_rare(self):
        clamped = total = 0
        for seed in range(1, 13):
            cohort = generate_cohort(ScenarioConfig(seed=seed))
            raw = [w + e for w, e in zip(cohort.w_true, cohort.epsilon)]
            assert cohort.w_star == [min(max(r, 0.0), 100.0) for r in raw]
            clamped += sum(not 0.0 <= r <= 100.0 for r in raw)
            total += len(cohort)
        assert clamped / total < 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_cohort(ScenarioConfig(n_total=1))
        with pytest.raises(ValueError):
            generate_cohort(ScenarioConfig(p_group1=0.0))
        with pytest.raises(ValueError):
            generate_cohort(ScenarioConfig(p_group1=1.0))
        with pytest.raises(ValueError):
            generate_cohort(ScenarioConfig(treatment_mode="manual"))
        with pytest.raises(ValueError):
            DgpParams(err_noise_sd=0.0)
        with pytest.raises(ValueError):
            DgpParams(w_hypox=93.0, w_treat=92.0)


@pytest.mark.parametrize("w_hypox", (60.0, 70.0, 100.0))
def test_audit_w_hypox_keeps_the_dgp_window(w_hypox):
    # One rule for both configs: a threshold outside the saturation window
    # would leave the audit's hypoxemic stratum empty or whole.
    message = re.escape(f"w_hypox={w_hypox!r} outside (70.0, 100.0)")
    for config_type in (DgpParams, AuditConfig):
        with pytest.raises(ValueError, match=message):
            config_type(w_hypox=w_hypox)


@pytest.mark.parametrize("config_type", (DgpParams, AuditConfig))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_every_float_field_must_be_finite(config_type, bad):
    names = [f.name for f in fields(config_type) if "float" in str(f.type)]
    assert len(names) >= 7
    for name in names:
        with pytest.raises(ValueError, match=name):
            config_type(**{name: bad})


@pytest.mark.parametrize(
    "params",
    (
        {"err_noise_sd": 1e308},
        {"err_group_slope": 1e307},
        {"err_base": 1e308, "err_group_shift": -1e308},
    ),
)
def test_measurement_error_bound_must_be_finite(params):
    with pytest.raises(ValueError, match=r"measurement error bound .* is not finite"):
        DgpParams(**params)


def test_largest_finite_error_bound_round_trips(tmp_path):
    # 8.3 * 2e307 is finite, so every error of the cohort is, and its file reads back.
    dgp = DgpParams(err_noise_sd=2e307)
    cohort = generate_cohort(ScenarioConfig(n_total=50, seed=3, dgp=dgp))
    path = tmp_path / "c.csv"
    write_cohort_csv(cohort, path)
    assert read_cohort_csv(path).gold
    assert max(map(abs, cohort.epsilon)) > 1e307


def _expit(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestOracleTau:
    def test_no_benefit_means_zero(self):
        params = replace(DEFAULT_DGP, out_benefit=0.0)
        cohort = generate_cohort(ScenarioConfig(n_total=300, seed=3, dgp=params))
        assert oracle_tau(params, cohort) == 0.0

    def test_single_patient_closed_form(self):
        params = replace(DEFAULT_DGP, out_intercept=-3.0, out_severity=0.3, out_benefit=1.0)
        cohort = generate_cohort(ScenarioConfig(n_total=2, seed=1, dgp=params))
        patient = cohort_of([replace(records_of(cohort)[0], w_true=84.0)])
        # severity 0.3 * (88 - 84): sigmoid(-1.8) - sigmoid(-2.8) ~ 0.0846
        expected = _expit(-1.8) - _expit(-2.8)
        assert oracle_tau(params, patient) == pytest.approx(expected, rel=0, abs=1e-15)

    def test_mean_over_the_hypoxemic_stratum(self):
        cohort = generate_cohort(ScenarioConfig(seed=1))
        p = DEFAULT_DGP
        stratum = [w for w in cohort.w_true if w < p.w_hypox]
        assert 0 < len(stratum) < len(cohort)
        diffs = [
            _expit(p.out_intercept + p.out_severity * (p.w_hypox - w))
            - _expit(p.out_intercept + p.out_severity * (p.w_hypox - w) - p.out_benefit)
            for w in stratum
        ]
        tau = oracle_tau(p, cohort)
        assert tau == pytest.approx(math.fsum(diffs) / len(diffs), rel=1e-12)
        assert tau == pytest.approx(0.03139, abs=5e-6)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_within_one_ulp_of_the_exact_mean(self, seed):
        # Builtin sum is compensated only from CPython 3.12 on.
        p = DEFAULT_DGP
        cohort = generate_cohort(ScenarioConfig(seed=seed))
        stratum = [w for w in cohort.w_true if w < p.w_hypox]
        untreated = outcome_risks(stratum, [0] * len(stratum), p)
        treated = outcome_risks(stratum, [1] * len(stratum), p)
        diffs = [u - t for u, t in zip(untreated, treated)]
        exact = float(sum(map(Fraction, diffs)) / len(diffs))
        assert abs(oracle_tau(p, cohort) - exact) <= math.ulp(exact)

    def test_default_effect_in_documented_band(self):
        cohort = generate_cohort(ScenarioConfig(seed=1))
        tau = oracle_tau(DEFAULT_DGP, cohort)
        assert 0.025 <= tau <= 0.035

    def test_validation(self):
        cohort = generate_cohort(ScenarioConfig(n_total=10, seed=1))
        with pytest.raises(ValueError):
            oracle_tau(DEFAULT_DGP, cohort_of([]))
        with pytest.raises(ValueError, match="true saturations"):
            oracle_tau(DEFAULT_DGP, gold_free(cohort))
        healthy = cohort_of([replace(records_of(cohort)[0], w_true=95.0)])
        with pytest.raises(ValueError, match="hypoxemic"):
            oracle_tau(DEFAULT_DGP, healthy)

    def test_gold_is_the_rule(self):
        # The audit's rule: every patient has both w_true and epsilon.
        cohort = generate_cohort(ScenarioConfig(n_total=300, seed=3))
        one_blank = replace(cohort, epsilon=[None, *cohort.epsilon[1:]])
        assert None not in one_blank.w_true and not one_blank.gold
        for no_gold in (one_blank, cohort_of([])):
            with pytest.raises(ValueError, match="true saturations for every patient"):
                oracle_tau(DEFAULT_DGP, no_gold)
