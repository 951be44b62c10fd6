"""Equity metrics: thresholds, contrasts, flags, and the full audit."""

import json
import math
from dataclasses import replace

import pytest

from oxequity.cohort import (
    DEFAULT_DGP,
    ScenarioConfig,
    generate_cohort,
    oracle_tau,
)
from oxequity.metrics import (
    METRIC_ORDER,
    AuditConfig,
    UntestableMetricError,
    detection_threshold,
    equality_of_opportunity_test,
    estimate_tau,
    group_auc_comparison,
    information_bias_test,
    observed_outcome_gap,
    representativeness_check,
    run_full_audit,
    systemic_bias_tests,
    treatment_disparity_test,
    treatment_gap_and_outcome_decomposition,
)
from oxequity.reports import report_to_json

from oracles import Record, cohort_of, gold_free, records_of, scenario_configs_oracle

I_STAR_DEFAULT = 7.84887973435  # (z_{0.975} + z_{0.80})^2 at delta = 1


def record(
    pid,
    group,
    w_true=90.0,
    w_star=None,
    epsilon=0.0,
    treated=0,
    outcome=0,
):
    if w_star is None:
        w_star = (w_true if w_true is not None else 90.0) + (epsilon or 0.0)
    return Record(
        patient_id=pid,
        group_a=group,
        w_true=w_true,
        w_star=w_star,
        epsilon=epsilon,
        treated=treated,
        outcome=outcome,
    )


@pytest.fixture(scope="module")
def both_cohort():
    return generate_cohort(ScenarioConfig(seed=1))


@pytest.fixture(scope="module")
def audit_config():
    return AuditConfig()


class TestDetectionThreshold:
    def test_default_constant(self):
        assert detection_threshold(AuditConfig()) == pytest.approx(
            I_STAR_DEFAULT, abs=1e-6
        )
        # two decimal places of the published rounding
        assert detection_threshold(AuditConfig()) == pytest.approx(7.849, abs=0.01)

    def test_scales_inversely_with_delta_squared(self):
        base = detection_threshold(AuditConfig())
        assert detection_threshold(AuditConfig(delta=2.0)) == pytest.approx(
            base / 4.0, rel=1e-12
        )

    def test_power_half_reduces_to_squared_quantile(self):
        value = detection_threshold(AuditConfig(power=0.5))
        assert value == pytest.approx(1.9599639845400542**2, abs=1e-9)

    def test_monotone_in_power_and_delta(self):
        assert detection_threshold(AuditConfig(power=0.9)) > detection_threshold(
            AuditConfig(power=0.8)
        )
        assert detection_threshold(AuditConfig(delta=0.5)) > detection_threshold(
            AuditConfig(delta=1.0)
        )

    def test_threshold_outside_float_range_is_untestable(self):
        tiny = detection_threshold(AuditConfig(delta=1e150))
        assert tiny == pytest.approx(I_STAR_DEFAULT * 1e-300)
        for delta in (1e-200, 1e-160, 1e200):
            with pytest.raises(UntestableMetricError, match="outside the float range"):
                detection_threshold(AuditConfig(delta=delta))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            detection_threshold(AuditConfig(alpha=0.0))
        with pytest.raises(ValueError):
            detection_threshold(AuditConfig(delta=-1.0))
        with pytest.raises(ValueError):
            detection_threshold(AuditConfig(flag_level=1.0))

    def test_invalid_config_cannot_be_built(self):
        # Each of these once reached a metric called directly: a flag level
        # of 2 flagged a null contrast, and a bin width of 0 divided by zero.
        with pytest.raises(ValueError, match=r"flag_level must lie in \(0, 1\), got 2.0"):
            AuditConfig(flag_level=2.0)
        with pytest.raises(ValueError, match="wstar_bin_width must be positive, got 0.0"):
            AuditConfig(wstar_bin_width=0.0)


class TestRepresentativeness:
    def test_default_cohort_passes(self, both_cohort, audit_config):
        result = representativeness_check(both_cohort, audit_config)
        assert not result.flagged
        assert result.group_values[0] > I_STAR_DEFAULT
        assert result.group_values[1] > I_STAR_DEFAULT
        assert result.contrast == pytest.approx(
            min(result.group_values.values()) - I_STAR_DEFAULT, abs=1e-9
        )

    def test_information_formula(self, both_cohort, audit_config):
        result = representativeness_check(both_cohort, audit_config)
        eps1 = [e for e, a in zip(both_cohort.epsilon, both_cohort.group_a) if a == 1]
        mean = sum(eps1) / len(eps1)
        var = sum((e - mean) ** 2 for e in eps1) / (len(eps1) - 1)
        assert result.group_values[1] == pytest.approx(len(eps1) / var, rel=1e-12)

    def test_tiny_group_information_fails(self, audit_config):
        # group 1: four records with error variance 100 -> I = 0.04
        records = [record(i, 0, epsilon=float(i % 7)) for i in range(40)]
        records += [
            record(100, 1, epsilon=0.0),
            record(101, 1, epsilon=10.0),
            record(102, 1, epsilon=20.0),
            record(103, 1, epsilon=30.0),
        ]
        result = representativeness_check(cohort_of(records), audit_config)
        assert result.group_values[1] < 1.0
        assert result.flagged

    def test_ppr_reported_when_target_known(self, both_cohort):
        share1 = sum(both_cohort.group_a) / len(both_cohort)
        config = AuditConfig(target_prevalence=share1)
        result = representativeness_check(both_cohort, config)
        assert result.extras["ppr_group1"] == pytest.approx(1.0, abs=1e-12)
        assert result.extras["ppr_group0"] == pytest.approx(1.0, abs=1e-12)

    def test_requires_gold_standard(self, both_cohort, audit_config):
        with pytest.raises(UntestableMetricError):
            representativeness_check(gold_free(both_cohort), audit_config)

    def test_zero_error_variance_untestable(self, audit_config):
        # group 0 reads every error exactly: its information is unbounded
        records = [record(i, 0, epsilon=1.5) for i in range(10)]
        records += [record(10 + i, 1, epsilon=float(i % 3)) for i in range(10)]
        with pytest.raises(UntestableMetricError, match="variance in group 0"):
            representativeness_check(cohort_of(records), audit_config)


class TestInformationBias:
    def test_flagged_with_measurement_bias(self, both_cohort, audit_config):
        result = information_bias_test(both_cohort, audit_config)
        assert result.flagged
        assert result.test.p_value < 1e-15
        assert result.group_values[1] > result.group_values[0] > 0.0
        assert result.extras["both_means_positive"] == 1.0

    def test_identical_samples_not_flagged(self, audit_config):
        records = [record(i, 0, epsilon=e) for i, e in enumerate((1.0, 2.0, 3.0))]
        records += [record(10 + i, 1, epsilon=e) for i, e in enumerate((1.0, 2.0, 3.0))]
        result = information_bias_test(cohort_of(records), audit_config)
        assert result.test.p_value == 0.5
        assert not result.flagged
        assert result.contrast == 0.0

    def test_usually_unflagged_without_measurement_bias(self, audit_config):
        flags = 0
        for seed in range(1, 11):
            cohort = generate_cohort(
                scenario_configs_oracle(ScenarioConfig(seed=seed))["systemic_only"]
            )
            if information_bias_test(cohort, audit_config).flagged:
                flags += 1
        assert flags <= 1


class TestTreatmentDisparity:
    def test_flagged_under_both_biases(self, both_cohort, audit_config):
        result = treatment_disparity_test(both_cohort, audit_config)
        assert result.flagged
        assert result.group_values[1] < result.group_values[0]
        assert result.contrast < 0.0

    def test_equal_rates_neutral(self, audit_config):
        records = []
        pid = 0
        for group in (0, 1):
            for treated in (1, 1, 1, 0):
                records.append(record(pid, group, w_true=85.0, treated=treated))
                pid += 1
        result = treatment_disparity_test(cohort_of(records), audit_config)
        assert result.test.p_value == 0.5
        assert not result.flagged

    def test_empty_stratum_untestable(self, audit_config):
        records = [record(0, 0, w_true=85.0), record(1, 1, w_true=95.0)]
        with pytest.raises(UntestableMetricError):
            treatment_disparity_test(cohort_of(records), audit_config)


class TestEqualityOfOpportunity:
    def test_flagged_under_both_biases(self, both_cohort, audit_config):
        result = equality_of_opportunity_test(both_cohort, audit_config)
        assert result.flagged
        assert result.group_values[1] < 0.0 < result.group_values[0]

    def test_weighted_deviations_sum_to_zero(self, both_cohort, audit_config):
        result = equality_of_opportunity_test(both_cohort, audit_config)
        rows = records_of(both_cohort)
        n0 = sum(1 for r in rows if r.group_a == 0 and r.w_true < 88.0)
        n1 = sum(1 for r in rows if r.group_a == 1 and r.w_true < 88.0)
        total = n0 * result.group_values[0] + n1 * result.group_values[1]
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_identical_rates_give_zero_statistic(self, audit_config):
        records = []
        pid = 0
        for group in (0, 1):
            for treated in (1, 1, 0, 0):
                records.append(record(pid, group, w_true=84.0, treated=treated))
                pid += 1
        result = equality_of_opportunity_test(cohort_of(records), audit_config)
        assert result.test.statistic == 0.0
        assert result.test.p_value == 1.0
        assert result.group_values == {0: 0.0, 1: 0.0}

    def test_all_treated_untestable(self, audit_config):
        records = [record(i, i % 2, w_true=84.0, treated=1) for i in range(8)]
        with pytest.raises(UntestableMetricError):
            equality_of_opportunity_test(cohort_of(records), audit_config)


class TestTau:
    def test_no_effect_estimates_near_zero(self, audit_config):
        dgp = replace(DEFAULT_DGP, out_benefit=0.0)
        cohort = generate_cohort(ScenarioConfig(seed=4, n_total=20000, dgp=dgp))
        assert abs(estimate_tau(cohort, audit_config)) < 0.03

    def test_tracks_oracle_within_three_binomial_ses(self, audit_config):
        hits = 0
        for seed in range(1, 31):
            cohort = generate_cohort(ScenarioConfig(seed=seed))
            tau_hat = estimate_tau(cohort, audit_config)
            tau_true = oracle_tau(DEFAULT_DGP, cohort)
            stratum = [r for r in records_of(cohort) if r.w_true < 88.0]
            treated = [r for r in stratum if r.treated == 1]
            untreated = [r for r in stratum if r.treated == 0]
            pooled = sum(r.outcome for r in stratum) / len(stratum)
            se = math.sqrt(
                pooled * (1 - pooled) * (1 / len(treated) + 1 / len(untreated))
            )
            if abs(tau_hat - tau_true) <= 3.0 * se:
                hits += 1
        assert hits >= 28

    def test_one_sided_stratum_untestable(self, audit_config):
        records = [record(i, i % 2, w_true=84.0, treated=1) for i in range(8)]
        with pytest.raises(UntestableMetricError):
            estimate_tau(cohort_of(records), audit_config)


def _stratum_cohort(hypoxemic, other):
    """Hypoxemic (w_true 84) then other (w_true 95) patients, each given as
    (group, treated, outcome)."""
    rows = [(84.0, *row) for row in hypoxemic] + [(95.0, *row) for row in other]
    return cohort_of(
        [
            record(pid, group, w_true=w, treated=treated, outcome=outcome)
            for pid, (w, group, treated, outcome) in enumerate(rows)
        ]
    )


class TestGapAndDecomposition:
    def test_decomposition_identity(self, both_cohort, audit_config):
        tau = estimate_tau(both_cohort, audit_config)
        gap, decomposition = treatment_gap_and_outcome_decomposition(
            both_cohort, audit_config
        )
        assert decomposition.contrast == pytest.approx(
            tau * gap.contrast, abs=1e-12
        )
        assert decomposition.extras == {"tau": tau, "treatment_gap": gap.contrast}
        assert decomposition.flagged == gap.flagged
        assert decomposition.test is None

    def test_zero_tau_gives_zero_disparity(self, audit_config):
        # treated and untreated hypoxemic patients share one outcome rate, 1/3
        hypoxemic = [(0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 1, 0), (1, 0, 0)]
        cohort = _stratum_cohort(hypoxemic, [(0, 1, 0)] * 4 + [(1, 0, 0)] * 4)
        assert estimate_tau(cohort, audit_config) == 0.0
        gap, decomposition = treatment_gap_and_outcome_decomposition(
            cohort, audit_config
        )
        assert gap.status == decomposition.status == "ok"
        assert gap.contrast != 0.0
        assert decomposition.contrast == 0.0
        assert decomposition.flagged == gap.flagged

    def test_missing_tau_marks_untestable(self, audit_config):
        # every hypoxemic patient is treated, so tau has no untreated arm
        hypoxemic = [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
        cohort = _stratum_cohort(hypoxemic, [(0, 0, 0), (0, 1, 0), (1, 0, 0)])
        gap, decomposition = treatment_gap_and_outcome_decomposition(
            cohort, audit_config
        )
        assert gap.status == "ok"
        assert decomposition.status == (
            "untestable: hypoxemic stratum lacks treated or untreated patients"
        )
        assert decomposition.contrast is None
        assert not decomposition.flagged

    def test_gap_direction_under_systemic_bias(self, both_cohort, audit_config):
        gap, _ = treatment_gap_and_outcome_decomposition(both_cohort, audit_config)
        assert gap.contrast > 0.0  # group 1 treated less
        assert gap.flagged

    def test_status_precedence_gold_then_gap_then_tau(self, audit_config):
        # all treated: the gap's margin is degenerate and tau has no untreated arm
        cohort = _stratum_cohort([(0, 1, 0), (1, 1, 1)], [(0, 1, 0), (1, 1, 0)])
        with pytest.raises(UntestableMetricError):
            estimate_tau(cohort, audit_config)
        gap, decomposition = treatment_gap_and_outcome_decomposition(
            gold_free(cohort), audit_config
        )
        assert gap.status.startswith("untestable: degenerate treatment margin")
        assert decomposition.status == "skipped: no gold standard"
        gap_gold, decomposition = treatment_gap_and_outcome_decomposition(
            cohort, audit_config
        )
        assert gap_gold.status == gap.status
        assert decomposition.status == gap.status
        assert not decomposition.flagged


class TestObservedOutcomeGap:
    def test_identical_rates(self, audit_config):
        records = []
        pid = 0
        for group in (0, 1):
            for outcome in (1, 0, 0, 0):
                records.append(record(pid, group, outcome=outcome, treated=1))
                pid += 1
        result = observed_outcome_gap(cohort_of(records), audit_config)
        assert result.contrast == 0.0
        assert result.test.p_value == 1.0

    def test_direction_is_group1_minus_group0(self, audit_config):
        records = [record(i, 0, outcome=0) for i in range(10)]
        records += [record(20 + i, 1, outcome=1) for i in range(10)]
        result = observed_outcome_gap(cohort_of(records), audit_config)
        assert result.contrast == pytest.approx(1.0)


class TestSystemicBias:
    def test_flagged_when_systemic_bias_on(self, both_cohort, audit_config):
        logistic, cmh = systemic_bias_tests(both_cohort, audit_config)
        assert logistic.flagged and cmh.flagged
        assert logistic.contrast < -0.3  # group penalty recovered
        # the reading coefficient is weak by design; just confirm it is near truth
        assert abs(logistic.extras["beta_wstar"] + 0.03) < 0.1

    def test_null_when_treatment_ignores_group(self, audit_config):
        flags = 0
        for seed in range(1, 11):
            cohort = generate_cohort(scenario_configs_oracle(ScenarioConfig(seed=seed))["none"])
            logistic, cmh = systemic_bias_tests(cohort, audit_config)
            flags += logistic.flagged + cmh.flagged
        assert flags <= 1

    def test_measurement_only_is_conditionally_null(self, audit_config):
        # treatment depends on the measured value alone, so conditioning
        # on it removes every group association even with biased readings
        betas = []
        for seed in range(1, 9):
            cohort = generate_cohort(
                scenario_configs_oracle(ScenarioConfig(seed=seed))["measurement_only"]
            )
            logistic, _ = systemic_bias_tests(cohort, audit_config)
            betas.append(logistic.contrast)
        assert max(abs(b) for b in betas) < 0.45
        assert sum(abs(b) for b in betas) / len(betas) < 0.2

    def test_separation_falls_back_to_cmh(self, audit_config):
        records = []
        for i in range(60):
            group = i % 2
            records.append(
                record(i, group, w_true=90.0 + (i % 7) * 0.5, treated=group)
            )
        logistic, cmh = systemic_bias_tests(cohort_of(records), audit_config)
        assert logistic.status.startswith("non-converged")
        assert not logistic.flagged
        assert cmh.status == "ok"
        assert cmh.flagged

    def test_single_reading_untestable(self, audit_config):
        records = [record(i, i % 2, w_star=90.0) for i in range(10)]
        with pytest.raises(UntestableMetricError):
            systemic_bias_tests(cohort_of(records), audit_config)


    def test_collinear_design_leaves_cmh_standing(self, audit_config):
        # W* is 90 in group 0 and 93 in group 1: the logistic design is
        # collinear while each bin still holds one group only.
        records = [
            record(i, int(i >= 20), w_true=90.0 + 3.0 * (i >= 20), treated=i % 2)
            for i in range(40)
        ]
        logistic, cmh = systemic_bias_tests(cohort_of(records), audit_config)
        assert logistic.status.startswith("untestable: singular")
        assert cmh.status.startswith("untestable: CMH strata degenerate")
        assert not logistic.flagged and not cmh.flagged

    def test_degenerate_strata_keep_logistic_result(self, audit_config):
        # Groups occupy disjoint W* bins, so every CMH stratum is degenerate,
        # but W* varies within each group and the logistic fit is valid.
        records = []
        for i in range(80):
            group = int(i >= 40)
            w = 86.0 + (i % 5) + 6.0 * group
            records.append(record(i, group, w_true=w, treated=int(i % 3 == 0)))
        logistic, cmh = systemic_bias_tests(cohort_of(records), audit_config)
        assert logistic.status == "ok"
        assert math.isfinite(logistic.contrast)
        assert math.isfinite(logistic.test.p_value)
        assert cmh.status.startswith("untestable: CMH strata degenerate")


class TestGroupAuc:
    def test_identity_measurement_gives_equal_areas(self, audit_config):
        dgp = replace(
            DEFAULT_DGP, err_base=0.0, err_noise_sd=1e-9, err_group_shift=0.0, err_group_slope=0.0
        )
        cohort = generate_cohort(ScenarioConfig(seed=6, dgp=dgp))
        result = group_auc_comparison(cohort, audit_config)
        assert abs(result.contrast) < 0.01
        assert not result.flagged
        assert result.group_values[0] > 0.95  # near-perfect discrimination

    def test_measurement_bias_degrades_group1_area(self, audit_config):
        for seed in (1, 2, 3, 4, 5):
            cohort = generate_cohort(ScenarioConfig(seed=seed))
            result = group_auc_comparison(cohort, audit_config)
            assert result.group_values[1] < result.group_values[0]
            assert result.contrast > 0.0

    def test_single_class_group_untestable(self, audit_config):
        records = [record(i, 0, w_true=84.0 + (i % 3)) for i in range(6)]
        records += [record(10 + i, 1, w_true=95.0) for i in range(6)]
        with pytest.raises(UntestableMetricError):
            group_auc_comparison(cohort_of(records), audit_config)


class TestRunFullAudit:
    def test_complete_cohort_yields_all_metrics(self, both_cohort, audit_config):
        report = run_full_audit(both_cohort, audit_config, scenario_label="both")
        assert [m.metric_name for m in report.metrics] == list(METRIC_ORDER)
        assert all(m.status == "ok" for m in report.metrics)
        assert report.cohort_summary["n_group0"] + report.cohort_summary[
            "n_group1"
        ] == len(both_cohort)
        assert 0.0 < report.cohort_summary["hypoxemia_rate_group1"] < 1.0

    def test_gold_free_cohort_skips_measurement_metrics(
        self, both_cohort, audit_config
    ):
        stripped = gold_free(both_cohort)
        assert not stripped.gold
        report = run_full_audit(stripped, audit_config)
        by_name = {m.metric_name: m for m in report.metrics}
        skipped = {
            name for name, m in by_name.items() if m.status == "skipped: no gold standard"
        }
        assert skipped == {
            "representativeness",
            "information_bias",
            "treatment_disparity",
            "equality_of_opportunity",
            "outcome_decomposition",
            "group_auc",
        }
        for name in (
            "treatment_gap",
            "observed_outcome_gap",
            "systemic_bias_logistic",
            "systemic_bias_cmh",
        ):
            assert by_name[name].status == "ok"
        assert report.cohort_summary["hypoxemia_rate_group0"] is None

    def test_flag_coherence(self, audit_config):
        for seed, label in (
            (1, "both"),
            (2, "measurement_only"),
            (3, "systemic_only"),
            (4, "none"),
        ):
            cohort = generate_cohort(scenario_configs_oracle(ScenarioConfig(seed=seed))[label])
            report = run_full_audit(cohort, audit_config)
            by_name = {m.metric_name: m for m in report.metrics}
            for m in report.metrics:
                if m.metric_name in ("representativeness", "outcome_decomposition"):
                    continue
                if m.test is not None and m.status == "ok":
                    assert m.flagged == (m.test.p_value < audit_config.flag_level)
                else:
                    assert not m.flagged
            assert (
                by_name["outcome_decomposition"].flagged
                == by_name["treatment_gap"].flagged
            )

    def test_group_relabeling_negates_contrasts(self, both_cohort, audit_config):
        flipped = replace(both_cohort, group_a=[1 - a for a in both_cohort.group_a])
        base = run_full_audit(both_cohort, audit_config)
        mirrored = run_full_audit(flipped, audit_config)
        base_by = {m.metric_name: m for m in base.metrics}
        flip_by = {m.metric_name: m for m in mirrored.metrics}
        two_sided = (
            "equality_of_opportunity",
            "treatment_gap",
            "observed_outcome_gap",
            "systemic_bias_logistic",
            "systemic_bias_cmh",
            "group_auc",
        )
        for name in two_sided:
            b, f = base_by[name], flip_by[name]
            if b.contrast is not None:
                assert f.contrast == pytest.approx(-b.contrast, rel=1e-6, abs=1e-9)
            assert f.test.p_value == pytest.approx(b.test.p_value, rel=1e-6)
        # group values swap on relabeling
        assert flip_by["information_bias"].group_values[0] == pytest.approx(
            base_by["information_bias"].group_values[1]
        )

    def test_empty_cohort_rejected(self, audit_config):
        with pytest.raises(ValueError):
            run_full_audit(cohort_of([]), audit_config)

    def test_failures_stay_local_and_ok_is_never_nan(self, audit_config):
        # Zero measurement error everywhere (Welch untestable), W* set by
        # group (collinear logistic design), disjoint W* bins (degenerate
        # CMH): each failure must land on its own metric, not escape.
        records = [
            record(i, int(i >= 20), w_true=90.0 + 3.0 * (i >= 20), treated=i % 2,
                   outcome=int(i % 4 == 0))
            for i in range(40)
        ]
        report = run_full_audit(cohort_of(records), audit_config)
        by_name = {m.metric_name: m for m in report.metrics}
        assert [m.metric_name for m in report.metrics] == list(METRIC_ORDER)
        assert by_name["information_bias"].status.startswith("untestable: both samples")
        assert by_name["systemic_bias_logistic"].status.startswith("untestable: singular")
        assert by_name["systemic_bias_cmh"].status.startswith("untestable: CMH")
        assert by_name["treatment_gap"].status == "ok"
        assert by_name["observed_outcome_gap"].status == "ok"
        for m in report.metrics:
            values = [m.contrast, *m.group_values.values(), *m.extras.values()]
            if m.test is not None:
                values += [m.test.statistic, m.test.p_value]
            if m.status == "ok":
                assert not any(isinstance(v, float) and math.isnan(v) for v in values)
            else:
                assert not m.flagged

    @pytest.mark.parametrize("huge", (1e308, -1e308, math.inf, math.nan))
    def test_huge_error_is_local_to_the_error_metrics(self, both_cohort, audit_config, huge):
        # (x - mean) ** 2 overflows for a finite 1e308, and an infinite error
        # has no variance: both error metrics are untestable, and the other
        # eight metrics are what they are without that error.
        epsilon = list(both_cohort.epsilon)
        epsilon[7] = huge
        report = run_full_audit(replace(both_cohort, epsilon=epsilon), audit_config)
        base = run_full_audit(both_cohort, audit_config)
        error_metrics = ("representativeness", "information_bias")
        for m, b in zip(report.metrics, base.metrics):
            if m.metric_name in error_metrics:
                assert m.status == (
                    "untestable: measurement errors too large for a finite variance"
                )
                assert not m.flagged
            else:
                assert m == b
        # strict JSON: a non-finite value would fail here
        assert len(json.loads(report_to_json([report]))["reports"][0]["metrics"]) == 10

    def test_zero_error_variance_report_is_strict_json(self, audit_config):
        # The cohort of the test above: zero error variance in both groups.
        records = [
            record(i, int(i >= 20), w_true=90.0 + 3.0 * (i >= 20), treated=i % 2,
                   outcome=int(i % 4 == 0))
            for i in range(40)
        ]
        report = run_full_audit(cohort_of(records), audit_config)
        by_name = {m.metric_name: m for m in report.metrics}
        assert by_name["representativeness"].status == (
            "untestable: zero measurement-error variance in group 0"
        )

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(report_to_json([report]), parse_constant=reject)
        assert [m["metric_name"] for m in payload["reports"][0]["metrics"]] == list(
            METRIC_ORDER
        )

    @pytest.mark.parametrize(
        ("config", "metric", "status"),
        (
            # w_star / 1e-320 is infinite, and math.floor of it raises
            (
                AuditConfig(wstar_bin_width=1e-320),
                "systemic_bias_cmh",
                "untestable: CMH bin width 1e-320 is too small for finite bins",
            ),
            # delta**2 underflows to 0 (ZeroDivisionError), overflows
            # (OverflowError), or is subnormal and the threshold infinite
            (
                AuditConfig(delta=1e-200),
                "representativeness",
                "untestable: delta 1e-200 puts the detection threshold outside the float range",
            ),
            (
                AuditConfig(delta=1e200),
                "representativeness",
                "untestable: delta 1e+200 puts the detection threshold outside the float range",
            ),
            (
                AuditConfig(delta=1e-160),
                "representativeness",
                "untestable: delta 1e-160 puts the detection threshold outside the float range",
            ),
        ),
        ids=("tiny-bin-width", "delta-squared-zero", "delta-squared-overflow", "delta-subnormal"),
    )
    def test_extreme_config_is_local_to_its_metric(self, config, metric, status):
        cohort = generate_cohort(ScenarioConfig(n_total=300, seed=3))
        report = run_full_audit(cohort, config)
        base = run_full_audit(cohort, AuditConfig())
        for m, b in zip(report.metrics, base.metrics):
            if m.metric_name == metric:
                assert (m.status, m.flagged) == (status, False)
            else:
                assert m == b
        assert len(json.loads(report_to_json([report]))["reports"][0]["metrics"]) == 10

    def test_single_group_rejected(self, audit_config):
        records = [record(i, 0) for i in range(10)]
        with pytest.raises(UntestableMetricError):
            run_full_audit(cohort_of(records), audit_config)
