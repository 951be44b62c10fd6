"""Equity metrics over a cohort, and the full audit that orchestrates them.

Each metric evaluates one population contrast between the two groups and
wraps the result with its test, flag state, and a fixed interpretation
string.  The full audit runs the outcome-facing checks first (they need
only observed data) and the measurement-facing checks after, because the
latter require gold-standard true saturations; on cohorts without a gold
standard those metrics are emitted with a skipped status rather than
dropped, so report shapes stay stable.

All functions are pure; independent metrics may be evaluated
concurrently, and the report order is fixed regardless of evaluation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .cohort import PatientRecord
from .stats import (
    TWO_SIDED,
    SingularDesignError,
    TestResult,
    auc_mann_whitney,
    chi_square_independence,
    cmh_conditional_independence,
    fit_logistic_irls,
    hanley_mcneil_se,
    normal_cdf,
    normal_quantile,
    two_proportion_one_sided,
    welch_t_one_sided,
)
from .stats.hypotests import _mean, _sample_variance

__all__ = [
    "AuditConfig",
    "EquityReport",
    "MetricResult",
    "UntestableMetricError",
    "METRIC_ORDER",
    "detection_threshold",
    "equality_of_opportunity_test",
    "estimate_tau",
    "group_auc_comparison",
    "has_gold_standard",
    "information_bias_test",
    "observed_outcome_gap",
    "representativeness_check",
    "run_full_audit",
    "systemic_bias_tests",
    "treatment_disparity_test",
    "treatment_gap_and_outcome_decomposition",
]


class UntestableMetricError(ValueError):
    """A metric's preconditions fail on this cohort (empty stratum, no gold)."""


@dataclass(frozen=True, slots=True)
class AuditConfig:
    """Audit-side knobs: test levels, thresholds, and binning."""

    alpha: float = 0.05
    power: float = 0.80
    delta: float = 1.0
    flag_level: float = 0.01
    w_hypox: float = 88.0
    w_treat: float = 92.0
    target_prevalence: float | None = None
    wstar_bin_width: float = 1.0

    def validate(self) -> None:
        for name in ("alpha", "power", "flag_level"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if self.wstar_bin_width <= 0.0:
            raise ValueError(
                f"wstar_bin_width must be positive, got {self.wstar_bin_width!r}"
            )
        if self.target_prevalence is not None and not 0.0 < self.target_prevalence < 1.0:
            raise ValueError(
                f"target_prevalence must lie in (0, 1), got {self.target_prevalence!r}"
            )


@dataclass(slots=True)
class MetricResult:
    """One evaluated metric: per-group values, contrast, test, flag state."""

    metric_name: str
    group_values: dict[int, float]
    contrast: float | None
    test: TestResult | None
    flagged: bool
    interpretation: str
    status: str = "ok"
    extras: dict[str, float] = field(default_factory=dict)


@dataclass(slots=True)
class EquityReport:
    """Ordered metric results for one cohort or scenario."""

    scenario_label: str
    metrics: list[MetricResult]
    cohort_summary: dict[str, float | int | None]


REPRESENTATIVENESS = "representativeness"
INFORMATION_BIAS = "information_bias"
TREATMENT_DISPARITY = "treatment_disparity"
EQUALITY_OF_OPPORTUNITY = "equality_of_opportunity"
TREATMENT_GAP = "treatment_gap"
OUTCOME_DECOMPOSITION = "outcome_decomposition"
OBSERVED_OUTCOME_GAP = "observed_outcome_gap"
SYSTEMIC_BIAS_LOGISTIC = "systemic_bias_logistic"
SYSTEMIC_BIAS_CMH = "systemic_bias_cmh"
GROUP_AUC = "group_auc"

METRIC_ORDER = (
    REPRESENTATIVENESS,
    INFORMATION_BIAS,
    TREATMENT_DISPARITY,
    EQUALITY_OF_OPPORTUNITY,
    TREATMENT_GAP,
    OUTCOME_DECOMPOSITION,
    OBSERVED_OUTCOME_GAP,
    SYSTEMIC_BIAS_LOGISTIC,
    SYSTEMIC_BIAS_CMH,
    GROUP_AUC,
)

INTERPRETATIONS = {
    REPRESENTATIVENESS: (
        "Per-group Fisher information for the mean measurement error; "
        "flagged when any group falls below the detection threshold."
    ),
    INFORMATION_BIAS: (
        "Mean measurement error by group; flagged when the group-1 mean "
        "significantly exceeds the group-0 mean."
    ),
    TREATMENT_DISPARITY: (
        "Treatment rates among truly hypoxemic patients; flagged when "
        "group 1 is treated at a significantly lower rate."
    ),
    EQUALITY_OF_OPPORTUNITY: (
        "Deviation of each group's hypoxemic treatment rate from the "
        "marginal rate; flagged when treatment depends on group membership."
    ),
    TREATMENT_GAP: (
        "Difference in overall treatment probability between groups; "
        "flagged when the rates differ significantly."
    ),
    OUTCOME_DECOMPOSITION: (
        "Excess adverse-outcome risk for group 1 attributable to the "
        "treatment gap; significant only when the gap itself is."
    ),
    OBSERVED_OUTCOME_GAP: (
        "Observed adverse-outcome disparity between groups; flagged when "
        "outcome rates differ significantly."
    ),
    SYSTEMIC_BIAS_LOGISTIC: (
        "Group coefficient from a logistic model of treatment on measured "
        "saturation and group; flagged when treatment depends on group "
        "even at equal measured values."
    ),
    SYSTEMIC_BIAS_CMH: (
        "Stratified association between treatment and group within "
        "measured-saturation bins; flagged when it persists across bins."
    ),
    GROUP_AUC: (
        "Per-group discrimination of the measured saturation for true "
        "hypoxemia; flagged when the group areas differ significantly."
    ),
}

_SKIPPED_NO_GOLD = "skipped: no gold standard"


def has_gold_standard(cohort: Sequence[PatientRecord]) -> bool:
    """True when every record carries true saturation and measurement error."""
    return bool(cohort) and all(
        r.w_true is not None and r.epsilon is not None for r in cohort
    )


def _split_groups(
    cohort: Sequence[PatientRecord],
) -> tuple[list[PatientRecord], list[PatientRecord]]:
    g0 = [r for r in cohort if r.group_a == 0]
    g1 = [r for r in cohort if r.group_a == 1]
    if not g0 or not g1:
        raise UntestableMetricError("cohort must contain patients from both groups")
    return g0, g1


def _require_gold(cohort: Sequence[PatientRecord], metric: str) -> None:
    if not has_gold_standard(cohort):
        raise UntestableMetricError(
            f"{metric} needs gold-standard saturations; the full audit skips "
            "measurement metrics on gold-free cohorts"
        )


def _flagged(test: TestResult, config: AuditConfig) -> bool:
    return test.p_value < config.flag_level


def detection_threshold(config: AuditConfig) -> float:
    """Minimum per-group information needed to detect the target contrast.

    Inverts a two-sided power analysis at the configured size and power
    for the minimum clinically meaningful difference ``delta``.
    """
    config.validate()
    z_half_alpha = normal_quantile(1.0 - config.alpha / 2.0)
    z_power = normal_quantile(config.power)
    return (z_half_alpha + z_power) ** 2 / config.delta**2


def representativeness_check(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> MetricResult:
    """Per-group Fisher information n_a / s_a^2 against the detection threshold.

    Flagged means failure: some group carries too little information to
    detect the configured error contrast.  When ``target_prevalence`` is
    set, participation-to-prevalence ratios are reported alongside.
    """
    _require_gold(cohort, REPRESENTATIVENESS)
    g0, g1 = _split_groups(cohort)
    if len(g0) < 2 or len(g1) < 2:
        raise UntestableMetricError("need n >= 2 per group for a variance estimate")
    threshold = detection_threshold(config)
    info = {}
    for a, grp in ((0, g0), (1, g1)):
        errors = [r.epsilon for r in grp]
        variance = _sample_variance(errors, _mean(errors))
        info[a] = len(grp) / variance if variance > 0.0 else math.inf
    extras = {"threshold": threshold}
    if config.target_prevalence is not None:
        share1 = len(g1) / (len(g0) + len(g1))
        extras["ppr_group1"] = share1 / config.target_prevalence
        extras["ppr_group0"] = (1.0 - share1) / (1.0 - config.target_prevalence)
    return MetricResult(
        metric_name=REPRESENTATIVENESS,
        group_values=info,
        contrast=min(info.values()) - threshold,
        test=None,
        flagged=any(v < threshold for v in info.values()),
        interpretation=INTERPRETATIONS[REPRESENTATIVENESS],
        extras=extras,
    )


def information_bias_test(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> MetricResult:
    """Group means of the measurement error, with a one-sided Welch test."""
    _require_gold(cohort, INFORMATION_BIAS)
    g0, g1 = _split_groups(cohort)
    eps0 = [r.epsilon for r in g0]
    eps1 = [r.epsilon for r in g1]
    if len(eps0) < 2 or len(eps1) < 2:
        raise UntestableMetricError("need n >= 2 per group to compare error means")
    try:
        test = welch_t_one_sided(eps1, eps0)
    except ValueError as exc:
        raise UntestableMetricError(str(exc)) from None
    m0, m1 = _mean(eps0), _mean(eps1)
    return MetricResult(
        metric_name=INFORMATION_BIAS,
        group_values={0: m0, 1: m1},
        contrast=m1 - m0,
        test=test,
        flagged=_flagged(test, config),
        interpretation=INTERPRETATIONS[INFORMATION_BIAS],
        extras={"both_means_positive": 1.0 if (m0 > 0.0 and m1 > 0.0) else 0.0},
    )


def _hypoxemic_stratum(
    cohort: Sequence[PatientRecord], config: AuditConfig, metric: str
) -> tuple[list[PatientRecord], list[PatientRecord]]:
    _require_gold(cohort, metric)
    g0, g1 = _split_groups(cohort)
    h0 = [r for r in g0 if r.w_true < config.w_hypox]
    h1 = [r for r in g1 if r.w_true < config.w_hypox]
    if not h0 or not h1:
        raise UntestableMetricError(
            "no truly hypoxemic patients in group "
            + ("0" if not h0 else "1")
        )
    return h0, h1


def treatment_disparity_test(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> MetricResult:
    """Treatment rates among the truly hypoxemic, tested one-sided.

    The alternative is that group 1 is treated at a lower rate than
    group 0 within the stratum that actually needs intervention.
    """
    h0, h1 = _hypoxemic_stratum(cohort, config, TREATMENT_DISPARITY)
    t0 = sum(r.treated for r in h0)
    t1 = sum(r.treated for r in h1)
    test = two_proportion_one_sided(t1, len(h1), t0, len(h0))
    rate0, rate1 = t0 / len(h0), t1 / len(h1)
    return MetricResult(
        metric_name=TREATMENT_DISPARITY,
        group_values={0: rate0, 1: rate1},
        contrast=rate1 - rate0,
        test=test,
        flagged=_flagged(test, config),
        interpretation=INTERPRETATIONS[TREATMENT_DISPARITY],
    )


def equality_of_opportunity_test(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> MetricResult:
    """Deviations from the marginal hypoxemic treatment rate, with a chi-square.

    This is equality of opportunity in the sense of Hardt, Price & Srebro
    (2016): equal true-positive rates of the treatment decision, where the
    positives are the truly hypoxemic (``w_true < w_hypox``).  It reads the
    same treated-by-group table as ``treatment_disparity_test`` but tests
    it two-sided, so a gap in either direction is flagged; the Pearson
    chi-square on that table is the square of the pooled two-proportion z.
    The group-size-weighted deviations sum to zero by construction.
    """
    h0, h1 = _hypoxemic_stratum(cohort, config, EQUALITY_OF_OPPORTUNITY)
    t0 = sum(r.treated for r in h0)
    t1 = sum(r.treated for r in h1)
    marginal = (t0 + t1) / (len(h0) + len(h1))
    rate0, rate1 = t0 / len(h0), t1 / len(h1)
    try:
        test = chi_square_independence(
            [[t1, len(h1) - t1], [t0, len(h0) - t0]]
        )
    except ValueError as exc:
        raise UntestableMetricError(f"degenerate hypoxemic stratum: {exc}") from None
    return MetricResult(
        metric_name=EQUALITY_OF_OPPORTUNITY,
        group_values={0: rate0 - marginal, 1: rate1 - marginal},
        contrast=(rate1 - marginal) - (rate0 - marginal),
        test=test,
        flagged=_flagged(test, config),
        interpretation=INTERPRETATIONS[EQUALITY_OF_OPPORTUNITY],
        extras={"marginal_rate": marginal, "rate_group0": rate0, "rate_group1": rate1},
    )


def estimate_tau(cohort: Sequence[PatientRecord], config: AuditConfig) -> float:
    """Unadjusted treated-vs-untreated outcome contrast among the hypoxemic.

    This is a stratum-restricted difference of observed outcome rates,
    not a causal adjustment; the simulator's Monte Carlo oracle provides
    the check that it tracks the true effect under the default process.
    """
    h0, h1 = _hypoxemic_stratum(cohort, config, "treatment effect estimate")
    stratum = h0 + h1
    treated = [r.outcome for r in stratum if r.treated == 1]
    untreated = [r.outcome for r in stratum if r.treated == 0]
    if not treated or not untreated:
        raise UntestableMetricError(
            "hypoxemic stratum lacks treated or untreated patients"
        )
    return _mean(untreated) - _mean(treated)


def treatment_gap_and_outcome_decomposition(
    cohort: Sequence[PatientRecord],
    config: AuditConfig,
    tau: float | None,
    tau_status: str | None = None,
) -> tuple[MetricResult, MetricResult]:
    """Marginal treatment gap, and the outcome disparity it accounts for.

    The first result is P(Z=1 | A=0) - P(Z=1 | A=1) with a chi-square on
    the treatment-by-group table.  The second scales that gap by the
    treatment effect ``tau``; its flag is inherited from the gap's test.
    With ``tau`` missing the decomposition is emitted as untestable.
    """
    g0, g1 = _split_groups(cohort)
    z0 = sum(r.treated for r in g0)
    z1 = sum(r.treated for r in g1)
    rate0, rate1 = z0 / len(g0), z1 / len(g1)
    gap = rate0 - rate1
    try:
        test = chi_square_independence([[z1, len(g1) - z1], [z0, len(g0) - z0]])
    except ValueError as exc:
        raise UntestableMetricError(f"degenerate treatment margin: {exc}") from None
    gap_result = MetricResult(
        metric_name=TREATMENT_GAP,
        group_values={0: rate0, 1: rate1},
        contrast=gap,
        test=test,
        flagged=_flagged(test, config),
        interpretation=INTERPRETATIONS[TREATMENT_GAP],
    )
    if tau is None:
        decomposition = MetricResult(
            metric_name=OUTCOME_DECOMPOSITION,
            group_values={},
            contrast=None,
            test=None,
            flagged=False,
            interpretation=INTERPRETATIONS[OUTCOME_DECOMPOSITION],
            status=tau_status or "untestable: no treatment effect estimate",
        )
    else:
        decomposition = MetricResult(
            metric_name=OUTCOME_DECOMPOSITION,
            group_values={},
            contrast=tau * gap,
            test=None,
            flagged=gap_result.flagged,
            interpretation=INTERPRETATIONS[OUTCOME_DECOMPOSITION],
            extras={"tau": tau, "treatment_gap": gap},
        )
    return gap_result, decomposition


def observed_outcome_gap(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> MetricResult:
    """Observed outcome disparity P(Y=1 | A=1) - P(Y=1 | A=0)."""
    g0, g1 = _split_groups(cohort)
    y0 = sum(r.outcome for r in g0)
    y1 = sum(r.outcome for r in g1)
    rate0, rate1 = y0 / len(g0), y1 / len(g1)
    try:
        test = chi_square_independence([[y1, len(g1) - y1], [y0, len(g0) - y0]])
    except ValueError as exc:
        raise UntestableMetricError(f"degenerate outcome margin: {exc}") from None
    return MetricResult(
        metric_name=OBSERVED_OUTCOME_GAP,
        group_values={0: rate0, 1: rate1},
        contrast=rate1 - rate0,
        test=test,
        flagged=_flagged(test, config),
        interpretation=INTERPRETATIONS[OBSERVED_OUTCOME_GAP],
    )


def _systemic_logistic(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> MetricResult:
    try:
        fit = fit_logistic_irls(
            [(r.w_star, float(r.group_a)) for r in cohort],
            [r.treated for r in cohort],
        )
    except SingularDesignError as exc:
        raise UntestableMetricError(str(exc)) from None
    if not fit.converged:
        return MetricResult(
            metric_name=SYSTEMIC_BIAS_LOGISTIC,
            group_values={},
            contrast=None,
            test=None,
            flagged=False,
            interpretation=INTERPRETATIONS[SYSTEMIC_BIAS_LOGISTIC],
            status="non-converged: separation suspected; stratified test stands alone",
            extras={"max_abs_score": fit.max_abs_score},
        )
    beta_a = fit.coefficients[2]
    wald = TestResult(fit.wald_z[2], None, fit.p_values[2], TWO_SIDED)
    return MetricResult(
        metric_name=SYSTEMIC_BIAS_LOGISTIC,
        group_values={},
        contrast=beta_a,
        test=wald,
        flagged=_flagged(wald, config),
        interpretation=INTERPRETATIONS[SYSTEMIC_BIAS_LOGISTIC],
        extras={
            "beta_group": beta_a,
            "beta_wstar": fit.coefficients[1],
            "se_group": fit.standard_errors[2],
            "iterations": float(fit.iterations),
        },
    )


def _systemic_cmh(cohort: Sequence[PatientRecord], config: AuditConfig) -> MetricResult:
    width = config.wstar_bin_width
    strata: dict[int, list[list[int]]] = {}
    for r in cohort:
        key = math.floor(r.w_star / width + 0.5)
        table = strata.setdefault(key, [[0, 0], [0, 0]])
        table[1 - r.group_a][1 - r.treated] += 1
    try:
        cmh = cmh_conditional_independence([strata[k] for k in sorted(strata)])
    except ValueError as exc:
        raise UntestableMetricError(f"CMH strata degenerate: {exc}") from None
    return MetricResult(
        metric_name=SYSTEMIC_BIAS_CMH,
        group_values={},
        contrast=None,
        test=cmh,
        flagged=_flagged(cmh, config),
        interpretation=INTERPRETATIONS[SYSTEMIC_BIAS_CMH],
        extras={"strata": float(len(strata))},
    )


def systemic_bias_tests(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> tuple[MetricResult, MetricResult]:
    """Both conditional-independence checks of treatment and group given W*.

    (a) logistic regression of treatment on measured saturation and
    group, reporting the group coefficient's Wald test; (b) a CMH test
    over measured-saturation bins of the configured width.  Each test
    carries its own status: a fit that fails to converge (separation) is
    emitted as non-converged and unflagged, and a collinear design or
    degenerate strata make only the affected test untestable, so the
    other result stands alone.

    Raises:
        UntestableMetricError: a group is empty, or every measured value
            is the same, so neither test has anything to condition on.
    """
    _split_groups(cohort)
    if len({r.w_star for r in cohort}) < 2:
        raise UntestableMetricError("need at least two distinct measured values")
    return (
        _attempt(SYSTEMIC_BIAS_LOGISTIC, _systemic_logistic, cohort, config),
        _attempt(SYSTEMIC_BIAS_CMH, _systemic_cmh, cohort, config),
    )


def group_auc_comparison(
    cohort: Sequence[PatientRecord], config: AuditConfig
) -> MetricResult:
    """Per-group AUC of the measured saturation for detecting true hypoxemia.

    Scores are 100 - W* so that higher scores indicate sicker patients;
    the two-group difference uses independent Hanley-McNeil standard
    errors (the groups share no patients, so no paired correction).
    """
    _require_gold(cohort, GROUP_AUC)
    g0, g1 = _split_groups(cohort)
    aucs = {}
    ses = {}
    for a, grp in ((0, g0), (1, g1)):
        labels = [1 if r.w_true < config.w_hypox else 0 for r in grp]
        n_pos = sum(labels)
        if n_pos == 0 or n_pos == len(grp):
            raise UntestableMetricError(
                f"group {a} lacks both hypoxemic and non-hypoxemic patients"
            )
        scores = [100.0 - r.w_star for r in grp]
        aucs[a] = auc_mann_whitney(scores, labels)
        ses[a] = hanley_mcneil_se(aucs[a], n_pos, len(grp) - n_pos)
    diff = aucs[0] - aucs[1]
    se = math.sqrt(ses[0] ** 2 + ses[1] ** 2)
    z = diff / se if se > 0.0 else 0.0
    test = TestResult(z, None, 2.0 * normal_cdf(-abs(z)), TWO_SIDED)
    return MetricResult(
        metric_name=GROUP_AUC,
        group_values=aucs,
        contrast=diff,
        test=test,
        flagged=_flagged(test, config),
        interpretation=INTERPRETATIONS[GROUP_AUC],
        extras={"se_group0": ses[0], "se_group1": ses[1]},
    )


def _skipped(metric_name: str) -> MetricResult:
    return MetricResult(
        metric_name=metric_name,
        group_values={},
        contrast=None,
        test=None,
        flagged=False,
        interpretation=INTERPRETATIONS[metric_name],
        status=_SKIPPED_NO_GOLD,
    )


def _untestable(metric_name: str, reason: str) -> MetricResult:
    return MetricResult(
        metric_name=metric_name,
        group_values={},
        contrast=None,
        test=None,
        flagged=False,
        interpretation=INTERPRETATIONS[metric_name],
        status=f"untestable: {reason}",
    )


def _attempt(metric_name: str, func, *args) -> MetricResult:
    """Evaluate one metric, turning a failed precondition into its status."""
    try:
        return func(*args)
    except UntestableMetricError as exc:
        return _untestable(metric_name, str(exc))


def run_full_audit(
    cohort: Sequence[PatientRecord],
    config: AuditConfig,
    scenario_label: str = "cohort",
) -> EquityReport:
    """Audit one cohort, working backwards from outcomes to measurement.

    Outcome and treatment metrics run first since they need only the
    observed columns; conditional-independence checks of treatment and
    group follow; measurement-facing metrics (information bias,
    representativeness, discrimination, and the hypoxemic-stratum
    contrasts) run only when the cohort carries a gold standard, and are
    otherwise reported as skipped.  Emitted metric order is fixed.
    """
    config.validate()
    if not cohort:
        raise ValueError("cannot audit an empty cohort")
    g0, g1 = _split_groups(cohort)
    gold = has_gold_standard(cohort)

    results: dict[str, MetricResult] = {}

    def attempt(name: str, func, *args):
        results[name] = _attempt(name, func, *args)

    attempt(OBSERVED_OUTCOME_GAP, observed_outcome_gap, cohort, config)

    try:
        logistic_result, cmh_result = systemic_bias_tests(cohort, config)
        results[SYSTEMIC_BIAS_LOGISTIC] = logistic_result
        results[SYSTEMIC_BIAS_CMH] = cmh_result
    except UntestableMetricError as exc:
        results[SYSTEMIC_BIAS_LOGISTIC] = _untestable(SYSTEMIC_BIAS_LOGISTIC, str(exc))
        results[SYSTEMIC_BIAS_CMH] = _untestable(SYSTEMIC_BIAS_CMH, str(exc))

    tau: float | None = None
    tau_status: str | None = None
    if gold:
        try:
            tau = estimate_tau(cohort, config)
        except UntestableMetricError as exc:
            tau_status = f"untestable: {exc}"
    else:
        tau_status = _SKIPPED_NO_GOLD

    try:
        gap_result, decomposition = treatment_gap_and_outcome_decomposition(
            cohort, config, tau, tau_status
        )
        results[TREATMENT_GAP] = gap_result
        results[OUTCOME_DECOMPOSITION] = decomposition
    except UntestableMetricError as exc:
        results[TREATMENT_GAP] = _untestable(TREATMENT_GAP, str(exc))
        results[OUTCOME_DECOMPOSITION] = _untestable(OUTCOME_DECOMPOSITION, str(exc))
    if not gold:
        results[OUTCOME_DECOMPOSITION] = _skipped(OUTCOME_DECOMPOSITION)

    if gold:
        attempt(INFORMATION_BIAS, information_bias_test, cohort, config)
        attempt(REPRESENTATIVENESS, representativeness_check, cohort, config)
        attempt(GROUP_AUC, group_auc_comparison, cohort, config)
        attempt(TREATMENT_DISPARITY, treatment_disparity_test, cohort, config)
        attempt(EQUALITY_OF_OPPORTUNITY, equality_of_opportunity_test, cohort, config)
    else:
        for name in (
            INFORMATION_BIAS,
            REPRESENTATIVENESS,
            GROUP_AUC,
            TREATMENT_DISPARITY,
            EQUALITY_OF_OPPORTUNITY,
        ):
            results[name] = _skipped(name)

    summary: dict[str, float | int | None] = {
        "n_group0": len(g0),
        "n_group1": len(g1),
    }
    for a, grp in ((0, g0), (1, g1)):
        if gold:
            rate = sum(1 for r in grp if r.w_true < config.w_hypox) / len(grp)
            summary[f"hypoxemia_rate_group{a}"] = rate
        else:
            summary[f"hypoxemia_rate_group{a}"] = None

    return EquityReport(
        scenario_label=scenario_label,
        metrics=[results[name] for name in METRIC_ORDER],
        cohort_summary=summary,
    )
