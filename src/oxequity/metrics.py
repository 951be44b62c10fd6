"""Equity metrics over a cohort, and the full audit that orchestrates them.

Each metric evaluates one population contrast between the two groups and
wraps the result with its test, flag state, and a fixed interpretation
string.  ``INTERPRETATIONS`` is the metric table: its key order is the
report order (``METRIC_ORDER``), and ``run_full_audit`` walks it with one
loop of evaluators.

Every evaluator has one shape: a public function of ``(cohort, config)``
that returns one ``MetricResult`` or a fixed pair, or raises
``UntestableMetricError`` when a precondition fails.  Every result is
built by ``_result``, which takes the interpretation from the table and
leaves the values of a result that is not "ok" empty.

Only the metric functions know whether they need the gold standard (true
saturations and measurement errors): each such function calls
``_require_gold`` first.  On a gold-free cohort that raises
``_NoGoldStandard``, which the audit reports as ``skipped: no gold
standard``; any other ``UntestableMetricError`` becomes ``untestable:
<reason>`` on every metric its evaluator emits.  Metrics are emitted
with a status rather than dropped, so report shapes stay stable.

The one pair whose members can differ in status is the treatment gap
and the outcome decomposition.  The decomposition needs three things,
in this order: the gold standard, a testable gap, and a treatment
effect from ``estimate_tau``.  It takes the status of the first one that
fails, so on a gold-free cohort it is skipped whatever the gap's status.

Every metric reads the cohort's columns: a group or stratum is a
selection of a column (``itertools.compress``), and counts of 0/1
columns are integer sums, so no per-patient object is built.

All functions are pure; the report order is fixed regardless of
evaluation order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import not_
from typing import Sequence

from .cohort import Cohort, _require_finite, wstar_bins
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


class _NoGoldStandard(UntestableMetricError):
    """The metric needs true saturations the cohort lacks; the audit skips it."""


@dataclass(frozen=True, slots=True)
class AuditConfig:
    """Audit-side knobs: test levels, thresholds, and binning.

    Construction raises ValueError on an invalid field, so a config that
    exists is valid and no metric checks it again.
    """

    alpha: float = 0.05
    power: float = 0.80
    delta: float = 1.0
    flag_level: float = 0.01
    w_hypox: float = 88.0
    target_prevalence: float | None = None
    wstar_bin_width: float = 1.0

    def __post_init__(self) -> None:
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
        _require_finite(self)


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

# Key order is the report order.
METRIC_ORDER = tuple(INTERPRETATIONS)


def _group_sizes(cohort: Cohort) -> tuple[int, int]:
    n1 = cohort.group_a.count(1)
    n0 = len(cohort) - n1
    if not n0 or not n1:
        raise UntestableMetricError("cohort must contain patients from both groups")
    return n0, n1


def _by_group(values: Sequence, group_a: Sequence[int]) -> tuple[list, list]:
    """``values`` of group 0, then of group 1, each in cohort order."""
    return list(compress(values, map(not_, group_a))), list(compress(values, group_a))


def _hypoxemic(cohort: Cohort, config: AuditConfig) -> list[bool]:
    """Which patients are truly hypoxemic (w_true < w_hypox)."""
    w_hypox = config.w_hypox
    return [w < w_hypox for w in cohort.w_true]


def _require_gold(cohort: Cohort, metric: str) -> None:
    if not cohort.gold:
        raise _NoGoldStandard(
            f"{metric} needs gold-standard saturations; the full audit skips "
            "measurement metrics on gold-free cohorts"
        )


def _flagged(test: TestResult, config: AuditConfig) -> bool:
    return test.p_value < config.flag_level


def _result(
    name: str,
    group_values: dict[int, float] | None = None,
    contrast: float | None = None,
    test: TestResult | None = None,
    flagged: bool = False,
    status: str = "ok",
    extras: dict[str, float] | None = None,
) -> MetricResult:
    """The result of metric ``name``, with its interpretation from the table."""
    return MetricResult(
        name,
        group_values or {},
        contrast,
        test,
        flagged,
        INTERPRETATIONS[name],
        status,
        extras or {},
    )


def detection_threshold(config: AuditConfig) -> float:
    """Minimum per-group information needed to detect the target contrast.

    Inverts a two-sided power analysis at the configured size and power
    for the minimum clinically meaningful difference ``delta``.

    Raises:
        UntestableMetricError: ``delta`` is so small or so large that the
            threshold is not a finite float.
    """
    z_half_alpha = normal_quantile(1.0 - config.alpha / 2.0)
    z_power = normal_quantile(config.power)
    try:
        threshold = (z_half_alpha + z_power) ** 2 / config.delta**2
    except ArithmeticError:  # delta**2 overflows, or underflows to zero
        threshold = math.inf
    if not math.isfinite(threshold):
        raise UntestableMetricError(
            f"delta {config.delta!r} puts the detection threshold outside the float range"
        )
    return threshold


_HUGE_ERRORS = "measurement errors too large for a finite variance"


def _error_variance(errors: list[float]) -> float:
    """Sample variance of measurement errors, which must be finite."""
    try:
        variance = _sample_variance(errors, _mean(errors))
    except (OverflowError, ValueError):  # huge or opposite infinite errors
        variance = math.nan
    if not math.isfinite(variance):
        raise UntestableMetricError(_HUGE_ERRORS)
    return variance


def representativeness_check(cohort: Cohort, config: AuditConfig) -> MetricResult:
    """Per-group Fisher information n_a / s_a^2 against the detection threshold.

    Flagged means failure: some group carries too little information to
    detect the configured error contrast.  When ``target_prevalence`` is
    set, participation-to-prevalence ratios are reported alongside.  A
    group whose errors have zero variance has unbounded information, so
    the metric is untestable rather than infinite; so is one whose
    errors are too large for a finite variance.
    """
    _require_gold(cohort, REPRESENTATIVENESS)
    n0, n1 = _group_sizes(cohort)
    if n0 < 2 or n1 < 2:
        raise UntestableMetricError("need n >= 2 per group for a variance estimate")
    threshold = detection_threshold(config)
    info = {}
    for a, errors in enumerate(_by_group(cohort.epsilon, cohort.group_a)):
        variance = _error_variance(errors)
        if variance == 0.0:
            raise UntestableMetricError(
                f"zero measurement-error variance in group {a}"
            )
        info[a] = len(errors) / variance
    extras = {"threshold": threshold}
    if config.target_prevalence is not None:
        share1 = n1 / (n0 + n1)
        extras["ppr_group1"] = share1 / config.target_prevalence
        extras["ppr_group0"] = (1.0 - share1) / (1.0 - config.target_prevalence)
    return _result(
        REPRESENTATIVENESS,
        info,
        min(info.values()) - threshold,
        flagged=any(v < threshold for v in info.values()),
        extras=extras,
    )


def information_bias_test(cohort: Cohort, config: AuditConfig) -> MetricResult:
    """Group means of the measurement error, with a one-sided Welch test.

    Non-finite errors, or errors too large for finite moments, make the
    metric untestable.
    """
    _require_gold(cohort, INFORMATION_BIAS)
    _group_sizes(cohort)
    eps0, eps1 = _by_group(cohort.epsilon, cohort.group_a)
    if len(eps0) < 2 or len(eps1) < 2:
        raise UntestableMetricError("need n >= 2 per group to compare error means")
    if not all(map(math.isfinite, cohort.epsilon)):
        raise UntestableMetricError(_HUGE_ERRORS)
    try:
        test = welch_t_one_sided(eps1, eps0)
        m0, m1 = _mean(eps0), _mean(eps1)
    except OverflowError:
        raise UntestableMetricError(_HUGE_ERRORS) from None
    except ValueError as exc:
        raise UntestableMetricError(str(exc)) from None
    if not all(map(math.isfinite, (test.statistic, test.df, test.p_value, m0, m1))):
        raise UntestableMetricError(_HUGE_ERRORS)
    return _result(
        INFORMATION_BIAS,
        {0: m0, 1: m1},
        m1 - m0,
        test,
        _flagged(test, config),
        extras={"both_means_positive": 1.0 if (m0 > 0.0 and m1 > 0.0) else 0.0},
    )


def _hypoxemic_stratum(
    cohort: Cohort, config: AuditConfig, metric: str
) -> tuple[list[bool], list[int]]:
    """The hypoxemic selection and the group of each hypoxemic patient."""
    _require_gold(cohort, metric)
    _group_sizes(cohort)
    hypoxemic = _hypoxemic(cohort, config)
    groups = list(compress(cohort.group_a, hypoxemic))
    if 0 not in groups or 1 not in groups:
        raise UntestableMetricError(
            "no truly hypoxemic patients in group " + ("0" if 0 not in groups else "1")
        )
    return hypoxemic, groups


def _hypoxemic_treatment(
    cohort: Cohort, config: AuditConfig, metric: str
) -> tuple[int, int, int, int]:
    """Treated count and size of the hypoxemic stratum: t0, n0, t1, n1."""
    hypoxemic, groups = _hypoxemic_stratum(cohort, config, metric)
    treated = list(compress(cohort.treated, hypoxemic))
    n1 = groups.count(1)
    t1 = sum(compress(treated, groups))
    return sum(treated) - t1, len(groups) - n1, t1, n1


def treatment_disparity_test(cohort: Cohort, config: AuditConfig) -> MetricResult:
    """Treatment rates among the truly hypoxemic, tested one-sided.

    The alternative is that group 1 is treated at a lower rate than
    group 0 within the stratum that actually needs intervention.
    """
    t0, n0, t1, n1 = _hypoxemic_treatment(cohort, config, TREATMENT_DISPARITY)
    test = two_proportion_one_sided(t1, n1, t0, n0)
    rate0, rate1 = t0 / n0, t1 / n1
    return _result(
        TREATMENT_DISPARITY,
        {0: rate0, 1: rate1},
        rate1 - rate0,
        test,
        _flagged(test, config),
    )


def equality_of_opportunity_test(cohort: Cohort, config: AuditConfig) -> MetricResult:
    """Deviations from the marginal hypoxemic treatment rate, with a chi-square.

    This is equality of opportunity in the sense of Hardt, Price & Srebro
    (2016): equal true-positive rates of the treatment decision, where the
    positives are the truly hypoxemic (``w_true < w_hypox``).  It reads the
    same treated-by-group table as ``treatment_disparity_test`` but tests
    it two-sided, so a gap in either direction is flagged; the Pearson
    chi-square on that table is the square of the pooled two-proportion z.
    The group-size-weighted deviations sum to zero by construction.
    """
    t0, n0, t1, n1 = _hypoxemic_treatment(cohort, config, EQUALITY_OF_OPPORTUNITY)
    marginal = (t0 + t1) / (n0 + n1)
    rate0, rate1 = t0 / n0, t1 / n1
    try:
        test = chi_square_independence([[t1, n1 - t1], [t0, n0 - t0]])
    except ValueError as exc:
        raise UntestableMetricError(f"degenerate hypoxemic stratum: {exc}") from None
    return _result(
        EQUALITY_OF_OPPORTUNITY,
        {0: rate0 - marginal, 1: rate1 - marginal},
        (rate1 - marginal) - (rate0 - marginal),
        test,
        _flagged(test, config),
        extras={"marginal_rate": marginal, "rate_group0": rate0, "rate_group1": rate1},
    )


def estimate_tau(cohort: Cohort, config: AuditConfig) -> float:
    """Unadjusted untreated-minus-treated outcome rate among the hypoxemic.

    The estimand is E[Y(0) - Y(1) | w_true < w_hypox], the treatment
    effect within the truly hypoxemic stratum, which ``cohort.oracle_tau``
    computes exactly for a simulated cohort.  This is a difference of
    observed rates, not a causal adjustment: it is unbiased only while
    treatment within the stratum is as good as random.
    """
    hypoxemic, _ = _hypoxemic_stratum(cohort, config, "treatment effect estimate")
    treated = list(compress(cohort.treated, hypoxemic))
    outcome = list(compress(cohort.outcome, hypoxemic))
    n_treated = sum(treated)
    n_untreated = len(treated) - n_treated
    if not n_treated or not n_untreated:
        raise UntestableMetricError(
            "hypoxemic stratum lacks treated or untreated patients"
        )
    y_treated = sum(compress(outcome, treated))
    return (sum(outcome) - y_treated) / n_untreated - y_treated / n_treated


def _count_by_group(values: list[int], group_a: list[int]) -> tuple[int, int]:
    """Sums of a 0/1 column over group 0 and over group 1."""
    in_group1 = sum(compress(values, group_a))
    return sum(values) - in_group1, in_group1


def _treatment_gap(cohort: Cohort, config: AuditConfig) -> MetricResult:
    n0, n1 = _group_sizes(cohort)
    z0, z1 = _count_by_group(cohort.treated, cohort.group_a)
    rate0, rate1 = z0 / n0, z1 / n1
    try:
        test = chi_square_independence([[z1, n1 - z1], [z0, n0 - z0]])
    except ValueError as exc:
        raise UntestableMetricError(f"degenerate treatment margin: {exc}") from None
    return _result(
        TREATMENT_GAP, {0: rate0, 1: rate1}, rate0 - rate1, test, _flagged(test, config)
    )


def treatment_gap_and_outcome_decomposition(
    cohort: Cohort, config: AuditConfig
) -> tuple[MetricResult, MetricResult]:
    """Marginal treatment gap, and the outcome disparity it accounts for.

    The first result is P(Z=1 | A=0) - P(Z=1 | A=1) with a chi-square on
    the treatment-by-group table.  The second scales that gap by the
    treatment effect from ``estimate_tau``; its flag is inherited from
    the gap's test.  Each carries its own status: the decomposition takes
    that of the first of the gold standard, the gap and tau to fail.
    """
    (gap,) = _attempt((TREATMENT_GAP,), _treatment_gap, cohort, config)
    try:
        tau = estimate_tau(cohort, config)
    except UntestableMetricError as exc:  # always so on a gold-free cohort
        tau, tau_status = None, _status(exc)
    if cohort.gold and gap.status != "ok":
        return gap, _result(OUTCOME_DECOMPOSITION, status=gap.status)
    if tau is None:
        return gap, _result(OUTCOME_DECOMPOSITION, status=tau_status)
    return gap, _result(
        OUTCOME_DECOMPOSITION,
        contrast=tau * gap.contrast,
        flagged=gap.flagged,
        extras={"tau": tau, "treatment_gap": gap.contrast},
    )


def observed_outcome_gap(cohort: Cohort, config: AuditConfig) -> MetricResult:
    """Observed outcome disparity P(Y=1 | A=1) - P(Y=1 | A=0)."""
    n0, n1 = _group_sizes(cohort)
    y0, y1 = _count_by_group(cohort.outcome, cohort.group_a)
    rate0, rate1 = y0 / n0, y1 / n1
    try:
        test = chi_square_independence([[y1, n1 - y1], [y0, n0 - y0]])
    except ValueError as exc:
        raise UntestableMetricError(f"degenerate outcome margin: {exc}") from None
    return _result(
        OBSERVED_OUTCOME_GAP,
        {0: rate0, 1: rate1},
        rate1 - rate0,
        test,
        _flagged(test, config),
    )


def _systemic_logistic(cohort: Cohort, config: AuditConfig) -> MetricResult:
    try:
        fit = fit_logistic_irls(
            list(zip(cohort.w_star, map(float, cohort.group_a))), cohort.treated
        )
    except SingularDesignError as exc:
        raise UntestableMetricError(str(exc)) from None
    if not fit.converged:
        return _result(
            SYSTEMIC_BIAS_LOGISTIC,
            status="non-converged: separation suspected; stratified test stands alone",
            extras={"max_abs_score": fit.max_abs_score},
        )
    beta_a = fit.coefficients[2]
    wald = TestResult(fit.wald_z[2], None, fit.p_values[2], TWO_SIDED)
    return _result(
        SYSTEMIC_BIAS_LOGISTIC,
        contrast=beta_a,
        test=wald,
        flagged=_flagged(wald, config),
        extras={
            "beta_group": beta_a,
            "beta_wstar": fit.coefficients[1],
            "se_group": fit.standard_errors[2],
            "iterations": float(fit.iterations),
        },
    )


def _systemic_cmh(cohort: Cohort, config: AuditConfig) -> MetricResult:
    try:
        keys = wstar_bins(cohort.w_star, config.wstar_bin_width)
    except ValueError as exc:
        raise UntestableMetricError(f"CMH {exc}") from None
    counts = Counter(zip(keys, cohort.group_a, cohort.treated))
    strata: dict[int, list[list[int]]] = {}
    for (key, a, z), count in counts.items():
        table = strata.setdefault(key, [[0, 0], [0, 0]])
        table[1 - a][1 - z] += count
    try:
        cmh = cmh_conditional_independence([strata[k] for k in sorted(strata)])
    except ValueError as exc:
        raise UntestableMetricError(f"CMH strata degenerate: {exc}") from None
    return _result(
        SYSTEMIC_BIAS_CMH,
        test=cmh,
        flagged=_flagged(cmh, config),
        extras={"strata": float(len(strata))},
    )


def systemic_bias_tests(
    cohort: Cohort, config: AuditConfig
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
    _group_sizes(cohort)
    if len(set(cohort.w_star)) < 2:
        raise UntestableMetricError("need at least two distinct measured values")
    logistic = _attempt((SYSTEMIC_BIAS_LOGISTIC,), _systemic_logistic, cohort, config)
    cmh = _attempt((SYSTEMIC_BIAS_CMH,), _systemic_cmh, cohort, config)
    return logistic + cmh


def group_auc_comparison(cohort: Cohort, config: AuditConfig) -> MetricResult:
    """Per-group AUC of the measured saturation for detecting true hypoxemia.

    Scores are 100 - W* so that higher scores indicate sicker patients;
    the two-group difference uses independent Hanley-McNeil standard
    errors (the groups share no patients, so no paired correction).
    """
    _require_gold(cohort, GROUP_AUC)
    _group_sizes(cohort)
    labels = list(map(int, _hypoxemic(cohort, config)))
    scores = [100.0 - w for w in cohort.w_star]
    aucs = {}
    ses = {}
    groups = zip(_by_group(labels, cohort.group_a), _by_group(scores, cohort.group_a))
    for a, (group_labels, group_scores) in enumerate(groups):
        n_pos = sum(group_labels)
        if n_pos == 0 or n_pos == len(group_labels):
            raise UntestableMetricError(
                f"group {a} lacks both hypoxemic and non-hypoxemic patients"
            )
        aucs[a] = auc_mann_whitney(group_scores, group_labels)
        ses[a] = hanley_mcneil_se(aucs[a], n_pos, len(group_labels) - n_pos)
    diff = aucs[0] - aucs[1]
    se = math.sqrt(ses[0] ** 2 + ses[1] ** 2)
    z = diff / se if se > 0.0 else 0.0
    test = TestResult(z, None, 2.0 * normal_cdf(-abs(z)), TWO_SIDED)
    return _result(
        GROUP_AUC,
        aucs,
        diff,
        test,
        _flagged(test, config),
        extras={"se_group0": ses[0], "se_group1": ses[1]},
    )


def _status(exc: UntestableMetricError) -> str:
    if isinstance(exc, _NoGoldStandard):
        return "skipped: no gold standard"
    return f"untestable: {exc}"


def _attempt(names: tuple[str, ...], evaluate, *args) -> tuple[MetricResult, ...]:
    """Evaluate the metrics ``names``, turning a failed precondition into their status."""
    try:
        out = evaluate(*args)
    except UntestableMetricError as exc:
        return tuple(_result(name, status=_status(exc)) for name in names)
    return out if isinstance(out, tuple) else (out,)


def run_full_audit(
    cohort: Cohort,
    config: AuditConfig,
    scenario_label: str = "cohort",
) -> EquityReport:
    """Audit one cohort: every metric of the table, in ``METRIC_ORDER``.

    Each evaluator emits one metric or a fixed pair.  One that raises
    ``UntestableMetricError`` emits its metrics with that status instead
    (skipped when the metric needs the gold standard the cohort lacks),
    so a failure stays local to its own metrics.
    """
    if not cohort:
        raise ValueError("cannot audit an empty cohort")
    n0, n1 = _group_sizes(cohort)
    # Built per call, so every name is looked up when the audit runs (a
    # tracer may have wrapped the module attributes since import).
    evaluators = (
        ((REPRESENTATIVENESS,), representativeness_check),
        ((INFORMATION_BIAS,), information_bias_test),
        ((TREATMENT_DISPARITY,), treatment_disparity_test),
        ((EQUALITY_OF_OPPORTUNITY,), equality_of_opportunity_test),
        ((TREATMENT_GAP, OUTCOME_DECOMPOSITION), treatment_gap_and_outcome_decomposition),
        ((OBSERVED_OUTCOME_GAP,), observed_outcome_gap),
        ((SYSTEMIC_BIAS_LOGISTIC, SYSTEMIC_BIAS_CMH), systemic_bias_tests),
        ((GROUP_AUC,), group_auc_comparison),
    )
    results = {
        m.metric_name: m
        for names, evaluate in evaluators
        for m in _attempt(names, evaluate, cohort, config)
    }

    summary: dict[str, float | int | None] = {"n_group0": n0, "n_group1": n1}
    if cohort.gold:
        hypoxemic = _count_by_group(_hypoxemic(cohort, config), cohort.group_a)
    for a, size in enumerate((n0, n1)):
        summary[f"hypoxemia_rate_group{a}"] = hypoxemic[a] / size if cohort.gold else None

    return EquityReport(
        scenario_label=scenario_label,
        metrics=[results[name] for name in METRIC_ORDER],
        cohort_summary=summary,
    )
