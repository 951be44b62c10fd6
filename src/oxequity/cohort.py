"""Synthetic inpatient cohort generator with toggleable bias channels.

The data-generating process follows a simple causal ordering: true
arterial saturation W drives both the pulse-oximeter reading
W* = W + eps and, through treatment, the adverse outcome Y.  Group
membership A influences W* only through the measurement-error channel
and influences treatment only through the systemic-bias channel; both
channels can be switched off independently without perturbing any
random draw (common random numbers).

Generation runs in two stages: ``draw_cohort`` hashes every patient's
streams once, and ``derive_cohort`` applies the toggles and treatment
rule to those draws, so scenarios that share a seed can share the draws.

Records are immutable after generation and safe to share across
threads; generation itself is a pure function of the scenario config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .rng import Channel, CounterRng
from .stats.special import normal_cdf, normal_quantile, sigmoid

__all__ = [
    "CohortDraws",
    "DgpParams",
    "PatientRecord",
    "ScenarioConfig",
    "DEFAULT_DGP",
    "TREATMENT_MODES",
    "derive_cohort",
    "draw_cohort",
    "generate_cohort",
    "measurement_error",
    "oracle_tau",
    "outcome_assignment",
    "sample_true_saturation",
    "treatment_assignment",
]

TREATMENT_MODES = ("stochastic", "deterministic")

# Saturations live on this physiologic window; the oximeter display is
# clamped to [0, 100].
W_LOW = 70.0
W_HIGH = 100.0

_ORACLE_SEED = 271828182845904523


@dataclass(frozen=True, slots=True)
class DgpParams:
    """All generative parameters of the synthetic cohort.

    Measurement error (percentage points):
        eps = err_base
            + [bias on and A=1] * (err_group_shift
                                   + err_group_slope * max(0, err_pivot - W))
            + err_noise_sd * N(0, 1)

    Treatment (logit scale, stochastic mode):
        P(Z=1) = sigmoid(treat_intercept + treat_slope * (w_treat - W*)
                         + [systemic bias on] * treat_group_penalty * A)
    Deterministic mode treats exactly when W* < w_treat.

    Outcome (logit scale):
        P(Y=1) = sigmoid(out_intercept + out_severity * max(0, w_hypox - W)
                         - out_benefit * Z)

    The defaults are calibrated so that, at n_total=2500 and
    p_group1=0.2, the simulated cohorts land on the documented
    acceptance targets (group error means, information ratio, occult
    hypoxemia and ventilation rates).
    """

    saturation_mean: float = 88.3
    saturation_sd: float = 2.35
    err_base: float = 1.3
    err_noise_sd: float = 1.8
    err_group_shift: float = 0.16
    err_group_slope: float = 0.96
    err_pivot: float = 89.5
    treat_intercept: float = 1.45
    treat_slope: float = 0.03
    treat_group_penalty: float = -0.75
    w_treat: float = 92.0
    w_hypox: float = 88.0
    out_intercept: float = -2.06
    out_severity: float = 0.07
    out_benefit: float = 0.32

    def validate(self) -> None:
        for name in ("w_treat", "w_hypox", "err_pivot"):
            value = getattr(self, name)
            if not W_LOW < value < W_HIGH:
                raise ValueError(f"{name}={value!r} outside ({W_LOW}, {W_HIGH})")
        if self.w_hypox > self.w_treat:
            raise ValueError(
                f"w_hypox={self.w_hypox!r} must not exceed w_treat={self.w_treat!r}"
            )
        if self.err_noise_sd <= 0.0:
            raise ValueError(f"err_noise_sd must be positive, got {self.err_noise_sd!r}")
        if self.saturation_sd < 0.0:
            raise ValueError(f"saturation_sd must be >= 0, got {self.saturation_sd!r}")


DEFAULT_DGP = DgpParams()


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One simulation scenario: sample design plus the two bias toggles."""

    n_total: int = 2500
    p_group1: float = 0.2
    seed: int = 1
    measurement_bias_on: bool = True
    systemic_bias_on: bool = True
    treatment_mode: str = "stochastic"
    dgp: DgpParams = field(default_factory=DgpParams)

    def validate(self) -> None:
        if self.n_total < 2:
            raise ValueError(f"n_total must be >= 2, got {self.n_total!r}")
        if not 0.0 < self.p_group1 < 1.0:
            raise ValueError(f"p_group1 must lie in (0, 1), got {self.p_group1!r}")
        if self.treatment_mode not in TREATMENT_MODES:
            raise ValueError(
                f"treatment_mode must be one of {TREATMENT_MODES}, got {self.treatment_mode!r}"
            )
        self.dgp.validate()


@dataclass(frozen=True, slots=True)
class PatientRecord:
    """One simulated (or ingested) patient.

    ``w_true`` and ``epsilon`` are None on gold-standard-free cohorts
    read from external files.  ``clamped`` marks the rare records whose
    raw reading fell outside the display range, in which case
    w_star != w_true + epsilon.
    """

    patient_id: int
    group_a: int
    w_true: float | None
    w_star: float
    epsilon: float | None
    treated: int
    outcome: int
    clamped: bool = False


def _saturation_inverse_cdf(params: DgpParams) -> Callable[[float], float]:
    """Inverse CDF of the saturation law truncated to [W_LOW, W_HIGH].

    The normal CDF at the two window edges is evaluated here, once, so a
    cohort pays for it once rather than once per patient.  Pathological
    tail draws that escape the window through floating point are clamped
    back to the bounds.
    """
    mean, sd = params.saturation_mean, params.saturation_sd
    if sd < 1e-12:
        degenerate = min(max(mean, W_LOW), W_HIGH)
        return lambda u: degenerate
    lo = normal_cdf((W_LOW - mean) / sd)
    hi = normal_cdf((W_HIGH - mean) / sd)

    def inverse(u: float) -> float:
        p = lo + u * (hi - lo)
        if p <= 0.0 or p >= 1.0:
            return W_LOW if p <= 0.0 else W_HIGH
        value = mean + sd * normal_quantile(p)
        return min(max(value, W_LOW), W_HIGH)

    return inverse


def sample_true_saturation(
    uniform_draws: Sequence[float], params: DgpParams
) -> float:
    """Truncated-normal saturation on [70, 100] by inverse-CDF transform.

    Only the first draw is consumed.  The sequence form is kept so
    callers passing a (draw, spare) pair keep working, but the generator
    no longer hashes a second saturation draw: each patient costs five
    counter hashes (group, saturation, noise, treatment, outcome).
    """
    u = float(uniform_draws[0])
    if not 0.0 < u < 1.0:
        raise ValueError(f"saturation draw must lie in (0, 1), got {u!r}")
    return _saturation_inverse_cdf(params)(u)


def measurement_error(
    w_true: float,
    group_a: int,
    measurement_bias_on: bool,
    noise_draw: float,
    params: DgpParams,
) -> float:
    """Signed oximeter error in percentage points for one patient.

    Everyone shares the baseline overread and noise; the differential
    shift-plus-hinge term applies to group A=1 only while the
    measurement-bias channel is on, and grows as true saturation falls
    below the pivot.
    """
    eps = params.err_base + params.err_noise_sd * noise_draw
    if measurement_bias_on and group_a == 1:
        eps += params.err_group_shift + params.err_group_slope * max(
            0.0, params.err_pivot - w_true
        )
    return eps


def treatment_assignment(
    w_star: float,
    group_a: int,
    systemic_bias_on: bool,
    mode: str,
    uniform_draw: float,
    params: DgpParams,
) -> int:
    """Supplemental-oxygen decision from the measured saturation.

    Deterministic mode is the bare threshold protocol 1(W* < w_treat).
    Stochastic mode draws from a logistic model in the threshold margin,
    with a group penalty active only under systemic bias.
    """
    if mode == "deterministic":
        return 1 if w_star < params.w_treat else 0
    if mode != "stochastic":
        raise ValueError(f"unknown treatment mode {mode!r}")
    logit = params.treat_intercept + params.treat_slope * (params.w_treat - w_star)
    if systemic_bias_on:
        logit += params.treat_group_penalty * group_a
    return 1 if uniform_draw < sigmoid(logit) else 0


def outcome_assignment(
    w_true: float, treated: int, uniform_draw: float, params: DgpParams
) -> int:
    """Adverse-outcome draw; risk rises with hypoxemia depth, falls with treatment."""
    logit = (
        params.out_intercept
        + params.out_severity * max(0.0, params.w_hypox - w_true)
        - params.out_benefit * treated
    )
    return 1 if uniform_draw < sigmoid(logit) else 0


@dataclass(frozen=True, slots=True)
class CohortDraws:
    """The toggle-independent columns of one cohort, indexed by patient id.

    Every random quantity a cohort consumes is here: group membership,
    true saturation, the standard-normal oximeter noise and the treatment
    and outcome uniforms.  The bias toggles and the treatment rule act
    only through deterministic shifts of these, so one set of draws
    serves every scenario that shares the seed, size and parameters.
    """

    dgp: DgpParams
    group_a: list[int]
    w_true: list[float]
    noise: list[float]
    u_treat: list[float]
    u_out: list[float]


def draw_cohort(config: ScenarioConfig) -> CohortDraws:
    """Make the one pass over the patients' counter-based streams.

    Draws are keyed by (seed, patient_id, channel), so the toggles and
    treatment mode of ``config`` play no part here.
    """
    config.validate()
    rng = CounterRng(config.seed)
    uniform, normal = rng.uniform, rng.normal
    saturation = _saturation_inverse_cdf(config.dgp)
    p_group1 = config.p_group1
    group_a, w_true, noise, u_treat, u_out = [], [], [], [], []
    for i in range(config.n_total):
        group_a.append(1 if uniform(i, Channel.GROUP) < p_group1 else 0)
        w_true.append(saturation(uniform(i, Channel.SATURATION)))
        noise.append(normal(i, Channel.NOISE))
        u_treat.append(uniform(i, Channel.TREAT))
        u_out.append(uniform(i, Channel.OUTCOME))
    return CohortDraws(config.dgp, group_a, w_true, noise, u_treat, u_out)


def derive_cohort(
    draws: CohortDraws,
    measurement_bias_on: bool,
    systemic_bias_on: bool,
    treatment_mode: str,
) -> list[PatientRecord]:
    """Build one scenario's records from shared draws; no random stream is read."""
    dgp = draws.dgp
    records = []
    columns = zip(draws.group_a, draws.w_true, draws.noise, draws.u_treat, draws.u_out)
    for i, (group_a, w_true, noise, u_treat, u_out) in enumerate(columns):
        epsilon = measurement_error(w_true, group_a, measurement_bias_on, noise, dgp)
        raw = w_true + epsilon
        w_star = min(max(raw, 0.0), 100.0)
        treated = treatment_assignment(
            w_star, group_a, systemic_bias_on, treatment_mode, u_treat, dgp
        )
        outcome = outcome_assignment(w_true, treated, u_out, dgp)
        clamped = raw < 0.0 or raw > 100.0
        # Positional arguments: keyword passing costs a third of a derive.
        records.append(
            PatientRecord(i, group_a, w_true, w_star, epsilon, treated, outcome, clamped)
        )
    return records


def generate_cohort(config: ScenarioConfig) -> list[PatientRecord]:
    """Simulate one cohort under the given scenario.

    Each patient's draws come from counter-based streams keyed by
    (seed, patient_id, channel), so regeneration is bit-identical and
    flipping either bias toggle leaves every channel's underlying
    uniforms untouched.
    """
    return derive_cohort(
        draw_cohort(config),
        config.measurement_bias_on,
        config.systemic_bias_on,
        config.treatment_mode,
    )


def oracle_tau(
    params: DgpParams, cohort: Sequence[PatientRecord], replicate_count: int
) -> float:
    """Ground-truth treatment effect E[Y(0)] - E[Y(1)] over the cohort.

    Monte Carlo over the cohort's true saturations with the outcome
    model applied directly, using one shared uniform per (patient,
    replicate) for both potential outcomes.  Deterministic for a given
    cohort and replicate count; serves as the oracle against which the
    data-driven estimator is validated.
    """
    if replicate_count < 1:
        raise ValueError(f"replicate_count must be >= 1, got {replicate_count!r}")
    if not cohort:
        raise ValueError("oracle_tau needs a non-empty cohort")
    rng = CounterRng(_ORACLE_SEED)
    diff_total = 0
    for record in cohort:
        if record.w_true is None:
            raise ValueError("oracle_tau requires true saturations on every record")
        severity = params.out_severity * max(0.0, params.w_hypox - record.w_true)
        risk_untreated = sigmoid(params.out_intercept + severity)
        risk_treated = sigmoid(params.out_intercept + severity - params.out_benefit)
        for r in range(replicate_count):
            u = rng.uniform(record.patient_id, Channel.ORACLE, r)
            diff_total += (1 if u < risk_untreated else 0) - (
                1 if u < risk_treated else 0
            )
    return diff_total / (len(cohort) * replicate_count)
