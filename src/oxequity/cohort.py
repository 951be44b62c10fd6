"""Synthetic inpatient cohort generator with toggleable bias channels.

The data-generating process follows a simple causal ordering: true
arterial saturation W drives both the pulse-oximeter reading
W* = W + eps and, through treatment, the adverse outcome Y.  Group
membership A influences W* only through the measurement-error channel
and influences treatment only through the systemic-bias channel; both
channels can be switched off independently without perturbing any
random draw (common random numbers).

Generation runs in two stages: ``draw_cohort`` hashes every patient's
streams once, as whole columns, and ``derive_cohort`` applies the
toggles and treatment rule to those draws, so scenarios that share a
seed can share the draws.  Each formula of the process has one site, a
column map (``measurement_errors``, ``treatment_assignments``,
``outcome_risks``); a single patient is a one-element column.  The
outcome risks serve both the outcome draws and the exact ``oracle_tau``.

A cohort is one frozen ``Cohort`` of columns, the type every layer
passes on: the generator and the CSV reader build it, and the writer,
the metrics, the grid and the figure read its columns.  It is immutable
and safe to share across threads; generation itself is a pure function
of the scenario config.  ``PatientRecord`` is only the row type of
``Cohort.from_records``, for cohorts built by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import add, sub, truediv
from typing import Iterable, Sequence

from .rng import Channel, CounterRng
from .stats.special import normal_cdf, normal_quantiles, sigmoids

__all__ = [
    "Cohort",
    "CohortDraws",
    "DgpParams",
    "PatientRecord",
    "ScenarioConfig",
    "DEFAULT_DGP",
    "TREATMENT_MODES",
    "derive_cohort",
    "draw_cohort",
    "generate_cohort",
    "measurement_errors",
    "oracle_tau",
    "outcome_assignments",
    "outcome_risks",
    "treatment_assignments",
    "wstar_bins",
]

TREATMENT_MODES = ("stochastic", "deterministic")

# Saturations live on this physiologic window; the oximeter display is
# limited to [0, 100].
W_LOW = 70.0
W_HIGH = 100.0
_COHORT_CHANNELS = (
    Channel.GROUP,
    Channel.SATURATION,
    Channel.NOISE,
    Channel.TREAT,
    Channel.OUTCOME,
)


def _require_finite(config) -> None:
    """Reject a NaN or infinite value in any float field of ``config``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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

    Construction raises ValueError on an invalid field, so a ``DgpParams``
    that exists is valid.
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

    def __post_init__(self) -> None:
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
        _require_finite(self)


DEFAULT_DGP = DgpParams()


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One simulation scenario: sample design plus the two bias toggles.

    Like ``DgpParams``, it is checked at construction.
    """

    n_total: int = 2500
    p_group1: float = 0.2
    seed: int = 1
    measurement_bias_on: bool = True
    systemic_bias_on: bool = True
    treatment_mode: str = "stochastic"
    dgp: DgpParams = field(default_factory=DgpParams)

    def __post_init__(self) -> None:
        if self.n_total < 2:
            raise ValueError(f"n_total must be >= 2, got {self.n_total!r}")
        if not 0.0 < self.p_group1 < 1.0:
            raise ValueError(f"p_group1 must lie in (0, 1), got {self.p_group1!r}")
        if self.treatment_mode not in TREATMENT_MODES:
            raise ValueError(
                f"treatment_mode must be one of {TREATMENT_MODES}, got {self.treatment_mode!r}"
            )


@dataclass(frozen=True, slots=True)
class PatientRecord:
    """One patient: the row type of ``Cohort.from_records``.

    The fields mean what the ``Cohort`` columns of the same names mean.
    """

    patient_id: int
    group_a: int
    w_true: float | None
    w_star: float
    epsilon: float | None
    treated: int
    outcome: int


_BINARY = frozenset((0, 1))
_COLUMNS = (
    "patient_id",
    "group_a",
    "w_true",
    "w_star",
    "epsilon",
    "treated",
    "outcome",
)


@dataclass(frozen=True, slots=True)
class Cohort:
    """One cohort as equal-length columns, one entry per patient.

    ``w_true`` and ``epsilon`` hold None for patients without a gold
    standard (rows of a file whose gold fields are blank); ``gold`` is
    True when every patient has both, and is computed once, here.
    ``group_a``, ``treated`` and ``outcome`` hold only 0 and 1.  A
    generated ``w_star`` is ``w_true + epsilon`` clipped to the display
    range [0, 100].  The columns are read, never written: cohorts derived
    from shared draws share their true-saturation and group columns.
    """

    patient_id: list[int]
    group_a: list[int]
    w_true: list[float | None]
    w_star: list[float]
    epsilon: list[float | None]
    treated: list[int]
    outcome: list[int]
    gold: bool = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.patient_id)
        if any(len(getattr(self, name)) != n for name in _COLUMNS):
            raise ValueError("cohort columns differ in length")
        for name in ("group_a", "treated", "outcome"):
            if not _BINARY.issuperset(getattr(self, name)):
                raise ValueError(f"{name} must hold only 0 and 1")
        gold = n > 0 and None not in self.w_true and None not in self.epsilon
        object.__setattr__(self, "gold", gold)

    def __len__(self) -> int:
        return len(self.patient_id)

    @classmethod
    def from_records(cls, records: Iterable[PatientRecord]) -> Cohort:
        """The cohort of hand-built records, in their order."""
        rows = list(records)
        return cls(*([getattr(r, name) for r in rows] for name in _COLUMNS))


def _saturation_inverse_cdf(uniforms: Sequence[float], params: DgpParams) -> list[float]:
    """Map a column of uniforms through the saturation law's inverse CDF.

    The law is normal, truncated to [W_LOW, W_HIGH].  The normal CDF at
    the two window edges is evaluated once per column, and the probits
    come from one ``normal_quantiles`` pass.  Pathological tail draws
    that escape the window through floating point are clipped back to
    the bounds.
    """
    mean, sd = params.saturation_mean, params.saturation_sd
    if sd < 1e-12:
        return [min(max(mean, W_LOW), W_HIGH)] * len(uniforms)
    lo = normal_cdf((W_LOW - mean) / sd)
    hi = normal_cdf((W_HIGH - mean) / sd)
    ps = [lo + u * (hi - lo) for u in uniforms]
    # A NaN p is neither <= 0 nor >= 1, so normal_quantiles rejects it.
    probit = iter(normal_quantiles([p for p in ps if not (p <= 0.0 or p >= 1.0)])).__next__
    values = [W_LOW if p <= 0.0 else W_HIGH if p >= 1.0 else mean + sd * probit() for p in ps]
    return [W_LOW if v < W_LOW else W_HIGH if v > W_HIGH else v for v in values]


# The hinges below write max(0.0, d) as `d if d > 0.0 else 0.0`, the
# comparison max makes, without a call per patient.


def measurement_errors(
    w_true: Sequence[float],
    group_a: Sequence[int],
    measurement_bias_on: bool,
    noise: Sequence[float],
    params: DgpParams,
) -> list[float]:
    """Signed oximeter errors in percentage points, one per patient.

    Everyone shares the baseline overread and noise; the differential
    shift-plus-hinge term applies to group A=1 only while the
    measurement-bias channel is on, and grows as true saturation falls
    below the pivot.
    """
    base, noise_sd = params.err_base, params.err_noise_sd
    errors = (base + noise_sd * z for z in noise)
    if not measurement_bias_on:
        return list(errors)
    shift, slope, pivot = params.err_group_shift, params.err_group_slope, params.err_pivot
    return [
        e + (shift + slope * (d if (d := pivot - w) > 0.0 else 0.0)) if a == 1 else e
        for e, w, a in zip(errors, w_true, group_a)
    ]


def treatment_assignments(
    w_star: Sequence[float],
    group_a: Sequence[int],
    systemic_bias_on: bool,
    mode: str,
    uniforms: Sequence[float],
    params: DgpParams,
) -> list[int]:
    """Supplemental-oxygen decisions from the measured saturations.

    Deterministic mode is the bare threshold protocol 1(W* < w_treat).
    Stochastic mode draws from a logistic model in the threshold margin,
    with a group penalty active only under systemic bias.
    """
    if mode == "deterministic":
        w_treat = params.w_treat
        return [1 if w < w_treat else 0 for w in w_star]
    if mode != "stochastic":
        raise ValueError(f"unknown treatment mode {mode!r}")
    intercept, slope, w_treat = params.treat_intercept, params.treat_slope, params.w_treat
    if systemic_bias_on:
        penalty = params.treat_group_penalty
        logits = [
            intercept + slope * (w_treat - w) + penalty * a for w, a in zip(w_star, group_a)
        ]
    else:
        logits = [intercept + slope * (w_treat - w) for w in w_star]
    return [1 if u < p else 0 for u, p in zip(uniforms, sigmoids(logits))]


def outcome_risks(
    w_true: Sequence[float], treated: Sequence[int], params: DgpParams
) -> list[float]:
    """Adverse-outcome probabilities; risk rises with hypoxemia depth, falls with treatment."""
    intercept, severity, benefit = params.out_intercept, params.out_severity, params.out_benefit
    w_hypox = params.w_hypox
    return sigmoids(
        [
            intercept + severity * (d if (d := w_hypox - w) > 0.0 else 0.0) - benefit * z
            for w, z in zip(w_true, treated)
        ]
    )


def outcome_assignments(
    w_true: Sequence[float],
    treated: Sequence[int],
    uniforms: Sequence[float],
    params: DgpParams,
) -> list[int]:
    """Adverse-outcome draws, one uniform per patient against its risk."""
    return [1 if u < p else 0 for u, p in zip(uniforms, outcome_risks(w_true, treated, params))]


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
    """Draw every patient's streams as columns, in one batched pass.

    Draws are keyed by (seed, patient_id, channel), so the toggles and
    treatment mode of ``config`` play no part here.  One
    ``CounterRng.uniform_columns`` call yields five uniforms per patient
    (group, saturation, noise, treatment, outcome), bit-identical to
    ``CounterRng.uniform``; the group, saturation and noise columns are
    then mapped whole, with no per-patient function call.
    """
    u_group, u_saturation, u_noise, u_treat, u_out = CounterRng(
        config.seed
    ).uniform_columns(config.n_total, _COHORT_CHANNELS)
    p_group1 = config.p_group1
    return CohortDraws(
        config.dgp,
        [1 if u < p_group1 else 0 for u in u_group],
        _saturation_inverse_cdf(u_saturation, config.dgp),
        normal_quantiles(u_noise),
        u_treat,
        u_out,
    )


def derive_cohort(
    draws: CohortDraws,
    measurement_bias_on: bool,
    systemic_bias_on: bool,
    treatment_mode: str,
) -> Cohort:
    """Build one scenario's cohort from shared draws; no random stream is read.

    Every step maps whole columns.  The cohort shares the draws' group
    and true-saturation columns.
    """
    dgp = draws.dgp
    group_a, w_true = draws.group_a, draws.w_true
    epsilon = measurement_errors(w_true, group_a, measurement_bias_on, draws.noise, dgp)
    # The raw reading r = w + e, clipped to min(max(r, 0.0), 100.0) by the
    # comparisons max and min make.
    w_star = [
        100.0 if 100.0 < (r := w + e) else 0.0 if 0.0 > r else r
        for w, e in zip(w_true, epsilon)
    ]
    treated = treatment_assignments(
        w_star, group_a, systemic_bias_on, treatment_mode, draws.u_treat, dgp
    )
    outcome = outcome_assignments(w_true, treated, draws.u_out, dgp)
    return Cohort(list(range(len(w_true))), group_a, w_true, w_star, epsilon, treated, outcome)


def generate_cohort(config: ScenarioConfig) -> Cohort:
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


def oracle_tau(params: DgpParams, cohort: Cohort) -> float:
    """Ground-truth treatment effect E[Y(0) - Y(1)] among the truly hypoxemic.

    The exact mean, over the patients with ``w_true < params.w_hypox``,
    of the untreated minus the treated outcome risk.  That is the stratum
    whose outcome contrast ``metrics.estimate_tau`` measures, so this is
    the value that estimator targets.
    """
    if None in cohort.w_true:
        raise ValueError("oracle_tau requires true saturations for every patient")
    w_hypox = params.w_hypox
    stratum = [w for w in cohort.w_true if w < w_hypox]
    if not stratum:
        raise ValueError("oracle_tau needs a truly hypoxemic patient")
    n = len(stratum)
    untreated = outcome_risks(stratum, [0] * n, params)
    treated = outcome_risks(stratum, [1] * n, params)
    return sum(map(sub, untreated, treated)) / n


def wstar_bins(w_star: Iterable[float], width: float) -> list[int]:
    """The bin of each measured value: floor(w_star / width + 0.5).

    Bin k is centred on k * width.  Raises ValueError when a quotient is
    infinite, which a tiny positive width makes of any reading above 0.
    """
    try:
        return list(map(math.floor, map(add, map(truediv, w_star, repeat(width)), repeat(0.5))))
    except OverflowError:
        raise ValueError(f"bin width {width!r} is too small for finite bins") from None
