"""Synthetic inpatient cohort generator with two switchable bias channels.

The data-generating process follows a simple causal ordering: true
arterial saturation W drives both the pulse-oximeter reading
W* = W + eps and, through treatment, the adverse outcome Y.  Group
membership A influences W* only through the measurement-error channel
(``err_group_shift``, ``err_group_slope``) and influences treatment only
through the systemic-bias channel (``treat_group_penalty``).  A channel
is off when its ``DgpParams`` group terms are 0.0; either can be switched
off without perturbing any random draw (common random numbers).
True saturation is normal, truncated to the window [70, 100], with its
mean at most 37 sd outside the window, so that one probit inversion
draws it (``_saturation_inverse_cdf``).

Generation runs in two stages: ``draw_cohort`` hashes every patient's
streams once, as whole columns, and ``derive_cohort`` applies the DGP
and treatment rule to those draws, so scenarios that share a seed can
share the draws.  Each formula of the process has one site, a
column map (``measurement_errors``, ``treatment_assignments``,
``outcome_risks``); a single patient is a one-element column.  The
outcome risks serve both the outcome draws and the exact ``oracle_tau``.
One more column map, ``_truly_hypoxemic``, is the one rule that selects
the truly hypoxemic (``w_true < w_hypox``): ``oracle_tau``, Table 1 and
the audit's stratum metrics all select through it.

A cohort is one frozen ``Cohort`` of columns, the type every layer
passes on: the generator and the CSV reader build it, and the writer,
the metrics, the grid and the figure read its columns.  It is immutable
and safe to share across threads; generation itself is a pure function
of the scenario config.  ``COHORT_COLUMNS`` names the columns once: it is
both the field order of ``Cohort`` and the cohort CSV header.  Beside it
stand the other column facts, once: the gold columns (filled both or
neither), the 0/1 columns and the oximeter's display range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import compress, repeat
from operator import add, sub, truediv
from typing import Iterable, Sequence

from .rng import Channel, CounterRng
from .stats.special import normal_cdf, normal_quantiles, sigmoids

__all__ = [
    "COHORT_COLUMNS",
    "Cohort",
    "CohortDraws",
    "DgpParams",
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

# Saturations live on this physiologic window.
W_LOW = 70.0
W_HIGH = 100.0
_COHORT_CHANNELS = (
    Channel.GROUP,
    Channel.SATURATION,
    Channel.NOISE,
    Channel.TREAT,
    Channel.OUTCOME,
)
# How many saturation_sd the saturation mean may lie outside the window:
# the inverse CDF needs Phi at the near edge as a normal float, Phi(-37) =
# 5.7e-300, and Phi falls below the smallest one (2.2e-308) at 37.52 sd.
_MAX_SD_OUTSIDE = 37.0
# The largest |probit| of a noise draw (the extreme uniforms map to
# -8.2924 and 8.2095); it bounds every measurement error (``DgpParams``).
_MAX_ABS_PROBIT = 8.3


def _require_finite(config) -> None:
    """Reject a NaN or infinite value in any float field of ``config``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def _require_in_window(config, *names: str) -> None:
    """Reject a saturation field of ``config`` outside the open window (W_LOW, W_HIGH)."""
    for name in names:
        value = getattr(config, name)
        if not W_LOW < value < W_HIGH:
            raise ValueError(f"{name}={value!r} outside ({W_LOW}, {W_HIGH})")


@dataclass(frozen=True, slots=True)
class DgpParams:
    """All generative parameters of the synthetic cohort.

    Measurement error (percentage points):
        eps = err_base
            + [A=1] * (err_group_shift + err_group_slope * max(0, err_pivot - W))
            + err_noise_sd * N(0, 1)

    Treatment (logit scale, stochastic mode):
        P(Z=1) = logistic(treat_intercept + treat_slope * (w_treat - W*)
                          + treat_group_penalty * A)
    Deterministic mode treats exactly when W* < w_treat.

    Outcome (logit scale):
        P(Y=1) = logistic(out_intercept + out_severity * max(0, w_hypox - W)
                          - out_benefit * Z)

    The group terms carry the two bias channels: the measurement channel
    is off when ``err_group_shift`` and ``err_group_slope`` are 0.0, the
    systemic channel when ``treat_group_penalty`` is 0.0.

    The defaults are calibrated so that, at n_total=2500 and
    p_group1=0.2, the simulated cohorts land on the documented
    acceptance targets (group error means, information ratio, occult
    hypoxemia and ventilation rates).

    Construction raises ValueError on an invalid field, so a ``DgpParams``
    that exists is valid.  ``saturation_mean`` may lie outside [W_LOW,
    W_HIGH] by at most ``_MAX_SD_OUTSIDE`` sd (with sd 0, not at all).
    The largest possible |eps| must be finite, so every cohort a
    ``DgpParams`` generates can be written and read back.
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
        _require_in_window(self, "w_treat", "w_hypox", "err_pivot")
        if self.w_hypox > self.w_treat:
            raise ValueError(
                f"w_hypox={self.w_hypox!r} must not exceed w_treat={self.w_treat!r}"
            )
        if self.err_noise_sd <= 0.0:
            raise ValueError(f"err_noise_sd must be positive, got {self.err_noise_sd!r}")
        if self.saturation_sd < 0.0:
            raise ValueError(f"saturation_sd must be >= 0, got {self.saturation_sd!r}")
        _require_finite(self)
        error_bound = (
            abs(self.err_base)
            + _MAX_ABS_PROBIT * self.err_noise_sd
            + abs(self.err_group_shift)
            + abs(self.err_group_slope) * (self.err_pivot - W_LOW)
        )
        if not math.isfinite(error_bound):
            raise ValueError(
                f"measurement error bound |err_base| + {_MAX_ABS_PROBIT} err_noise_sd + "
                f"|err_group_shift| + |err_group_slope| (err_pivot - {W_LOW:g}) is not finite"
            )
        reach = _MAX_SD_OUTSIDE * self.saturation_sd
        if not W_LOW - reach <= self.saturation_mean <= W_HIGH + reach:
            raise ValueError(
                f"saturation_mean={self.saturation_mean!r} lies more than {_MAX_SD_OUTSIDE:g} "
                f"saturation_sd outside [{W_LOW}, {W_HIGH}]"
            )


DEFAULT_DGP = DgpParams()


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One simulation scenario: sample design, treatment rule and DGP.

    Which bias channels are on is a property of ``dgp``: a channel is off
    when its group terms are 0.0.  Like ``DgpParams``, it is checked at
    construction.
    """

    n_total: int = 2500
    p_group1: float = 0.2
    seed: int = 1
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
class Cohort:
    """One cohort as equal-length columns, one entry per patient.

    The ``_GOLD_COLUMNS`` hold None for patients without a gold standard
    (rows of a file whose gold fields are blank); ``gold`` is True when
    every patient has both, and is computed once, here.  The
    ``_BINARY_COLUMNS`` hold only 0 and 1.  A generated ``w_star`` is
    ``w_true + epsilon`` clipped to ``_DISPLAY_RANGE``.  The columns are
    read, never written: cohorts derived from shared draws share their
    true-saturation and group columns.
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
        if any(len(getattr(self, name)) != n for name in COHORT_COLUMNS):
            raise ValueError("cohort columns differ in length")
        for name in _BINARY_COLUMNS:
            if not _BINARY.issuperset(getattr(self, name)):
                raise ValueError(f"{name} must hold only 0 and 1")
        gold = n > 0 and all(None not in getattr(self, name) for name in _GOLD_COLUMNS)
        object.__setattr__(self, "gold", gold)

    def __len__(self) -> int:
        return len(self.patient_id)


COHORT_COLUMNS = tuple(f.name for f in fields(Cohort) if f.init)
# The other column facts, read by ``Cohort``, ``derive_cohort`` and the CSV reader.
_GOLD_COLUMNS = ("w_true", "epsilon")
_BINARY_COLUMNS = ("group_a", "treated", "outcome")
_BINARY = frozenset((0, 1))
_DISPLAY_RANGE = (0.0, 100.0)


def _saturation_inverse_cdf(uniforms: Sequence[float], params: DgpParams) -> list[float]:
    """Map a column of uniforms through the saturation law's inverse CDF.

    The law is normal, truncated to [W_LOW, W_HIGH].  The normal CDF at
    the two window edges is evaluated once per column, and the probits
    come from one ``normal_quantiles`` pass.  With the mean below the
    window the CDF at both edges can round to 1.0, so there the law is
    inverted through its upper tail: the scale is negated, which the
    normal law's symmetry allows, and w still rises with u.  ``DgpParams``
    keeps the mean within ``_MAX_SD_OUTSIDE`` sd of the window, so the
    CDF at the near edge is a normal float.  Pathological tail draws that
    escape the window through floating point are clipped back to the
    bounds.
    """
    mean, sd = params.saturation_mean, params.saturation_sd
    if sd < 1e-12:
        return [min(max(mean, W_LOW), W_HIGH)] * len(uniforms)
    scale = -sd if mean < W_LOW else sd
    lo = normal_cdf((W_LOW - mean) / scale)
    hi = normal_cdf((W_HIGH - mean) / scale)
    ps = [lo + u * (hi - lo) for u in uniforms]
    # A NaN p is neither <= 0 nor >= 1, so normal_quantiles rejects it.
    probit = iter(normal_quantiles([p for p in ps if not (p <= 0.0 or p >= 1.0)])).__next__
    values = [W_LOW if p <= 0.0 else W_HIGH if p >= 1.0 else mean + scale * probit() for p in ps]
    return [W_LOW if v < W_LOW else W_HIGH if v > W_HIGH else v for v in values]


# The hinges below write max(0.0, d) as `d if d > 0.0 else 0.0`, the
# comparison max makes, without a call per patient.


def measurement_errors(
    w_true: Sequence[float],
    group_a: Sequence[int],
    noise: Sequence[float],
    params: DgpParams,
) -> list[float]:
    """Signed oximeter errors in percentage points, one per patient.

    Everyone shares the baseline overread and noise; the differential
    shift-plus-hinge term applies to group A=1 only, and grows as true
    saturation falls below the pivot.  An off measurement-bias channel is
    these group terms set to 0.0.
    """
    base, noise_sd = params.err_base, params.err_noise_sd
    shift, slope, pivot = params.err_group_shift, params.err_group_slope, params.err_pivot
    return [
        e + (shift + slope * (d if (d := pivot - w) > 0.0 else 0.0)) if a == 1 else e
        for e, w, a in zip((base + noise_sd * z for z in noise), w_true, group_a)
    ]


def treatment_assignments(
    w_star: Sequence[float],
    group_a: Sequence[int],
    mode: str,
    uniforms: Sequence[float],
    params: DgpParams,
) -> list[int]:
    """Supplemental-oxygen decisions from the measured saturations.

    Deterministic mode is the bare threshold protocol 1(W* < w_treat).
    Stochastic mode draws from a logistic model in the threshold margin,
    with a group penalty; an off systemic-bias channel is a penalty of 0.0.
    """
    if mode == "deterministic":
        w_treat = params.w_treat
        return [1 if w < w_treat else 0 for w in w_star]
    if mode != "stochastic":
        raise ValueError(f"unknown treatment mode {mode!r}")
    intercept, slope, w_treat = params.treat_intercept, params.treat_slope, params.w_treat
    penalty = params.treat_group_penalty
    logits = [intercept + slope * (w_treat - w) + penalty * a for w, a in zip(w_star, group_a)]
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


def _truly_hypoxemic(w_true: Sequence[float], w_hypox: float) -> list[bool]:
    """Which patients are truly hypoxemic: ``w_true < w_hypox``, one flag per patient."""
    return [w < w_hypox for w in w_true]


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
    """The random columns of one cohort, indexed by patient id, and its DGP.

    Every random quantity a cohort consumes is here: group membership,
    true saturation, the standard-normal oximeter noise and the treatment
    and outcome uniforms.  The DGP's error, treatment and outcome terms
    and the treatment rule act only through deterministic shifts of
    these, so one set of draws serves every scenario that shares the
    seed, size, group share and saturation law: a scenario with a channel
    switched off derives from ``replace(draws, dgp=...)``.
    """

    dgp: DgpParams
    group_a: list[int]
    w_true: list[float]
    noise: list[float]
    u_treat: list[float]
    u_out: list[float]


def draw_cohort(config: ScenarioConfig) -> CohortDraws:
    """Draw every patient's streams as columns, in one batched pass.

    Draws are keyed by (seed, patient_id, channel), so the group terms
    and treatment mode of ``config`` play no part here.  One
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


def derive_cohort(draws: CohortDraws, treatment_mode: str) -> Cohort:
    """Build the cohort of ``draws.dgp`` from shared draws; no random stream is read.

    Every step maps whole columns.  An off bias channel is its group terms
    set to 0.0, which adds +0.0 to each group-1 error or logit and so
    leaves it bit for bit as if the term were absent.  The cohort shares
    the draws' group and true-saturation columns.
    """
    dgp = draws.dgp
    group_a, w_true = draws.group_a, draws.w_true
    epsilon = measurement_errors(w_true, group_a, draws.noise, dgp)
    # The raw reading r = w + e, clipped to min(max(r, low), high) by the
    # comparisons max and min make.
    low, high = _DISPLAY_RANGE
    w_star = [
        high if high < (r := w + e) else low if low > r else r for w, e in zip(w_true, epsilon)
    ]
    treated = treatment_assignments(w_star, group_a, treatment_mode, draws.u_treat, dgp)
    outcome = outcome_assignments(w_true, treated, draws.u_out, dgp)
    return Cohort(list(range(len(w_true))), group_a, w_true, w_star, epsilon, treated, outcome)


def generate_cohort(config: ScenarioConfig) -> Cohort:
    """Simulate one cohort under the given scenario.

    Each patient's draws come from counter-based streams keyed by
    (seed, patient_id, channel), so regeneration is bit-identical and
    zeroing either channel's group terms leaves every channel's
    underlying uniforms untouched.
    """
    return derive_cohort(draw_cohort(config), config.treatment_mode)


def oracle_tau(params: DgpParams, cohort: Cohort) -> float:
    """Ground-truth treatment effect E[Y(0) - Y(1)] among the truly hypoxemic.

    The mean, over the patients with ``w_true < params.w_hypox``, of the
    untreated minus the treated outcome risk, within one ulp of the exact
    mean on any interpreter (``math.fsum``).  That is the stratum
    whose outcome contrast ``metrics.estimate_tau`` measures, so this is
    the value that estimator targets.
    """
    if not cohort.gold:
        raise ValueError("oracle_tau requires true saturations for every patient")
    stratum = list(compress(cohort.w_true, _truly_hypoxemic(cohort.w_true, params.w_hypox)))
    if not stratum:
        raise ValueError("oracle_tau needs a truly hypoxemic patient")
    n = len(stratum)
    untreated = outcome_risks(stratum, [0] * n, params)
    treated = outcome_risks(stratum, [1] * n, params)
    return math.fsum(map(sub, untreated, treated)) / n


def wstar_bins(w_star: Iterable[float], width: float) -> list[int]:
    """The bin of each measured value: floor(w_star / width + 0.5).

    Bin k is centred on k * width.  Raises ValueError when a quotient is
    infinite, which a tiny positive width makes of any reading above 0.
    """
    try:
        return list(map(math.floor, map(add, map(truediv, w_star, repeat(width)), repeat(0.5))))
    except OverflowError:
        raise ValueError(f"bin width {width!r} is too small for finite bins") from None
