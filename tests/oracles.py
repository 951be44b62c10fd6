"""Independent oracle implementations used to pin expected test values.

These deliberately avoid the package's own numerics: the normal CDF is a
high-precision Maclaurin erf series evaluated with mpmath, quantiles
come from bisection on it, tail probabilities from adaptive Simpson
integration of the densities, the AUC oracles integrate the
empirical ROC curve with the trapezoid rule and sum exact midranks (the
loop the package ran before it bisected, kept to pin its bits), and the
CMH statistic is summed in exact rationals.  The SplitMix64 finalizer
and its inverse are written out here to build stream keys whose draw is
a chosen word.  The cohort and Table-1 oracles are the exception: they
reuse the package's counter RNG and pin how draws are shared and how
the formulas are mapped over columns.
They hash every stream afresh for each scenario, as the generator did
before one set of draws served the whole grid, and apply the process's
formulas one patient at a time, as the generator did before it mapped
whole columns (the formulas are copied here, not imported).  The IRLS
oracle is the other exception: it is the per-row loop the fitter ran
before its column kernel, and reuses the package's solver, so it pins
the kernel's arithmetic and summation order bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp

from oxequity.cohort import W_HIGH, W_LOW, Cohort, PatientRecord
from oxequity.grid import Table1Summary
from oxequity.rng import Channel, CounterRng
from oxequity.stats.logistic import (
    _PERFECT_FIT_RESIDUAL,
    LogisticFit,
    SingularDesignError,
    _solve,
)
from oxequity.stats.special import normal_cdf, normal_quantile

mp.mp.dps = 40


def erf_series(x) -> mp.mpf:
    """Maclaurin series for erf, summed to 40-digit convergence."""
    x = mp.mpf(x)
    total = mp.mpf(0)
    term = x
    n = 0
    while abs(term) > mp.mpf(10) ** (-45) * (abs(total) + 1):
        total += term
        n += 1
        term = (
            (-1) ** n * x ** (2 * n + 1) / (mp.factorial(n) * (2 * n + 1))
        )
    return 2 / mp.sqrt(mp.pi) * total


def normal_cdf_oracle(x) -> float:
    x = mp.mpf(x)
    return float(mp.mpf("0.5") * (1 + erf_series(x / mp.sqrt(2))))


def normal_quantile_oracle(p: float) -> float:
    """Bisection of the erf-series CDF."""
    lo, hi = mp.mpf(-40), mp.mpf(40)
    target = mp.mpf(p)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp.mpf("0.5") * (1 + erf_series(mid / mp.sqrt(2))) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Plain adaptive Simpson quadrature."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = f(lmid), f(rmid)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 60)


def student_t_tail_oracle(t: float, df: float) -> float:
    """Upper tail of Student's t by adaptive integration of its density."""
    c = math.exp(
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def density(x):
        return c * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)

    if t < 0.0:
        return 1.0 - student_t_tail_oracle(-t, df)
    # integrate out to where the polynomial tail is negligible
    upper = max(t, 1.0) * 1e6 ** (1.0 / df) * 10.0
    return adaptive_simpson(density, t, upper, tol=1e-13)


def chi_square_tail_oracle(x: float, df: float) -> float:
    """Upper tail of the chi-square by integrating the density from 0.

    Integrates under the substitution u = v^2, which removes the
    integrable singularity of the density at zero when df < 2.
    """
    if x <= 0.0:
        return 1.0
    c = math.exp(-math.lgamma(df / 2.0) - (df / 2.0) * math.log(2.0))

    def transformed(v):
        if v <= 0.0:
            return 0.0 if df != 1.0 else 2.0 * c
        return 2.0 * c * v ** (df - 1.0) * math.exp(-v * v / 2.0)

    return 1.0 - adaptive_simpson(transformed, 0.0, math.sqrt(x), tol=1e-14)


def trapezoid_roc_auc(scores, labels) -> float:
    """Area under the empirical ROC curve by trapezoid integration."""
    pairs = sorted(zip(scores, labels), key=lambda p: -p[0])
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and pairs[j + 1][0] == pairs[i][0]:
            j += 1
        for k in range(i, j + 1):
            if pairs[k][1] == 1:
                tp += 1
            else:
                fp += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j + 1
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_midrank_oracle(scores, labels) -> float:
    """Mann-Whitney AUC from the exact midrank sum of the positives.

    The keyed sort and midrank loop ``auc_mann_whitney`` ran before it
    bisected into the sorted negatives; it pins the area bit for bit.
    """
    lab = [int(v) for v in labels]
    n_pos = sum(lab)
    n_neg = len(lab) - n_pos
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        midrank = 0.5 * (i + j) + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    rank_sum = math.fsum(r for r, v in zip(ranks, lab) if v == 1)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def bernoulli_loglik(design_rows, outcomes, beta) -> float:
    """Independent log-likelihood for finite-difference derivative checks."""
    total = 0.0
    for row, y in zip(design_rows, outcomes):
        eta = beta[0] + sum(b * x for b, x in zip(beta[1:], row))
        total += y * eta - (max(eta, 0.0) + math.log1p(math.exp(-abs(eta))))
    return total


def fd_hessian(design_rows, outcomes, beta, step: float = 1e-5):
    """Central finite-difference Hessian of the Bernoulli log-likelihood."""
    p = len(beta)

    def ll(b):
        return bernoulli_loglik(design_rows, outcomes, b)

    hessian = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            bpp = list(beta)
            bpm = list(beta)
            bmp = list(beta)
            bmm = list(beta)
            bpp[i] += step
            bpp[j] += step
            bpm[i] += step
            bpm[j] -= step
            bmp[i] -= step
            bmp[j] += step
            bmm[i] -= step
            bmm[j] -= step
            value = (ll(bpp) - ll(bpm) - ll(bmp) + ll(bmm)) / (4.0 * step * step)
            hessian[i][j] = value
            hessian[j][i] = value
    return hessian


def truncated_normal_inverse_oracle(
    u: float, mean: float, sd: float, lo: float = 70.0, hi: float = 100.0
) -> float:
    """Bisection inversion of the truncated-normal CDF built on the erf series."""

    def cdf(x):
        return mp.mpf("0.5") * (1 + erf_series((mp.mpf(x) - mean) / (sd * mp.sqrt(2))))

    c_lo, c_hi = cdf(lo), cdf(hi)
    target = c_lo + mp.mpf(u) * (c_hi - c_lo)
    a, b = mp.mpf(lo), mp.mpf(hi)
    for _ in range(120):
        midpoint = (a + b) / 2
        if cdf(midpoint) < target:
            a = midpoint
        else:
            b = midpoint
    return float((a + b) / 2)


def two_level_logistic_oracle(k0: int, n0: int, k1: int, n1: int):
    """Closed-form logistic MLE and Wald SEs for a single 0/1 covariate.

    With x in {0, 1} the model is saturated: the fitted probabilities are
    the observed rates k0/n0 and k1/n1, so the intercept is logit(k0/n0),
    the slope is logit(k1/n1) - logit(k0/n0), and the inverse information
    gives Var(intercept) = v0 and Var(slope) = v0 + v1 with
    v = 1 / (n p (1 - p)) = n / (k (n - k)).  Needs 0 < k < n in both
    levels; otherwise the MLE does not exist.
    """
    if not (0 < k0 < n0 and 0 < k1 < n1):
        raise ValueError("two-level MLE needs 0 < k < n in both levels")
    logit0 = math.log(k0 / (n0 - k0))
    logit1 = math.log(k1 / (n1 - k1))
    v0 = n0 / (k0 * (n0 - k0))
    v1 = n1 / (k1 * (n1 - k1))
    return (logit0, logit1 - logit0), (math.sqrt(v0), math.sqrt(v0 + v1))


def binomial_pmf_oracle(k: int, n: int, p: float) -> float:
    """Binomial probability mass from log-gamma, stable for large n."""
    return math.exp(
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _binomial_core(n: int, p: float, dropped: float) -> list[tuple[int, float]]:
    """(k, pmf) pairs of Bin(n, p) with at most ``dropped`` mass cut off.

    Each tail is trimmed while its accumulated mass stays within half of
    ``dropped``.
    """
    pmf = [binomial_pmf_oracle(k, n, p) for k in range(n + 1)]
    lo, cut = 0, 0.0
    while lo < n and cut + pmf[lo] <= dropped / 2.0:
        cut += pmf[lo]
        lo += 1
    hi, cut = n, 0.0
    while hi > lo and cut + pmf[hi] <= dropped / 2.0:
        cut += pmf[hi]
        hi -= 1
    return [(k, pmf[k]) for k in range(lo, hi + 1)]


def two_level_joint_coverage_oracle(
    truth: tuple[float, float],
    n0: int,
    n1: int,
    width: float = 3.0,
    dropped: float = 1e-12,
) -> float:
    """Exact probability that both MLEs fall within ``width`` Wald SEs of truth.

    Sums the two independent binomial pmfs of the per-level success counts
    over every (k0, k1) whose closed-form fit (``two_level_logistic_oracle``)
    covers both true coefficients.  Counts with no finite MLE count as
    misses.  The binomial tails are trimmed so that the joint mass left
    out is at most ``dropped``, which bounds the error of the result.
    """
    p0 = 1.0 / (1.0 + math.exp(-truth[0]))
    p1 = 1.0 / (1.0 + math.exp(-(truth[0] + truth[1])))
    core0 = _binomial_core(n0, p0, dropped / 2.0)
    core1 = _binomial_core(n1, p1, dropped / 2.0)
    total = 0.0
    for k0, mass0 in core0:
        if not 0 < k0 < n0:
            continue
        inner = 0.0
        for k1, mass1 in core1:
            if not 0 < k1 < n1:
                continue
            (b0, b1), (se0, se1) = two_level_logistic_oracle(k0, n0, k1, n1)
            if abs(b0 - truth[0]) <= width * se0 and abs(b1 - truth[1]) <= width * se1:
                inner += mass1
        total += mass0 * inner
    return total


def binomial_upper_tail_oracle(m: int, n: int, q: float) -> float:
    """P(X >= m) for X ~ Bin(n, q), summed term by term from log-gamma."""
    return math.fsum(binomial_pmf_oracle(k, n, q) for k in range(max(m, 0), n + 1))


def binomial_reject_count_oracle(n: int, q: float, level: float) -> int:
    """Smallest m with P(X >= m) <= level for X ~ Bin(n, q).

    A one-sided test of "X misses arise at rate q" rejects at ``level``
    when X reaches this count.
    """
    m = 0
    while binomial_upper_tail_oracle(m, n, q) > level:
        m += 1
    return m


def cmh_statistic_oracle(strata) -> Fraction | None:
    """Exact CMH statistic of integer 2x2 strata; None when every stratum is degenerate.

    A stratum with a zero row or column margin carries no information and
    is skipped, as in the package.
    """
    excess = variance = Fraction(0)
    for (a, b), (c, d) in strata:
        n = a + b + c + d
        r1, r2, c1, c2 = a + b, c + d, a + c, b + d
        if 0 in (r1, r2, c1, c2):
            continue
        excess += a - Fraction(r1 * c1, n)
        variance += Fraction(r1 * r2 * c1 * c2, n * n * (n - 1))
    return excess * excess / variance if variance else None


_MASK64 = (1 << 64) - 1
_SM_GOLDEN = 0x9E3779B97F4A7C15
_SM_MULT = 0xBF58476D1CE4E5B9
_SM_MULT2 = 0x94D049BB133111EB


def splitmix64_finalizer(z: int) -> int:
    z = ((z ^ (z >> 30)) * _SM_MULT) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MULT2) & _MASK64
    return z ^ (z >> 31)


def _undo_xorshift(y: int, s: int) -> int:
    """The x with x ^ (x >> s) == y: each pass fixes s more top bits."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def splitmix64_finalizer_inverse(z: int) -> int:
    z = _undo_xorshift(z, 31)
    z = _undo_xorshift((z * pow(_SM_MULT2, -1, 1 << 64)) & _MASK64, 27)
    return _undo_xorshift((z * pow(_SM_MULT, -1, 1 << 64)) & _MASK64, 30)


def channel_for_word(seed: int, patient_id: int, word: int, index: int = 0) -> int:
    """The channel key whose 64-bit word at (seed, patient_id, channel, index) is ``word``.

    A draw absorbs seed, patient, channel and index in turn, each as
    ``z + key * MULT + GOLDEN`` followed by the finalizer; the finalizer is
    a bijection and MULT is odd, so the channel step can be solved for.
    """
    seed_key = splitmix64_finalizer(((seed & _MASK64) + _SM_GOLDEN) & _MASK64)
    after_patient = splitmix64_finalizer(
        (seed_key + patient_id * _SM_MULT + _SM_GOLDEN) & _MASK64
    )
    after_channel = (
        splitmix64_finalizer_inverse(word) - index * _SM_MULT - _SM_GOLDEN
    ) & _MASK64
    channel_sum = splitmix64_finalizer_inverse(after_channel)
    return ((channel_sum - after_patient - _SM_GOLDEN) * pow(_SM_MULT, -1, 1 << 64)) & _MASK64


def records_of(cohort: Cohort) -> list[PatientRecord]:
    """One record per patient of a cohort, in its order: the row view tests read."""
    columns = (
        cohort.patient_id,
        cohort.group_a,
        cohort.w_true,
        cohort.w_star,
        cohort.epsilon,
        cohort.treated,
        cohort.outcome,
    )
    return [PatientRecord(*row) for row in zip(*columns)]


def gold_free(cohort: Cohort) -> Cohort:
    """The cohort without its gold standard, as a file lacking the gold columns reads."""
    n = len(cohort)
    return replace(cohort, w_true=[None] * n, epsilon=[None] * n)


def _sigmoid_oracle(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _measurement_error_oracle(w_true, group_a, measurement_bias_on, noise_draw, params):
    eps = params.err_base + params.err_noise_sd * noise_draw
    if measurement_bias_on and group_a == 1:
        eps += params.err_group_shift + params.err_group_slope * max(
            0.0, params.err_pivot - w_true
        )
    return eps


def _treatment_assignment_oracle(w_star, group_a, systemic_bias_on, mode, uniform_draw, params):
    if mode == "deterministic":
        return 1 if w_star < params.w_treat else 0
    logit = params.treat_intercept + params.treat_slope * (params.w_treat - w_star)
    if systemic_bias_on:
        logit += params.treat_group_penalty * group_a
    return 1 if uniform_draw < _sigmoid_oracle(logit) else 0


def _outcome_assignment_oracle(w_true, treated, uniform_draw, params):
    logit = (
        params.out_intercept
        + params.out_severity * max(0.0, params.w_hypox - w_true)
        - params.out_benefit * treated
    )
    return 1 if uniform_draw < _sigmoid_oracle(logit) else 0


def generate_cohort_oracle(config) -> list[PatientRecord]:
    """Per-patient generation loop: every stream hashed for this scenario alone.

    The truncation bounds of the saturation law are recomputed for each
    patient, as the generator did before they were hoisted per cohort.
    """
    rng = CounterRng(config.seed)
    dgp = config.dgp
    mean, sd = dgp.saturation_mean, dgp.saturation_sd
    records = []
    for i in range(config.n_total):
        group_a = 1 if rng.uniform(i, Channel.GROUP) < config.p_group1 else 0
        u = rng.uniform(i, Channel.SATURATION, 0)
        if sd < 1e-12:
            w_true = min(max(mean, W_LOW), W_HIGH)
        else:
            lo = normal_cdf((W_LOW - mean) / sd)
            hi = normal_cdf((W_HIGH - mean) / sd)
            p = lo + u * (hi - lo)
            if p <= 0.0 or p >= 1.0:
                w_true = W_LOW if p <= 0.0 else W_HIGH
            else:
                w_true = min(max(mean + sd * normal_quantile(p), W_LOW), W_HIGH)
        noise = normal_quantile(rng.uniform(i, Channel.NOISE))
        epsilon = _measurement_error_oracle(
            w_true, group_a, config.measurement_bias_on, noise, dgp
        )
        w_star = min(max(w_true + epsilon, 0.0), 100.0)
        treated = _treatment_assignment_oracle(
            w_star,
            group_a,
            config.systemic_bias_on,
            config.treatment_mode,
            rng.uniform(i, Channel.TREAT),
            dgp,
        )
        outcome = _outcome_assignment_oracle(
            w_true, treated, rng.uniform(i, Channel.OUTCOME), dgp
        )
        records.append(
            PatientRecord(
                patient_id=i,
                group_a=group_a,
                w_true=w_true,
                w_star=w_star,
                epsilon=epsilon,
                treated=treated,
                outcome=outcome,
            )
        )
    return records


def scenario_configs_oracle(base):
    """The four grid scenarios of ``base``, by label, from this file's own table."""
    toggles = (
        ("both", True, True),
        ("measurement_only", True, False),
        ("systemic_only", False, True),
        ("none", False, False),
    )
    return {
        label: replace(base, measurement_bias_on=measurement, systemic_bias_on=systemic)
        for label, measurement, systemic in toggles
    }


def threshold_protocol_oracle(config) -> Table1Summary:
    """Table 1 from a fresh deterministic cohort, re-hashing the outcome uniforms.

    The measured-driven column is what the deterministic, both-biases
    cohort carries; the true-driven column treats by 1(W < w_treat) and
    replays each patient's outcome uniform straight from the counter RNG.
    """
    cfg = replace(
        config,
        treatment_mode="deterministic",
        measurement_bias_on=True,
        systemic_bias_on=True,
    )
    cohort = generate_cohort_oracle(cfg)
    rng = CounterRng(cfg.seed)
    dgp = cfg.dgp
    untreated = {}
    vent_measured = {}
    vent_true = {}
    for a in (0, 1):
        group = [r for r in cohort if r.group_a == a]
        hypoxemic = [r for r in group if r.w_true < dgp.w_hypox]
        untreated[a] = sum(1 for r in hypoxemic if r.treated == 0) / len(hypoxemic)
        vent_measured[a] = sum(r.outcome for r in group) / len(group)
        true_driven = 0
        for r in group:
            treated_true = 1 if r.w_true < dgp.w_treat else 0
            u = rng.uniform(r.patient_id, Channel.OUTCOME)
            true_driven += _outcome_assignment_oracle(r.w_true, treated_true, u, dgp)
        vent_true[a] = true_driven / len(group)
    return Table1Summary(
        untreated_hypoxemic=untreated,
        outcome_measured_driven=vent_measured,
        outcome_true_driven=vent_true,
    )


def _irls_log_likelihood_oracle(x_rows, y, beta) -> float:
    total = 0.0
    for xi, yi in zip(x_rows, y):
        eta = 0.0
        for j, b in enumerate(beta):
            eta += xi[j] * b
        # log(1 + exp(eta)) without overflow
        total += yi * eta - (max(eta, 0.0) + math.log1p(math.exp(-abs(eta))))
    return total


def _irls_score_and_information_oracle(x_rows, y, beta):
    p = len(beta)
    score = [0.0] * p
    info = [[0.0] * p for _ in range(p)]
    max_abs_resid = 0.0
    for xi, yi in zip(x_rows, y):
        eta = 0.0
        for j in range(p):
            eta += xi[j] * beta[j]
        mu = _sigmoid_oracle(eta)
        resid = yi - mu
        if abs(resid) > max_abs_resid:
            max_abs_resid = abs(resid)
        w = mu * (1.0 - mu)
        for j in range(p):
            xj = xi[j]
            score[j] += xj * resid
            wxj = w * xj
            row = info[j]
            for k in range(j, p):
                row[k] += wxj * xi[k]
    for j in range(p):
        for k in range(j + 1, p):
            info[k][j] = info[j][k]
    return score, info, max(abs(s) for s in score), max_abs_resid


def fit_logistic_irls_oracle(design_rows, outcomes, max_iter=50, tol=1e-8) -> LogisticFit:
    """The per-row IRLS loop: one (1, x...) tuple per row, sums row by row."""
    x_rows = [(1.0, *(float(v) for v in row)) for row in design_rows]
    y = [int(v) for v in outcomes]
    if len(x_rows) != len(y):
        raise ValueError("design and outcome lengths differ")
    if not x_rows:
        raise ValueError("empty design")
    width = len(x_rows[0])
    if any(len(xi) != width for xi in x_rows):
        raise ValueError("design rows have inconsistent dimension")
    if any(v not in (0, 1) for v in y):
        raise ValueError("outcomes must be binary")

    beta = [0.0] * width
    loglik = _irls_log_likelihood_oracle(x_rows, y, beta)
    iterations = 0
    score, info, max_abs_score, max_resid = _irls_score_and_information_oracle(
        x_rows, y, beta
    )
    try:
        _solve(info, [score])
    except ValueError as exc:
        column = int(str(exc).rsplit(" ", 1)[-1])
        raise SingularDesignError([column]) from None
    while iterations < max_iter and max_abs_score > tol:
        try:
            (delta,) = _solve(info, [score])
        except ValueError:
            break
        step = 1.0
        for _ in range(30):
            candidate = [b + step * d for b, d in zip(beta, delta)]
            candidate_ll = _irls_log_likelihood_oracle(x_rows, y, candidate)
            if candidate_ll >= loglik - 1e-10:
                break
            step *= 0.5
        beta, loglik = candidate, candidate_ll
        iterations += 1
        score, info, max_abs_score, max_resid = _irls_score_and_information_oracle(
            x_rows, y, beta
        )

    converged = max_abs_score <= tol and max_resid > _PERFECT_FIT_RESIDUAL

    covariance = None
    if converged:
        identity = [[1.0 if i == j else 0.0 for i in range(width)] for j in range(width)]
        try:
            inv_cols = _solve(info, identity)
            covariance = [[inv_cols[j][i] for j in range(width)] for i in range(width)]
            ses = [math.sqrt(max(covariance[j][j], 0.0)) for j in range(width)]
        except ValueError:
            ses = [math.nan] * width
            converged = False
    else:
        ses = [math.nan] * width
    wald = [
        b / se if se and not math.isnan(se) and se > 0.0 else math.nan
        for b, se in zip(beta, ses)
    ]
    p_values = [
        2.0 * normal_cdf(-abs(z)) if not math.isnan(z) else math.nan for z in wald
    ]
    return LogisticFit(
        coefficients=beta,
        standard_errors=ses,
        wald_z=wald,
        p_values=p_values,
        converged=converged,
        iterations=iterations,
        max_abs_score=max_abs_score,
        covariance=covariance,
    )
