"""Property checks over generated inputs (hypothesis, derandomized in conftest)."""

import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from oxequity.cohort import Cohort, ScenarioConfig, generate_cohort  # noqa: E402
from oxequity.io import read_cohort_csv, write_cohort_csv  # noqa: E402
from oxequity.metrics import METRIC_ORDER, AuditConfig, run_full_audit  # noqa: E402
from oxequity.reports import report_to_json  # noqa: E402
from oxequity.rng import Channel, CounterRng  # noqa: E402

SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**80))


@hypothesis.given(
    seed=SEEDS,
    n=st.integers(0, 300),
    channels=st.lists(st.sampled_from(list(Channel)), unique=True),
)
@hypothesis.example(seed=2**64 + 1, n=300, channels=list(Channel))
@hypothesis.example(seed=0, n=0, channels=[5])
def test_column_draws_equal_scalar_draws(seed, n, channels):
    rng = CounterRng(seed)
    expected = [[rng.uniform(i, channel) for i in range(n)] for channel in channels]
    assert rng.uniform_columns(n, channels) == expected


# --- the audit over a cohort's columns -----------------------------------------

AUDIT_SETTINGS = hypothesis.settings(max_examples=40, deadline=None)
COHORTS = st.builds(
    ScenarioConfig,
    n_total=st.integers(2, 400),
    seed=st.integers(0, 2**64 - 1),
    measurement_bias_on=st.booleans(),
    systemic_bias_on=st.booleans(),
)


def _verdicts(report):
    return [(m.metric_name, m.status, m.flagged) for m in report.metrics]


def _audit(cohort):
    try:
        return run_full_audit(cohort, AuditConfig())
    except ValueError as exc:  # a one-group cohort, say: compare the failure
        return f"{type(exc).__name__}: {exc}"


def _numbers(report):
    """The values of the "ok" metrics and the cohort summary.

    A metric that is not "ok" has only diagnostics, such as the score a
    separated logistic fit stopped at, which is rounding noise.
    """
    out = []
    for m in report.metrics:
        if m.status != "ok":
            continue
        out += [m.contrast, *m.group_values.values(), *m.extras.values()]
        if m.test is not None:
            out += [m.test.statistic, m.test.df, m.test.p_value]
    out += list(report.cohort_summary.values())
    return out


@AUDIT_SETTINGS
@hypothesis.given(config=COHORTS)
def test_csv_round_trip_keeps_statuses_and_flags(config):
    cohort = generate_cohort(config)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "cohort.csv"
        write_cohort_csv(cohort, path)
        loaded = read_cohort_csv(path)
    in_memory, round_trip = _audit(cohort), _audit(loaded)
    if isinstance(in_memory, str):
        assert round_trip == in_memory
    else:
        assert _verdicts(round_trip) == _verdicts(in_memory)


@AUDIT_SETTINGS
@hypothesis.given(config=COHORTS, shuffle=st.integers(0, 2**32 - 1))
def test_audit_invariant_under_row_order_and_ids(config, shuffle):
    cohort = generate_cohort(config)
    rng = random.Random(shuffle)
    order = list(range(len(cohort)))
    rng.shuffle(order)
    new_ids = rng.sample(range(10 * len(cohort)), len(cohort))
    columns = {
        name: [getattr(cohort, name)[i] for i in order]
        for name in ("group_a", "w_true", "w_star", "epsilon", "treated", "outcome")
    }
    permuted = replace(cohort, patient_id=new_ids, **columns)
    base, moved = _audit(cohort), _audit(permuted)
    if isinstance(base, str):
        assert moved == base
        return
    assert _verdicts(moved) == _verdicts(base)
    # IRLS folds its sums in row order, so the last bits may move
    for a, b in zip(_numbers(moved), _numbers(base), strict=True):
        if isinstance(a, float) and isinstance(b, float):
            assert math.isclose(a, b, rel_tol=1e-9)
        else:
            assert a == b


# --- any small cohort: every "ok" value is finite --------------------------------

BINARY = st.sampled_from((0, 1))


@st.composite
def small_cohorts(draw):
    """2-60 patients of both groups, any readings and 0/1 columns, gold or not."""
    n = draw(st.integers(2, 60))
    others = draw(st.lists(BINARY, min_size=n - 2, max_size=n - 2))
    group_a = draw(st.permutations([0, 1, *others]))
    w_star = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        w_true = draw(st.lists(st.floats(70.0, 100.0), min_size=n, max_size=n))
        epsilon = [s - t for s, t in zip(w_star, w_true)]
    else:
        w_true = epsilon = [None] * n
    treated, outcome = (draw(st.lists(BINARY, min_size=n, max_size=n)) for _ in range(2))
    return Cohort(list(range(n)), group_a, w_true, w_star, epsilon, treated, outcome)


# Gold-free and quasi-separated: the IRLS score test passes while the
# final information matrix is singular.
QUASI_SEPARATED = Cohort(
    list(range(7)),
    [0, 0, 0, 0, 1, 1, 1],
    [None] * 7,
    [0.0, 0.0, 0.0, 25.0, 0.0, 8.0, 77.0],
    [None] * 7,
    [0, 0, 0, 0, 1, 0, 1],
    [0] * 7,
)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(cohort=small_cohorts(), width=st.floats(0.01, 5.0))
@hypothesis.example(cohort=QUASI_SEPARATED, width=1.0)
def test_every_ok_value_of_any_small_cohort_is_finite(cohort, width):
    report = run_full_audit(cohort, AuditConfig(wstar_bin_width=width))
    assert tuple(m.metric_name for m in report.metrics) == METRIC_ORDER
    assert all(math.isfinite(v) for v in _numbers(report) if v is not None)
    report_to_json([report])
