"""Property checks over generated inputs (hypothesis, derandomized in conftest)."""

import csv
import math
import random
import re
import tempfile
from dataclasses import replace
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from oxequity import io  # noqa: E402
from oxequity.cohort import (  # noqa: E402
    COHORT_COLUMNS,
    TREATMENT_MODES,
    Cohort,
    ScenarioConfig,
    generate_cohort,
)
from oxequity.io import read_cohort_csv, write_cohort_csv  # noqa: E402
from oxequity.metrics import (  # noqa: E402
    METRIC_ORDER,
    AuditConfig,
    EquityReport,
    MetricResult,
    run_full_audit,
)
from oxequity.reports import (  # noqa: E402
    parse_report_json,
    report_to_csv,
    report_to_json,
    report_to_markdown,
)
from oxequity.rng import Channel, CounterRng  # noqa: E402
from oxequity.stats import hypotests  # noqa: E402

from oracles import gfm_cells, gold_free, scenario_configs_oracle  # noqa: E402

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


# --- common random numbers ---------------------------------------------------------


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(seed=SEEDS, n=st.integers(2, 200), mode=st.sampled_from(TREATMENT_MODES))
def test_scenarios_of_a_seed_share_their_draws(seed, n, mode):
    # Each scenario is generated from scratch: only common random numbers
    # can make these columns agree.
    base = ScenarioConfig(n_total=n, seed=seed, treatment_mode=mode)
    cohorts = {label: generate_cohort(c) for label, c in scenario_configs_oracle(base).items()}
    both = cohorts["both"]
    for cohort in cohorts.values():
        assert (cohort.w_true, cohort.group_a) == (both.w_true, both.group_a)
    # Within a pair that shares the measurement terms, only the treatment
    # penalty differs.
    for first, second in (("both", "measurement_only"), ("systemic_only", "none")):
        assert cohorts[first].w_star == cohorts[second].w_star
        assert cohorts[first].epsilon == cohorts[second].epsilon


# --- the audit over a cohort's columns -----------------------------------------

AUDIT_SETTINGS = hypothesis.settings(max_examples=40, deadline=None)
COHORTS = st.builds(
    ScenarioConfig,
    n_total=st.integers(2, 400),
    seed=st.integers(0, 2**64 - 1),
    dgp=st.sampled_from([c.dgp for c in scenario_configs_oracle(ScenarioConfig()).values()]),
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


# --- the cohort file round trip ----------------------------------------------------

BINARY = st.sampled_from((0, 1))
# Lines the reader skips: empty, whitespace only, and fields all blank.
BLANK_LINES = ("", "   ", " \t", ",,,,,,", " , ,\t, , , , ")


def _decimals(lo, hi):
    """Floats of [lo, hi], many with a 5th decimal, and negative zeros if 0 is in range."""
    values = st.floats(lo, hi) | st.integers(round(lo * 1e5), round(hi * 1e5)).map(
        lambda k: k / 1e5
    )
    return values | st.sampled_from((-0.0, -4e-5)) if lo <= 0.0 else values


@st.composite
def file_cohorts(draw):
    """1-20 patients with unique ids, and gold for all, some or none of them."""
    n = draw(st.integers(1, 20))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    gold = column(st.booleans()) if draw(st.booleans()) else [draw(st.booleans())] * n
    return Cohort(
        patient_id=draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True)),
        group_a=column(BINARY),
        w_true=[v if g else None for v, g in zip(column(_decimals(70.0, 100.0)), gold)],
        w_star=column(_decimals(0.0, 100.0)),
        epsilon=[v if g else None for v, g in zip(column(_decimals(-20.0, 20.0)), gold)],
        treated=column(BINARY),
        outcome=column(BINARY),
    )


def _bits(columns):
    """Each column's values by repr, which tells -0.0 from 0.0."""
    return [list(map(repr, column)) for column in columns]


# Gold-free, written without the gold columns, with a blank line.
GOLD_FREE_TWO_ROWS = Cohort(
    [3, 4], [1, 0], [None] * 2, [91.23456, -0.0], [None] * 2, [0, 1], [1, 0]
)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    cohort=file_cohorts(),
    drop_gold=st.booleans(),
    blank_lines=st.lists(st.tuples(st.integers(0, 20), st.sampled_from(BLANK_LINES)), max_size=4),
    padded=st.lists(st.booleans(), max_size=20),
    block=st.integers(1, 6),
)
@hypothesis.example(
    cohort=GOLD_FREE_TWO_ROWS, drop_gold=True, blank_lines=[(1, "")], padded=[], block=512
)
def test_cohort_file_round_trip(cohort, drop_gold, blank_lines, padded, block):
    # A file without the gold columns reads as the gold-free cohort.
    expected = gold_free(cohort) if drop_gold else cohort
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "cohort.csv"
        write_cohort_csv(expected, path)
        written = path.read_bytes()
        rows = [line.split(",") for line in written.decode().splitlines()]
        if drop_gold:
            rows = [[cell for i, cell in enumerate(row) if i not in (2, 4)] for row in rows]
        for i, pad in enumerate(padded[: len(rows) - 1], start=1):
            if pad:
                rows[i] = [f" {cell}\t" for cell in rows[i]]
        lines = [",".join(row) for row in rows]
        for position, line in sorted(blank_lines, reverse=True):
            lines.insert(1 + position % len(rows), line)
        path.write_text("\n".join(lines) + "\n")
        # Small blocks mix the block and row parse paths within one file.
        with mock.patch.object(io, "_BLOCK", block):
            loaded = read_cohort_csv(path)
        assert _bits(getattr(loaded, c) for c in COHORT_COLUMNS) == _bits(
            [v if v is None or isinstance(v, int) else float(f"{v:.4f}") for v in column]
            for column in (getattr(expected, c) for c in COHORT_COLUMNS)
        )
        write_cohort_csv(loaded, path)
        assert path.read_bytes() == written


def test_every_column_has_one_rule():
    assert sorted(name for name, _, _ in io._RULES) == sorted(COHORT_COLUMNS)


# --- any small cohort: every "ok" value is finite --------------------------------



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


# --- the report JSON round trip ---------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Free text, with the characters that CSV and markdown escape drawn often.
TEXT = st.text(st.characters() | st.sampled_from('\\|,"\r\n'))
TESTS = st.builds(
    hypotests.TestResult,
    statistic=FINITE,
    df=st.none() | FINITE,
    p_value=FINITE,
    direction=TEXT,
    degenerate=st.booleans(),
)
METRICS = st.builds(
    MetricResult,
    metric_name=st.sampled_from(METRIC_ORDER),
    group_values=st.dictionaries(st.sampled_from((0, 1)), FINITE),
    contrast=st.none() | FINITE,
    test=st.none() | TESTS,
    flagged=st.booleans(),
    interpretation=TEXT,
    status=TEXT,
    extras=st.dictionaries(TEXT, FINITE, max_size=3),
)
REPORTS = st.builds(
    EquityReport,
    scenario_label=TEXT,
    metrics=st.lists(METRICS, max_size=4, unique_by=lambda m: m.metric_name),
    cohort_summary=st.dictionaries(TEXT, st.none() | st.integers() | FINITE, max_size=4),
)


@hypothesis.settings(deadline=None)
@hypothesis.given(reports=st.lists(REPORTS, min_size=1, max_size=3))
def test_report_json_round_trip_is_exact(reports):
    text = report_to_json(reports)
    parsed = parse_report_json(text)
    assert parsed == reports
    assert report_to_json(parsed) == text


# --- the text tables --------------------------------------------------------------

# Labels without a NUL, which the CSV reader rejects before CPython 3.11.
LABELS = st.text(st.characters(exclude_characters="\x00") | st.sampled_from('\\|,"\r\n'))


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(labelled=st.lists(st.tuples(REPORTS, LABELS), min_size=1, max_size=3))
@hypothesis.example(labelled=[(EquityReport("x", [], {}), "a \\| b")])
def test_text_tables_keep_their_shape_for_any_label(labelled):
    reports = [replace(report, scenario_label=label) for report, label in labelled]
    labels = [label for _, label in labelled]

    rows = list(csv.reader(StringIO(report_to_csv(reports), newline="")))
    assert all(len(row) == 9 for row in rows)
    assert [row[1] for row in rows[1:]] == [r.scenario_label for r in reports for _ in r.metrics]

    # Every line splits, by CommonMark's backslash escapes, into the header's
    # cells, and the header reads each label back, line breaks as <br>.
    lines = report_to_markdown(reports).split("\n")
    assert lines.pop() == ""
    header = [re.sub(r"\r\n?|\n", "<br>", label).strip() for label in labels]
    assert gfm_cells(lines[0]) == ["Metric", "Interpretation", *header]
    assert all(len(gfm_cells(line)) == 2 + len(reports) for line in lines)
