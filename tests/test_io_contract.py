"""Reader contract: what ``read_cohort_csv`` accepts, skips and rejects, and where.

The reader parses rows in blocks, as columns.  These tests pin the
behaviour a row-at-a-time reader has, on files larger than one block:
mixed gold and blank-gold rows, blank and whitespace-only lines, padded
cells, ragged rows, non-finite values, and which fault is reported when a
file holds several (the first in row-major order, with the columns of a
row checked in a fixed order).  They read cohorts only through the
reader, the audit and the CLI, so they hold for any cohort type.
"""

import pytest

from oxequity.cli import main
from oxequity.cohort import ScenarioConfig, generate_cohort
from oxequity.figure import figure_summary
from oxequity.io import CohortSchemaError, read_cohort_csv, write_cohort_csv
from oxequity.metrics import AuditConfig, run_full_audit
from oxequity.reports import report_to_json

N = 5000  # more rows than one parse block
GOLD_METRICS = {
    "representativeness",
    "information_bias",
    "treatment_disparity",
    "equality_of_opportunity",
    "outcome_decomposition",
    "group_auc",
}


@pytest.fixture(scope="module")
def lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "cohort.csv"
    write_cohort_csv(generate_cohort(ScenarioConfig(n_total=N, seed=23)), path)
    return path.read_text().splitlines()


def _write(tmp_path, lines, name="cohort.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _set(lines, file_row, column, value):
    """A copy of ``lines`` with one cell replaced (file rows are 1-based)."""
    out = list(lines)
    cells = out[file_row - 1].split(",")
    cells[column] = value
    out[file_row - 1] = ",".join(cells)
    return out


def _audit_json(path):
    return report_to_json([run_full_audit(read_cohort_csv(path), AuditConfig())])


def _fault(path):
    with pytest.raises(CohortSchemaError) as excinfo:
        read_cohort_csv(path)
    return excinfo.value.row, excinfo.value.column, str(excinfo.value)


W_TRUE, W_STAR, EPSILON, TREATED, OUTCOME = 2, 3, 4, 5, 6


def test_mixed_gold_rows_skip_gold_metrics(tmp_path, lines, capsys):
    mixed = lines
    for file_row in (3, 2500, N + 1):
        mixed = _set(_set(mixed, file_row, W_TRUE, ""), file_row, EPSILON, "")
    path = _write(tmp_path, mixed)
    cohort = read_cohort_csv(path)
    assert len(cohort) == N
    report = run_full_audit(cohort, AuditConfig())
    for metric in report.metrics:
        if metric.metric_name in GOLD_METRICS:
            assert metric.status == "skipped: no gold standard", metric.metric_name
        else:
            assert metric.status == "ok", metric.metric_name
    assert report.cohort_summary["hypoxemia_rate_group0"] is None
    with pytest.raises(ValueError, match="gold-standard"):
        figure_summary(cohort)
    assert main(["audit", "--in", str(path), "--require-gold"]) == 1
    assert capsys.readouterr().err == (
        "error: gold standard required, but patient_id 1 has none\n"  # file row 3
    )
    assert main(["figure", "--in", str(path)]) == 1
    assert capsys.readouterr().err == "error: figure data needs gold-standard true saturations\n"


def test_half_blank_gold_row_rejected(tmp_path, lines):
    path = _write(tmp_path, _set(lines, 4000, EPSILON, " "))
    assert _fault(path) == (
        4000,
        "epsilon",
        "expected a number, got '' (row 4000, column 'epsilon')",
    )


def test_blank_lines_and_padded_cells_change_nothing(tmp_path, lines):
    clean = _write(tmp_path, lines, "clean.csv")
    noisy = list(lines)
    for file_row in (10, 2049, 2050, 4999):
        noisy[file_row - 1] = ",".join(f" {cell} " for cell in noisy[file_row - 1].split(","))
    noisy.insert(3000, "")
    noisy.insert(2000, "   ")
    noisy.insert(1000, ",,,,,,")
    noisy.insert(1, " , ,\t, , , , ")
    path = _write(tmp_path, noisy, "noisy.csv")
    assert len(read_cohort_csv(path)) == N
    assert _audit_json(path) == _audit_json(clean)


def test_fault_row_counts_skipped_lines(tmp_path, lines):
    noisy = _set(lines, 3500, TREATED, "2")
    noisy.insert(100, "")
    noisy.insert(50, "  ")
    path = _write(tmp_path, noisy)
    assert _fault(path) == (
        3502,
        "treated",
        "expected 0 or 1, got '2' (row 3502, column 'treated')",
    )


@pytest.mark.parametrize("extra", (True, False), ids=("long", "short"))
def test_ragged_row(tmp_path, lines, extra):
    ragged = list(lines)
    ragged[2999] = ragged[2999] + ",1" if extra else ragged[2999].rsplit(",", 1)[0]
    found = 8 if extra else 6
    assert _fault(_write(tmp_path, ragged)) == (
        3000,
        None,
        f"expected 7 fields, found {found} (row 3000)",
    )


@pytest.mark.parametrize(
    "value, message",
    (
        ("nan", "value is NaN"),
        ("inf", "value inf outside [0.0, 100.0]"),
        ("-inf", "value -inf outside [0.0, 100.0]"),
    ),
)
def test_non_finite_w_star(tmp_path, lines, value, message):
    path = _write(tmp_path, _set(lines, 4321, W_STAR, value))
    assert _fault(path) == (4321, "w_star", f"{message} (row 4321, column 'w_star')")


def test_first_fault_in_row_major_order(tmp_path, lines):
    # An earlier row's late column beats a later row's early column ...
    faulty = _set(lines, 2100, OUTCOME, "7")
    faulty = _set(faulty, 2300, W_TRUE, "69.0000")
    faulty = _set(faulty, 4800, 0, "x")
    assert _fault(_write(tmp_path, faulty)) == (
        2100,
        "outcome",
        "expected 0 or 1, got '7' (row 2100, column 'outcome')",
    )
    # ... and within a row the columns are checked in a fixed order:
    # gold fields, w_star, patient_id, group_a, treated, outcome.
    row = _set(_set(_set(lines, 2100, OUTCOME, "7"), 2100, 0, "x"), 2100, W_STAR, "101")
    assert _fault(_write(tmp_path, row)) == (
        2100,
        "w_star",
        "value 101.0 outside [0.0, 100.0] (row 2100, column 'w_star')",
    )
    row = _set(_set(lines, 2100, 1, "3"), 2100, 0, "x")
    assert _fault(_write(tmp_path, row)) == (
        2100,
        "patient_id",
        "expected an integer, got 'x' (row 2100, column 'patient_id')",
    )


@pytest.mark.parametrize("later_fault", (False, True), ids=("alone", "with_later_fault"))
def test_duplicate_id_in_a_later_block(tmp_path, lines, later_fault):
    dup = _set(lines, 4500, 0, "7")  # id 7 is first on file row 9
    if later_fault:
        dup = _set(dup, 4600, OUTCOME, "5")
    assert _fault(_write(tmp_path, dup)) == (
        4500,
        "patient_id",
        "duplicate patient_id 7 (first at row 9) (row 4500, column 'patient_id')",
    )
