"""Cohort CSV schema, validation diagnostics, and parameter files."""

from dataclasses import replace

import pytest

from oxequity.cohort import DEFAULT_DGP, Cohort, DgpParams, ScenarioConfig, generate_cohort
from oxequity.io import (
    COHORT_COLUMNS,
    CohortSchemaError,
    read_cohort_csv,
    read_params,
    write_cohort_csv,
    write_params,
)

from oracles import records_of


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(ScenarioConfig(n_total=300, seed=17))


def _first(cohort, k):
    return Cohort.from_records(records_of(cohort)[:k])


def test_round_trip_preserves_records(tmp_path, cohort):
    path = tmp_path / "cohort.csv"
    write_cohort_csv(cohort, path)
    loaded = read_cohort_csv(path)
    assert len(loaded) == len(cohort)
    for original, parsed in zip(records_of(cohort), records_of(loaded)):
        assert parsed.patient_id == original.patient_id
        assert parsed.group_a == original.group_a
        assert parsed.treated == original.treated
        assert parsed.outcome == original.outcome
        # floats are serialized at 4 decimal places
        assert parsed.w_true == pytest.approx(original.w_true, abs=5.1e-5)
        assert parsed.w_star == pytest.approx(original.w_star, abs=5.1e-5)
        assert parsed.epsilon == pytest.approx(original.epsilon, abs=5.1e-5)
    # a second write/read cycle is exactly stable
    second = tmp_path / "cohort2.csv"
    write_cohort_csv(loaded, second)
    assert second.read_bytes() == path.read_bytes()
    assert read_cohort_csv(second) == loaded


def test_header_matches_contract(tmp_path, cohort):
    path = tmp_path / "cohort.csv"
    write_cohort_csv(cohort, path)
    assert path.read_text().splitlines()[0] == ",".join(COHORT_COLUMNS)


def test_gold_free_file_accepted_when_not_required(tmp_path, cohort):
    path = tmp_path / "nogold.csv"
    lines = ["patient_id,group_a,w_star,treated,outcome"]
    for r in records_of(cohort)[:50]:
        lines.append(f"{r.patient_id},{r.group_a},{r.w_star:.4f},{r.treated},{r.outcome}")
    path.write_text("\n".join(lines) + "\n")
    loaded = read_cohort_csv(path, require_gold=False)
    assert len(loaded) == 50
    assert all(r.w_true is None and r.epsilon is None for r in records_of(loaded))
    assert not loaded.gold
    with pytest.raises(CohortSchemaError, match="w_true"):
        read_cohort_csv(path, require_gold=True)


def test_non_binary_indicator_names_row_and_column(tmp_path, cohort):
    path = tmp_path / "bad.csv"
    write_cohort_csv(_first(cohort, 5), path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 2)[0] + ",2,0"  # treated = 2 on file row 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CohortSchemaError) as excinfo:
        read_cohort_csv(path)
    assert excinfo.value.row == 4
    assert excinfo.value.column == "treated"


def test_out_of_range_saturation_rejected(tmp_path, cohort):
    path = tmp_path / "bad.csv"
    write_cohort_csv(_first(cohort, 3), path)
    text = path.read_text().replace(f"{cohort.w_true[1]:.4f}", "69.0000")
    path.write_text(text)
    with pytest.raises(CohortSchemaError, match="w_true"):
        read_cohort_csv(path)


def test_duplicate_patient_id_names_row_and_column(tmp_path, cohort):
    path = tmp_path / "dup.csv"
    write_cohort_csv(_first(cohort, 5), path)
    lines = path.read_text().splitlines()
    lines[4] = "1," + lines[4].split(",", 1)[1]  # file row 5 repeats id 1 (row 3)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CohortSchemaError, match="duplicate patient_id 1") as excinfo:
        read_cohort_csv(path)
    assert excinfo.value.row == 5
    assert excinfo.value.column == "patient_id"


def test_duplicate_header_column_named(tmp_path):
    path = tmp_path / "dup_header.csv"
    path.write_text(
        ",".join(COHORT_COLUMNS) + ",w_star\n0,0,90.0000,91.3000,1.3000,1,0,99.0000\n"
    )
    with pytest.raises(CohortSchemaError, match="duplicate column") as excinfo:
        read_cohort_csv(path)
    assert excinfo.value.row == 1
    assert excinfo.value.column == "w_star"


def test_missing_column_listed(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("patient_id,group_a,w_star\n1,0,90.0\n")
    with pytest.raises(CohortSchemaError, match="treated"):
        read_cohort_csv(path, require_gold=False)


def test_empty_file_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CohortSchemaError):
        read_cohort_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text(",".join(COHORT_COLUMNS) + "\n")
    with pytest.raises(CohortSchemaError, match="no records"):
        read_cohort_csv(header_only)


@pytest.mark.parametrize("value", ("inf", "-inf", "1e999"))
def test_non_finite_epsilon_rejected(tmp_path, cohort, value):
    path = tmp_path / "inf.csv"
    write_cohort_csv(_first(cohort, 5), path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = value  # epsilon on file row 4
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CohortSchemaError, match="is not finite") as excinfo:
        read_cohort_csv(path)
    assert excinfo.value.row == 4
    assert excinfo.value.column == "epsilon"


def test_params_round_trip(tmp_path):
    path = tmp_path / "params.json"
    custom = replace(DEFAULT_DGP, err_base=0.9, treat_slope=0.05)
    write_params(custom, path)
    assert read_params(path) == custom


def test_params_partial_file_uses_defaults(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"err_base": 2.0}\n')
    params = read_params(path)
    assert params.err_base == 2.0
    assert params.saturation_mean == DEFAULT_DGP.saturation_mean


def test_params_unknown_key_rejected(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"err_base": 2.0, "mystery": 1}\n')
    with pytest.raises(CohortSchemaError, match="mystery"):
        read_params(path)


def test_params_validation_applies(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"err_noise_sd": 0.0}\n')
    with pytest.raises(ValueError):
        read_params(path)


def test_params_must_be_numeric_object(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"err_base": "large"}\n')
    with pytest.raises(CohortSchemaError):
        read_params(path)
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(CohortSchemaError):
        read_params(path)
