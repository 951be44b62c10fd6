"""Report serialization: structure, formatting conventions, round trips."""

import copy
import csv
import dataclasses
import io
import json
import math

import pytest

from oxequity.cohort import ScenarioConfig, generate_cohort
from oxequity.grid import run_scenario_grid
from oxequity.metrics import METRIC_ORDER, AuditConfig, run_full_audit
from oxequity.reports import (
    REPORT_FORMATS,
    format_p_value,
    format_value,
    parse_report_json,
    render_report,
    report_to_csv,
    report_to_json,
    report_to_markdown,
    write_report,
)

from oracles import gfm_cells


@pytest.fixture(scope="module")
def grid_reports():
    result = run_scenario_grid(ScenarioConfig(seed=2, n_total=1200), AuditConfig())
    return result.reports


def test_value_formatting():
    assert format_value(0.12345678) == "0.1235"
    assert format_value(None) == ""
    assert format_value(-1.5) == "-1.5000"


def test_p_value_formatting():
    assert format_p_value(0.000041) == "4.1e-05"
    assert format_p_value(0.5) == "5.0e-01"
    assert format_p_value(1e-16) == "<1e-15"
    assert format_p_value(9.99e-16) == "<1e-15"
    assert format_p_value(1.1e-15) == "1.1e-15"
    assert format_p_value(None) == ""


def test_json_round_trip_is_lossless(grid_reports):
    text = report_to_json(grid_reports)
    parsed = parse_report_json(text)
    assert parsed == grid_reports
    assert report_to_json(parsed) == text  # byte-identical re-emission


def test_json_rejects_unknown_schema(grid_reports):
    text = report_to_json(grid_reports).replace(
        '"schema_version": 1', '"schema_version": 99'
    )
    with pytest.raises(ValueError):
        parse_report_json(text)


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _report(payload):
    return payload["reports"][0]


def _metric(payload):
    return next(m for m in _report(payload)["metrics"] if m["test"] is not None)


def _with_report(payload, report):
    return {**payload, "reports": [report]}


def _with_metric(payload, metric):
    return _with_report(payload, {**_report(payload), "metrics": [metric]})


# Each case turns a valid one-report document into a malformed one.
MALFORMED = {
    "list": lambda p: [],
    "string": lambda p: "report",
    "no_reports": lambda p: {"schema_version": 1},
    "unknown_top_level_key": lambda p: {**p, "provenance": {}},
    "report_without_cohort_summary": lambda p: _with_report(
        p, _without(_report(p), "cohort_summary")
    ),
    "report_with_unknown_key": lambda p: _with_report(p, {**_report(p), "provenance": {}}),
    "metrics_not_a_list": lambda p: _with_report(p, {**_report(p), "metrics": 3}),
    "metric_with_unknown_key": lambda p: _with_metric(p, {**_metric(p), "diagnostics": {}}),
    "group_values_not_an_object": lambda p: _with_metric(p, {**_metric(p), "group_values": [1.0]}),
    "test_without_p_value": lambda p: _with_metric(
        p, {**_metric(p), "test": _without(_metric(p)["test"], "p_value")}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_json_rejects_malformed_documents(grid_reports, case):
    payload = json.loads(report_to_json(grid_reports[:1]))
    parse_report_json(json.dumps(payload))
    with pytest.raises(ValueError):
        parse_report_json(json.dumps(MALFORMED[case](payload)))


def _with_metric_fields(payload, **fields):
    return _with_metric(payload, {**_metric(payload), **fields})


def _with_test(payload, **fields):
    return _with_metric_fields(payload, test={**_metric(payload)["test"], **fields})


# Each case gives one field a value of the wrong type: (field, document).
WRONG_TYPE = {
    "flagged_as_string": ("flagged", lambda p: _with_metric_fields(p, flagged="false")),
    "contrast_as_string": ("contrast", lambda p: _with_metric_fields(p, contrast="0.5")),
    "contrast_as_bool": ("contrast", lambda p: _with_metric_fields(p, contrast=True)),
    "p_value_as_string": ("p_value", lambda p: _with_test(p, p_value="0.5")),
    "group_value_as_string": (
        "group_values",
        lambda p: _with_metric_fields(p, group_values={"0": "0.5", "1": 0.5}),
    ),
    "scenario_label_as_number": (
        "scenario_label",
        lambda p: _with_report(p, {**_report(p), "scenario_label": 5}),
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE))
def test_json_rejects_values_of_the_wrong_type(grid_reports, case):
    field, malform = WRONG_TYPE[case]
    payload = json.loads(report_to_json(grid_reports[:1]))
    with pytest.raises(ValueError, match=f"schema version 1: field {field} must be"):
        parse_report_json(json.dumps(malform(payload)))


# Each case names something outside the schema: (field, document).
OUTSIDE_VOCABULARY = {
    "unknown_metric_name": ("metric_name", lambda p: _with_metric_fields(p, metric_name="bogus")),
    "repeated_metric_name": (
        "metrics",
        lambda p: _with_report(p, {**_report(p), "metrics": [_metric(p), _metric(p)]}),
    ),
    "group_key_not_a_number": (
        "group_values",
        lambda p: _with_metric_fields(p, group_values={"x": 0.5, "1": 0.5}),
    ),
    "group_key_not_0_or_1": (
        "group_values",
        lambda p: _with_metric_fields(p, group_values={"7": 0.5, "1": 0.5}),
    ),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_VOCABULARY))
def test_json_rejects_names_outside_the_schema(grid_reports, case):
    field, malform = OUTSIDE_VOCABULARY[case]
    payload = json.loads(report_to_json(grid_reports[:1]))
    with pytest.raises(ValueError, match=f"schema version 1: field {field} must"):
        parse_report_json(json.dumps(malform(payload)))


# Each case writes what report_to_json never writes into a valid document.
NEVER_WRITTEN = {
    "nan_contrast": lambda p: json.dumps(_with_metric_fields(p, contrast=math.nan)),
    "infinite_p_value": lambda p: json.dumps(_with_test(p, p_value=math.inf)),
    "schema_version_true": lambda p: json.dumps({**p, "schema_version": True}),
    "schema_version_float": lambda p: json.dumps({**p, "schema_version": 1.0}),
    "repeated_key": lambda p: json.dumps(p).replace(
        '"scenario_label": ', '"scenario_label": "other", "scenario_label": ', 1
    ),
}


@pytest.mark.parametrize("case", sorted(NEVER_WRITTEN))
def test_json_rejects_what_report_to_json_never_writes(grid_reports, case):
    payload = json.loads(report_to_json(grid_reports[:1]))
    with pytest.raises(ValueError, match="^malformed report for schema version 1: "):
        parse_report_json(NEVER_WRITTEN[case](payload))


def test_json_field_errors_name_the_schema_version(grid_reports):
    payload = json.loads(report_to_json(grid_reports[:1]))
    del payload["reports"][0]["cohort_summary"]
    with pytest.raises(ValueError, match="schema version 1.*cohort_summary"):
        parse_report_json(json.dumps(payload))


def test_markdown_structure(grid_reports):
    text = report_to_markdown(grid_reports)
    lines = text.strip().splitlines()
    # header + separator + one row per metric
    assert len(lines) == 2 + len(METRIC_ORDER)
    header_cells = [c.strip() for c in lines[0].strip("|").split("|")]
    assert header_cells[2:] == ["both", "measurement_only", "systemic_only", "none"]
    for name, line in zip(METRIC_ORDER, lines[2:]):
        assert line.startswith(f"| {name} |")
    assert "**[FLAG]**" in text


def test_markdown_flags_match_metrics(grid_reports):
    text = report_to_markdown(grid_reports)
    flag_cells = text.count("**[FLAG]**")
    flags = sum(m.flagged for rep in grid_reports for m in rep.metrics)
    assert flag_cells == flags


def test_csv_layout(grid_reports):
    text = report_to_csv(grid_reports)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "metric,scenario,group0_value,group1_value,contrast,statistic,df,p_value,flagged"
    )
    assert len(lines) == 1 + len(METRIC_ORDER) * len(grid_reports)
    for line in lines[1:]:
        assert len(line.split(",")) == 9
    assert any(line.endswith(",true") for line in lines[1:])


def test_csv_p_floor_rendering(grid_reports):
    # the information-bias p under measurement bias is far below the floor
    text = report_to_csv(grid_reports)
    info_rows = [l for l in text.splitlines() if l.startswith("information_bias,both")]
    assert info_rows and "<1e-15" in info_rows[0]


def test_write_report_dispatch(tmp_path, grid_reports):
    for fmt, name in (("markdown", "r.md"), ("csv", "r.csv"), ("json", "r.json")):
        write_report(grid_reports, fmt, tmp_path / name)
        assert (tmp_path / name).read_text()
    with pytest.raises(ValueError):
        write_report(grid_reports, "yaml", tmp_path / "r.yaml")


def test_render_report_matches_renderers(grid_reports):
    assert REPORT_FORMATS == ("markdown", "csv", "json")
    assert render_report(grid_reports, "markdown") == report_to_markdown(grid_reports)
    assert render_report(grid_reports, "csv") == report_to_csv(grid_reports)
    assert render_report(grid_reports, "json") == report_to_json(grid_reports)
    with pytest.raises(ValueError):
        render_report(grid_reports, "yaml")


def test_json_rejects_non_finite_values(grid_reports):
    report = copy.deepcopy(grid_reports[0])
    report.metrics[0].contrast = math.inf
    with pytest.raises(ValueError):
        report_to_json([report])


def test_empty_reports_rejected():
    with pytest.raises(ValueError):
        report_to_markdown([])
    with pytest.raises(ValueError):
        report_to_csv([])
    with pytest.raises(ValueError):
        report_to_json([])


@pytest.mark.parametrize(
    "label", ("ward 3, night", 'the "night" shift', "a | b", "a \\| b", "two\nlines\r")
)
def test_free_text_labels_parse_back(grid_reports, label):
    reports = [dataclasses.replace(rep, scenario_label=label) for rep in grid_reports[:2]]

    rows = list(csv.reader(io.StringIO(report_to_csv(reports), newline="")))
    assert all(len(row) == 9 for row in rows)
    assert {row[1] for row in rows[1:]} == {label}

    # A line break has no markdown table form; every other label survives
    # the split that CommonMark's backslash escapes make.
    if "\n" not in label:
        header = report_to_markdown(reports).splitlines()[0]
        assert gfm_cells(header)[2:] == [label, label]

    assert [rep.scenario_label for rep in parse_report_json(report_to_json(reports))] == [
        label,
        label,
    ]


@pytest.mark.parametrize("newline", ("\r\n", "\r", "\n"))
def test_markdown_label_line_break_keeps_one_line_per_row(grid_reports, newline):
    reports = [dataclasses.replace(grid_reports[0], scenario_label="ward" + newline + "3")]
    lines = report_to_markdown(reports).splitlines()
    # header, separator and one row per metric
    assert len(lines) == 12
    assert lines[0] == "| Metric | Interpretation | ward<br>3 |"


def test_markdown_columns_follow_report_order_when_labels_repeat():
    # Two cohorts audited under one label keep their own columns.
    cohorts = [generate_cohort(ScenarioConfig(n_total=400, seed=seed)) for seed in (1, 2)]
    reports = [run_full_audit(cohort, AuditConfig(), "ward") for cohort in cohorts]
    distinct = [
        dataclasses.replace(rep, scenario_label=f"ward {i}") for i, rep in enumerate(reports)
    ]
    lines = report_to_markdown(reports).splitlines()
    assert lines[0] == "| Metric | Interpretation | ward | ward |"
    assert lines[1:] == report_to_markdown(distinct).splitlines()[1:]
    # The two cohorts' cells differ, so a column repeated in error shows.
    assert lines[1:] != report_to_markdown(reports[1:] * 2).splitlines()[1:]
