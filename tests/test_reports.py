"""Report serialization: structure, formatting conventions, round trips."""

import copy
import csv
import dataclasses
import io
import math
import re

import pytest

from oxequity.cohort import ScenarioConfig
from oxequity.grid import run_scenario_grid
from oxequity.metrics import METRIC_ORDER, AuditConfig
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


@pytest.mark.parametrize("label", ("ward 3, night", 'the "night" shift', "a | b", "two\nlines\r"))
def test_free_text_labels_parse_back(grid_reports, label):
    reports = [dataclasses.replace(rep, scenario_label=label) for rep in grid_reports[:2]]

    rows = list(csv.reader(io.StringIO(report_to_csv(reports), newline="")))
    assert all(len(row) == 9 for row in rows)
    assert {row[1] for row in rows[1:]} == {label}

    # A line break has no markdown table form; every other label survives
    # the split on unescaped pipes.
    if "\n" not in label:
        header = report_to_markdown(reports).splitlines()[0]
        cells = re.split(r"(?<!\\)\|", header.strip("|"))
        assert [c.strip().replace("\\|", "|") for c in cells[2:]] == [label, label]

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
