"""Report emission: every text table, and round-trippable JSON.

Table 2, Table 1 and the figure data are lists of rows of text that
``markdown_table`` or ``csv_table`` write.  Both escape every cell, so a
label may hold any text.  Markdown escapes ``\\`` as ``\\\\`` and then ``|``
as ``\\|`` (CommonMark reads a backslash before ASCII punctuation as one
escape, so no pipe of the text ends its cell), and writes each line
break as ``<br>``; CSV quotes a field as RFC 4180 asks.  Values have 4
decimals, p-values two significant digits, and below 1e-15 they read
``<1e-15`` (double precision cannot resolve smaller tails reliably).

The JSON keys are the field names of ``EquityReport``, ``MetricResult``
and ``TestResult``, in both directions: ``report_to_json`` writes
``dataclasses.asdict`` and ``parse_report_json`` passes each object back
to its constructor.  A malformed document (not an object, a missing or
unknown key, a value of the wrong shape, a metric name outside
``METRIC_ORDER`` or repeated, a group key other than "0" or "1")
raises ``ValueError``, and so does a value that is not of its field's
annotated type (a bool is not a number), so the dataclasses are the
schema's only list of fields.  What ``report_to_json`` never writes
raises too: NaN, Infinity, a repeated key, a non-int ``schema_version``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

from .figure import FigureSummary
from .grid import Table1Summary
from .io import write_output
from .metrics import METRIC_ORDER, EquityReport, MetricResult
from .stats.hypotests import TestResult

__all__ = [
    "SCHEMA_VERSION",
    "P_FLOOR",
    "REPORT_FORMATS",
    "csv_table",
    "figure_to_csv",
    "format_p_value",
    "format_value",
    "markdown_table",
    "parse_report_json",
    "render_report",
    "report_to_csv",
    "report_to_json",
    "report_to_markdown",
    "table1_to_markdown",
    "write_report",
]

SCHEMA_VERSION = 1
P_FLOOR = 1e-15


def format_value(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def format_p_value(p: float | None) -> str:
    if p is None:
        return ""
    if p < P_FLOOR:
        return "<1e-15"
    return f"{p:.1e}"


def _cell(metric: MetricResult) -> str:
    if metric.status != "ok":
        return metric.status
    parts = []
    for a in sorted(metric.group_values):
        parts.append(f"g{a}={format_value(metric.group_values[a])}")
    if metric.contrast is not None:
        parts.append(f"contrast={format_value(metric.contrast)}")
    if metric.test is not None:
        parts.append(f"p={format_p_value(metric.test.p_value)}")
    if metric.flagged:
        parts.append("**[FLAG]**")
    return " ".join(parts) if parts else "-"


def _markdown_cell(text: str) -> str:
    # Backslashes first: a bare one before a pipe would give \\|, an escaped
    # backslash and then a delimiter.  A row is one line: breaks are <br>.
    return (
        text.replace("\\", "\\\\")
        .replace("|", "\\|")
        .replace("\r\n", "<br>")
        .replace("\r", "<br>")
        .replace("\n", "<br>")
    )


def _csv_field(text: str) -> str:
    # Quoted by hand: csv.writer with lineterminator="\n" leaves a lone
    # "\r" unquoted on CPython 3.11, and a reader splits the row there.
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def markdown_table(rows: Sequence[Sequence[str]]) -> str:
    """A GFM table of ``rows``, the first of them the header; every cell escaped."""
    header, *body = rows
    lines = (header, ["---"] * len(header), *body)
    return "".join("| " + " | ".join(map(_markdown_cell, row)) + " |\n" for row in lines)


def csv_table(rows: Sequence[Sequence[str]]) -> str:
    """One CSV line per row, each field quoted as RFC 4180 asks."""
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


def report_to_markdown(reports: Sequence[EquityReport]) -> str:
    """Metric-by-scenario markdown table; flagged cells carry **[FLAG]**."""
    if not reports:
        raise ValueError("need at least one report")
    # By position: two reports may share a label.
    by_name = [{m.metric_name: m for m in rep.metrics} for rep in reports]
    rows = [["Metric", "Interpretation", *(rep.scenario_label for rep in reports)]]
    for name in METRIC_ORDER:
        found = [metrics.get(name) for metrics in by_name]
        interpretation = next((m.interpretation for m in reversed(found) if m is not None), "")
        rows.append([name, interpretation, *("-" if m is None else _cell(m) for m in found)])
    return markdown_table(rows)


def report_to_csv(reports: Sequence[EquityReport]) -> str:
    """One row per (metric, scenario) with the flat summary columns."""
    if not reports:
        raise ValueError("need at least one report")
    header = "metric,scenario,group0_value,group1_value,contrast,statistic,df,p_value,flagged"
    rows = [header.split(",")]
    for rep in reports:
        label = rep.scenario_label
        for metric in rep.metrics:
            test = metric.test
            values = [metric.group_values.get(0), metric.group_values.get(1), metric.contrast]
            values += [test.statistic, test.df] if test else [None, None]
            p_value = format_p_value(test.p_value) if test else ""
            flagged = "true" if metric.flagged else "false"
            rows.append([metric.metric_name, label, *map(format_value, values), p_value, flagged])
    return csv_table(rows)


def table1_to_markdown(table1: Table1Summary) -> str:
    """Table 1, the threshold protocol: one row per group."""
    rates = (table1.untreated_hypoxemic, table1.outcome_measured_driven, table1.outcome_true_driven)
    rows = [["Group", "Untreated hypoxemia", "Outcome (measured-driven)", "Outcome (true-driven)"]]
    rows += ([f"A={a}", *(format_value(rate[a]) for rate in rates)] for a in (0, 1))
    return markdown_table(rows)


def figure_to_csv(summary: FigureSummary) -> str:
    """The accuracy-by-group figure data: one row per (bin, group)."""
    rows = [["bin_center", "group_a", "count", "min", "q1", "median", "q3", "max"]]
    for b in summary.bins:
        values = (b.bin_center, b.minimum, b.q1, b.median, b.q3, b.maximum)
        center, *quantiles = map(format_value, values)
        rows.append([center, str(b.group_a), str(b.count), *quantiles])
    return csv_table(rows)


def report_to_json(reports: Sequence[EquityReport]) -> str:
    """Lossless JSON for the full report list (see parse_report_json).

    The keys are the dataclass field names; group indices become string
    keys.  A non-finite value raises ``ValueError``: strict JSON has no
    NaN or Infinity, and a metric reports a status instead of one.
    """
    if not reports:
        raise ValueError("need at least one report")
    payload = {"schema_version": SCHEMA_VERSION, "reports": list(map(asdict, reports))}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


_field_types = cache(get_type_hints)


def _conforms(value, hint) -> bool:
    """Whether a parsed JSON value is of the annotated type; a bool is no number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if origin is dict:  # JSON keys are strings; group keys pass through int()
        return isinstance(value, dict) and all(_conforms(v, args[1]) for v in value.values())
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _checked(instance):
    """``instance``, once every field holds a value of its annotated type."""
    for name, hint in _field_types(type(instance)).items():
        value = getattr(instance, name)
        if not _conforms(value, hint):
            kind = hint.__name__ if isinstance(hint, type) else hint
            raise TypeError(f"field {name} must be {kind}, got {value!r}")
    return instance


def _metric_from_obj(obj) -> MetricResult:
    metric = MetricResult(**obj)
    if metric.metric_name not in METRIC_ORDER:
        raise ValueError(f"field metric_name must be in METRIC_ORDER, got {metric.metric_name!r}")
    if not {"0", "1"}.issuperset(metric.group_values):
        raise ValueError(f"field group_values must be keyed by 0 or 1, got {metric.group_values}")
    metric.group_values = {int(k): v for k, v in metric.group_values.items()}
    if metric.test is not None:
        metric.test = _checked(TestResult(**metric.test))
    return _checked(metric)


def _report_from_obj(obj) -> EquityReport:
    report = EquityReport(**obj)
    report.metrics = list(map(_metric_from_obj, report.metrics))
    if len({m.metric_name for m in report.metrics}) < len(report.metrics):
        raise ValueError("field metrics must name each metric once")
    return _checked(report)


_MALFORMED = f"malformed report for schema version {SCHEMA_VERSION}: "


def _reject_constant(constant: str):
    raise ValueError(f"{_MALFORMED}non-finite number {constant}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"{_MALFORMED}repeated key in an object with keys {sorted(obj)}")
    return obj


def parse_report_json(text: str) -> list[EquityReport]:
    """Inverse of report_to_json; raises ValueError on a malformed document."""
    payload = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    if not isinstance(payload, dict):
        raise ValueError(f"report JSON must be an object, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version: {version!r}")
    if type(version) is not int:
        raise ValueError(f"{_MALFORMED}field schema_version must be int, got {version!r}")
    if payload.keys() != {"schema_version", "reports"}:
        raise ValueError(
            f"report schema version {SCHEMA_VERSION} holds exactly "
            f"schema_version and reports, got {sorted(payload)}"
        )
    try:
        return list(map(_report_from_obj, payload["reports"]))
    except (TypeError, AttributeError, ValueError) as exc:
        # A missing or unknown field, a value of the wrong shape or type, or an unknown name
        raise ValueError(f"{_MALFORMED}{exc}") from None


def _renderers():
    # Built per call, so each renderer is looked up when a report is
    # rendered (a tracer may have wrapped the module attributes since import).
    return {"markdown": report_to_markdown, "csv": report_to_csv, "json": report_to_json}


REPORT_FORMATS = tuple(_renderers())


def render_report(reports: Sequence[EquityReport], format: str) -> str:
    """Render reports in one of ``REPORT_FORMATS``."""
    renderer = _renderers().get(format)
    if renderer is None:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    return renderer(reports)


def write_report(
    reports: Sequence[EquityReport], format: str, path: str | Path
) -> None:
    """Serialize reports to the given path in one of ``REPORT_FORMATS``."""
    write_output(render_report(reports, format), path)
