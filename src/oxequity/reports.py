"""Report emission: markdown, CSV, and round-trippable JSON.

Numeric formatting conventions apply everywhere: values with 4 decimal
places, p-values in scientific notation with two significant digits, and
p-values below 1e-15 rendered as the string ``<1e-15`` (double precision
cannot resolve smaller tails reliably).  Free text such as a scenario
label is escaped for its format: ``|`` as ``\\|`` and each line break
(``\\r\\n``, ``\\r`` or ``\\n``) as ``<br>`` in markdown cells, and CSV
fields quoted as RFC 4180 asks.

The JSON keys are the field names of ``EquityReport``, ``MetricResult``
and ``TestResult``, in both directions: ``report_to_json`` writes
``dataclasses.asdict`` and ``parse_report_json`` passes each object back
to its constructor.  A malformed document (not an object, a missing or
unknown key, a value of the wrong shape, a metric name outside
``METRIC_ORDER`` or repeated, a group key other than "0" or "1")
raises ``ValueError``, and so does a value that is not of its field's
annotated type (a bool is not a number), so the dataclasses are the
schema's only list of fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

from .metrics import METRIC_ORDER, EquityReport, MetricResult
from .stats.hypotests import TestResult

__all__ = [
    "SCHEMA_VERSION",
    "P_FLOOR",
    "REPORT_FORMATS",
    "format_p_value",
    "format_value",
    "parse_report_json",
    "render_report",
    "report_to_csv",
    "report_to_json",
    "report_to_markdown",
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
    # A table row is one line, so each line break becomes <br>.
    return (
        text.replace("|", "\\|")
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


def report_to_markdown(reports: Sequence[EquityReport]) -> str:
    """Metric-by-scenario markdown table; flagged cells carry **[FLAG]**."""
    if not reports:
        raise ValueError("need at least one report")
    # By position: two reports may share a label.
    by_name = [{m.metric_name: m for m in rep.metrics} for rep in reports]
    header = " | ".join(_markdown_cell(rep.scenario_label) for rep in reports)
    lines = ["| Metric | Interpretation | " + header + " |"]
    lines.append("|" + " --- |" * (2 + len(reports)))
    for name in METRIC_ORDER:
        interpretation = ""
        cells = []
        for metrics in by_name:
            metric = metrics.get(name)
            if metric is None:
                cells.append("-")
                continue
            interpretation = _markdown_cell(metric.interpretation)
            cells.append(_markdown_cell(_cell(metric)))
        lines.append(
            "| " + name + " | " + interpretation + " | " + " | ".join(cells) + " |"
        )
    return "\n".join(lines) + "\n"


def report_to_csv(reports: Sequence[EquityReport]) -> str:
    """One row per (metric, scenario) with the flat summary columns."""
    if not reports:
        raise ValueError("need at least one report")
    lines = [
        "metric,scenario,group0_value,group1_value,contrast,statistic,df,p_value,flagged"
    ]
    for rep in reports:
        for metric in rep.metrics:
            test = metric.test
            lines.append(
                ",".join(
                    [
                        metric.metric_name,
                        _csv_field(rep.scenario_label),
                        format_value(metric.group_values.get(0)),
                        format_value(metric.group_values.get(1)),
                        format_value(metric.contrast),
                        format_value(test.statistic) if test else "",
                        format_value(test.df) if test and test.df is not None else "",
                        format_p_value(test.p_value) if test else "",
                        "true" if metric.flagged else "false",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


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


def parse_report_json(text: str) -> list[EquityReport]:
    """Inverse of report_to_json; raises ValueError on a malformed document."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"report JSON must be an object, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version: {version!r}")
    if payload.keys() != {"schema_version", "reports"}:
        raise ValueError(
            f"report schema version {SCHEMA_VERSION} holds exactly "
            f"schema_version and reports, got {sorted(payload)}"
        )
    try:
        return list(map(_report_from_obj, payload["reports"]))
    except (TypeError, AttributeError, ValueError) as exc:
        # A missing or unknown field, a value of the wrong shape or type, or an unknown name
        raise ValueError(f"malformed report for schema version {SCHEMA_VERSION}: {exc}") from None


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
    Path(path).write_text(render_report(reports, format))
