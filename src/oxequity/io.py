"""Cohort CSV serialization, the reader of parameter files, and the output writer.

The cohort schema is the header ``COHORT_COLUMNS`` (the ``Cohort`` columns
in field order) with floats written to 4 decimal places.  The reader has
one mode.  A header names both gold columns (w_true, epsilon) or
neither, and a row fills both or leaves both blank; a patient without
gold holds None in both, the audit skips the metrics that need it, and
a caller that needs gold for every patient tests ``Cohort.gold``.
Cohort and parameter files are read as UTF-8, a leading byte-order mark
(which spreadsheet exports write) accepted.  Every output is written as
UTF-8 with its ``\\n`` line ends untranslated, whatever the locale or
platform: only this module opens files or writes stdout.

``_RULES`` states each column's rule (type and bound) once, and the
reader's two paths both read it.  The file is parsed in blocks of
``_BLOCK`` rows, each turned into columns at once.  A block that breaks
a rule, or holds a blank line or gold pair, is parsed again row by row,
which skips blank lines and reports the first fault in file order
(row-major, the columns of a row in rule order): the checks and messages
of a row-at-a-time reader, with memory bounded by the block.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import fields as dataclass_fields
from itertools import islice
from pathlib import Path

from .cohort import COHORT_COLUMNS, W_HIGH, W_LOW, Cohort, DgpParams
from .cohort import _BINARY, _BINARY_COLUMNS, _DISPLAY_RANGE, _GOLD_COLUMNS  # column facts

__all__ = [
    "COHORT_COLUMNS",
    "CohortSchemaError",
    "cohort_csv_text",
    "read_cohort_csv",
    "read_params",
    "write_cohort_csv",
    "write_output",
]

# Each column's rule, in the order a row's faults are reported, the gold
# columns (w_true, epsilon) first: its type, and for a float its closed
# range (None: any finite value), for an int whether it must be 0 or 1.
_RULES = (
    *zip(_GOLD_COLUMNS, (float, float), ((W_LOW, W_HIGH), None)),
    ("w_star", float, _DISPLAY_RANGE),
    ("patient_id", int, False),
    *((name, int, True) for name in _BINARY_COLUMNS),
)
# Rows parsed per block.  Larger blocks parse no faster and raise the
# reader's memory high-water mark.
_BLOCK = 512

_format_float = "%.4f".__mod__


class CohortSchemaError(ValueError):
    """Schema violation in a cohort file, carrying row and column context."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where += f" (row {row}"
            where += f", column {column!r})" if column is not None else ")"
        elif column is not None:
            where += f" (column {column!r})"
        super().__init__(message + where)


def _format_gold(values: list[float | None]):
    if None in values:
        return ("" if v is None else _format_float(v) for v in values)
    return map(_format_float, values)


def _cohort_csv_lines(cohort: Cohort):
    """The cohort CSV's header and rows in the standard schema, one ``\\n``-ended line each."""
    # No field can hold a comma, quote or line break, so no field needs
    # quoting, and each row is one template.
    yield ",".join(COHORT_COLUMNS) + "\n"
    yield from map(
        "%s,%s,%s,%.4f,%s,%s,%s\n".__mod__,
        zip(
            cohort.patient_id,
            cohort.group_a,
            _format_gold(cohort.w_true),
            cohort.w_star,
            _format_gold(cohort.epsilon),
            cohort.treated,
            cohort.outcome,
        ),
    )


def cohort_csv_text(cohort: Cohort) -> str:
    """The text ``write_cohort_csv`` writes for ``cohort``."""
    return "".join(_cohort_csv_lines(cohort))


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    """Write a cohort in the standard schema, gold fields blank when absent.

    The rows are streamed, so memory does not grow with the cohort's text.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(_cohort_csv_lines(cohort))


def write_output(text: str, path: str | Path | None) -> None:
    """Write ``text`` as UTF-8 bytes, newlines untranslated, to ``path`` or (None) stdout."""
    if path is not None:
        Path(path).write_bytes(text.encode("utf-8"))
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # what was written as text goes first
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # a text-only stream, such as io.StringIO, holds str and has no encoding
        sys.stdout.write(text)


def _parse(cell: str, row: int, column: str, kind: type, bound):
    """One cell's value under its column's rule; a fault raises CohortSchemaError."""
    try:
        value = kind(cell)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise CohortSchemaError(f"expected {noun}, got {cell!r}", row, column) from None
    if kind is int:
        if bound and value not in _BINARY:
            raise CohortSchemaError(f"expected 0 or 1, got {cell!r}", row, column)
    elif value != value:  # NaN
        raise CohortSchemaError("value is NaN", row, column)
    elif bound is not None and not bound[0] <= value <= bound[1]:
        raise CohortSchemaError(f"value {value} outside [{bound[0]}, {bound[1]}]", row, column)
    elif math.isinf(value):
        raise CohortSchemaError(f"value {value} is not finite", row, column)
    return value


def _valid(values: list, kind: type, bound) -> bool:
    """Whether every value of a parsed column keeps the column's rule."""
    if kind is int:
        return not bound or _BINARY.issuperset(values)
    finite = all(map(math.isfinite, values))
    return finite and (bound is None or bound[0] <= min(values) and max(values) <= bound[1])


class _Layout:
    """Where each column sits in a file's rows, and the rule it is read by.

    Header names are stripped, as every cell is, before they are matched.
    """

    def __init__(self, header: list[str]):
        positions = {}
        for i, name in enumerate(map(str.strip, header)):
            if name in positions:
                raise CohortSchemaError("duplicate column in header", row=1, column=name)
            positions[name] = i
        # The gold columns are both required once either is named.
        self.has_gold = not positions.keys().isdisjoint(_GOLD_COLUMNS)
        required = [c for c in COHORT_COLUMNS if self.has_gold or c not in _GOLD_COLUMNS]
        missing = [c for c in required if c not in positions]
        if missing:
            raise CohortSchemaError("missing required column(s): " + ", ".join(missing), row=1)
        self.width = len(header)
        # (position, name, kind, bound) of each column read, in rule order.
        rules = _RULES if self.has_gold else _RULES[len(_GOLD_COLUMNS) :]
        self.columns = [(positions[name], name, kind, bound) for name, kind, bound in rules]


def _parse_block(block: list[list[str]], layout: _Layout, first_row_of_id: dict[int, int]):
    """The block's columns by name, or None when a rule fails or a row is blank."""
    if set(map(len, block)) != {layout.width}:
        return None
    cells = list(zip(*block))
    try:
        columns = {name: list(map(kind, cells[at])) for at, name, kind, _ in layout.columns}
    except ValueError:
        return None
    ids = columns["patient_id"]
    valid = all(_valid(columns[name], kind, bound) for _, name, kind, bound in layout.columns)
    if valid and len(set(ids)) == len(ids) and first_row_of_id.keys().isdisjoint(ids):
        return columns
    return None


def _parse_rows(
    block: list[list[str]], start: int, layout: _Layout, first_row_of_id: dict[int, int]
):
    """The block's columns by name, parsed row by row from file row ``start``.

    Blank rows are skipped.  Raises CohortSchemaError at the first fault.
    """
    columns = {name: [] for _, name, _, _ in layout.columns}
    rules = [(at, name, kind, bound, columns[name]) for at, name, kind, bound in layout.columns]
    gold = layout.has_gold and (rules[0][0], rules[1][0])  # the gold columns' places
    for row, cells in enumerate(block, start=start):
        if not cells or all(not cell.strip() for cell in cells):
            continue
        if len(cells) != layout.width:
            raise CohortSchemaError(f"expected {layout.width} fields, found {len(cells)}", row)
        todo = rules
        if gold and not (cells[gold[0]].strip() or cells[gold[1]].strip()):  # a blank gold pair
            for name in _GOLD_COLUMNS:
                columns[name].append(None)
            todo = rules[len(_GOLD_COLUMNS) :]
        for at, name, kind, bound, column in todo:
            value = _parse(cells[at].strip(), row, name, kind, bound)
            if name == "patient_id":
                first_row = first_row_of_id.setdefault(value, row)
                if first_row != row:
                    fault = f"duplicate patient_id {value} (first at row {first_row})"
                    raise CohortSchemaError(fault, row, name)
            column.append(value)
    return columns


def read_cohort_csv(path: str | Path) -> Cohort:
    """Parse and validate a cohort CSV.

    Raises CohortSchemaError with the offending file row (1-based, header
    is row 1) and column name on any violation: missing (one gold column
    without the other) or duplicate columns, a repeated patient_id,
    out-of-range or non-finite values, non-binary indicator columns, or
    one blank gold field.  When a file has several faults, the first
    row's is reported.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise CohortSchemaError("file is empty")
        layout = _Layout(header)
        columns = {name: [] for name in COHORT_COLUMNS}
        first_row_of_id: dict[int, int] = {}
        start = 2
        while block := list(islice(reader, _BLOCK)):
            parsed = _parse_block(block, layout, first_row_of_id)
            if parsed is None:
                parsed = _parse_rows(block, start, layout, first_row_of_id)
            else:
                first_row_of_id.update(zip(parsed["patient_id"], range(start, start + len(block))))
            for name, values in parsed.items():
                columns[name].extend(values)
            start += len(block)
    n = len(columns["patient_id"])
    if not n:
        raise CohortSchemaError("file contains no records")
    if not layout.has_gold:
        columns.update((name, [None] * n) for name in _GOLD_COLUMNS)
    return Cohort(**columns)


def read_params(path: str | Path) -> DgpParams:
    """Read a flat key/value parameter document; unknown keys are rejected."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CohortSchemaError(f"params file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CohortSchemaError("params file must hold a flat JSON object")
    known = {f.name for f in dataclass_fields(DgpParams)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise CohortSchemaError("unknown parameter(s): " + ", ".join(unknown))
    cleaned = {}
    for key, value in payload.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CohortSchemaError(f"parameter {key!r} must be numeric")
        cleaned[key] = float(value)
    return DgpParams(**cleaned)
