"""Cohort CSV serialization and flat parameter files.

The cohort schema is ``patient_id,group_a,w_true,w_star,epsilon,treated,
outcome`` with floats written to 4 decimal places.  Files lacking the
gold-standard columns (w_true, epsilon) are accepted when the caller
does not require them; so are rows whose two gold fields are both blank.
The cohort's ``w_true`` and ``epsilon`` columns then hold None for those
patients, and the audit skips the metrics that need the gold standard.

The reader parses the file in blocks of ``_BLOCK`` rows, each turned
into columns at once.  A block that fails any check, or holds a blank
line, is parsed again row by row, which reports the first fault in
file order (row-major, the columns of a row in a fixed order) or skips
the blank lines; so the checks and messages are those of a row-at-a-time
reader, and memory stays bounded by the block, not the file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields as dataclass_fields
from itertools import islice
from pathlib import Path

from .cohort import W_HIGH, W_LOW, Cohort, DgpParams

__all__ = [
    "COHORT_COLUMNS",
    "CohortSchemaError",
    "read_cohort_csv",
    "read_params",
    "write_cohort_csv",
    "write_params",
]

COHORT_COLUMNS = (
    "patient_id",
    "group_a",
    "w_true",
    "w_star",
    "epsilon",
    "treated",
    "outcome",
)
_GOLD_COLUMNS = ("w_true", "epsilon")
# Rows parsed per block.  Larger blocks parse no faster and raise the
# reader's memory high-water mark.
_BLOCK = 512
_BINARY = frozenset((0, 1))

_format_float = "{:.4f}".format


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


def write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    """Write a cohort in the standard schema, gold fields blank when absent."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COHORT_COLUMNS)
        writer.writerows(
            zip(
                cohort.patient_id,
                cohort.group_a,
                _format_gold(cohort.w_true),
                map(_format_float, cohort.w_star),
                _format_gold(cohort.epsilon),
                cohort.treated,
                cohort.outcome,
            )
        )


def _parse_int(value: str, row: int, column: str, binary: bool = False) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise CohortSchemaError(f"expected an integer, got {value!r}", row, column) from None
    if binary and parsed not in (0, 1):
        raise CohortSchemaError(f"expected 0 or 1, got {value!r}", row, column)
    return parsed


def _parse_float(
    value: str, row: int, column: str, lo: float | None = None, hi: float | None = None
) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise CohortSchemaError(f"expected a number, got {value!r}", row, column) from None
    if parsed != parsed:  # NaN
        raise CohortSchemaError("value is NaN", row, column)
    if (lo is not None and parsed < lo) or (hi is not None and parsed > hi):
        raise CohortSchemaError(
            f"value {parsed} outside [{lo}, {hi}]", row, column
        )
    if math.isinf(parsed):
        raise CohortSchemaError(f"value {parsed} is not finite", row, column)
    return parsed


def _in_range(values: list[float], lo: float, hi: float) -> bool:
    return not any(map(math.isnan, values)) and lo <= min(values) and max(values) <= hi


class _Layout:
    """Where each column sits in a file's rows, and what the reader must check."""

    def __init__(self, header: list[str], require_gold: bool):
        positions = {}
        for i, name in enumerate(header):
            if name in positions:
                raise CohortSchemaError("duplicate column in header", row=1, column=name)
            positions[name] = i
        required = [c for c in COHORT_COLUMNS if require_gold or c not in _GOLD_COLUMNS]
        missing = [c for c in required if c not in positions]
        if missing:
            raise CohortSchemaError(
                "missing required column(s): " + ", ".join(missing), row=1
            )
        self.width = len(header)
        self.require_gold = require_gold
        self.has_gold = all(c in positions for c in _GOLD_COLUMNS)
        self.at_id, self.at_group, self.at_star, self.at_treated, self.at_outcome = (
            positions[c] for c in ("patient_id", "group_a", "w_star", "treated", "outcome")
        )
        self.at_true, self.at_eps = (positions.get(c) for c in _GOLD_COLUMNS)


def _parse_block(block: list[list[str]], layout: _Layout, first_row_of_id: dict[int, int]):
    """The block's columns, or None when any check fails or a row is blank.

    Nothing is recorded in ``first_row_of_id`` unless the block passes.
    """
    if set(map(len, block)) != {layout.width}:
        return None
    cells = list(zip(*block))
    try:
        ids = list(map(int, cells[layout.at_id]))
        group_a = list(map(int, cells[layout.at_group]))
        treated = list(map(int, cells[layout.at_treated]))
        outcome = list(map(int, cells[layout.at_outcome]))
        w_star = list(map(float, cells[layout.at_star]))
        if layout.has_gold:
            w_true = list(map(float, cells[layout.at_true]))
            epsilon = list(map(float, cells[layout.at_eps]))
    except ValueError:
        return None
    if not (
        _BINARY.issuperset(group_a)
        and _BINARY.issuperset(treated)
        and _BINARY.issuperset(outcome)
        and _in_range(w_star, 0.0, 100.0)
        and len(set(ids)) == len(ids)
        and first_row_of_id.keys().isdisjoint(ids)
    ):
        return None
    if layout.has_gold:
        if not (_in_range(w_true, W_LOW, W_HIGH) and all(map(math.isfinite, epsilon))):
            return None
    else:
        w_true = epsilon = [None] * len(block)
    return ids, group_a, w_true, w_star, epsilon, treated, outcome


def _parse_rows(
    block: list[list[str]], start: int, layout: _Layout, first_row_of_id: dict[int, int]
):
    """The block's columns, parsed row by row from file row ``start``.

    Blank rows are skipped.  Raises CohortSchemaError at the first fault.
    """
    columns = tuple([] for _ in COHORT_COLUMNS)
    ids, group_a, w_true, w_star, epsilon, treated, outcome = columns
    for row_number, row in enumerate(block, start=start):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != layout.width:
            raise CohortSchemaError(
                f"expected {layout.width} fields, found {len(row)}", row=row_number
            )
        true_value = eps_value = None
        if layout.has_gold:
            raw_true, raw_eps = row[layout.at_true].strip(), row[layout.at_eps].strip()
            if layout.require_gold and (not raw_true or not raw_eps):
                raise CohortSchemaError(
                    "gold-standard fields required but blank",
                    row_number,
                    "w_true" if not raw_true else "epsilon",
                )
            if raw_true or raw_eps:
                true_value = _parse_float(raw_true, row_number, "w_true", W_LOW, W_HIGH)
                eps_value = _parse_float(raw_eps, row_number, "epsilon")
        star_value = _parse_float(row[layout.at_star].strip(), row_number, "w_star", 0.0, 100.0)
        patient_id = _parse_int(row[layout.at_id].strip(), row_number, "patient_id")
        first_row = first_row_of_id.setdefault(patient_id, row_number)
        if first_row != row_number:
            raise CohortSchemaError(
                f"duplicate patient_id {patient_id} (first at row {first_row})",
                row_number,
                "patient_id",
            )
        ids.append(patient_id)
        group_a.append(_parse_int(row[layout.at_group].strip(), row_number, "group_a", True))
        w_true.append(true_value)
        w_star.append(star_value)
        epsilon.append(eps_value)
        treated.append(_parse_int(row[layout.at_treated].strip(), row_number, "treated", True))
        outcome.append(_parse_int(row[layout.at_outcome].strip(), row_number, "outcome", True))
    return columns


def read_cohort_csv(path: str | Path, require_gold: bool = True) -> Cohort:
    """Parse and validate a cohort CSV.

    Raises CohortSchemaError with the offending file row (1-based, header
    is row 1) and column name on any violation: missing or duplicate
    columns, a repeated patient_id, out-of-range or non-finite values, or
    non-binary indicator columns.  When a file has several faults, the
    first row's is reported.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CohortSchemaError("file is empty") from None
        layout = _Layout(header, require_gold)
        columns = tuple([] for _ in COHORT_COLUMNS)
        first_row_of_id: dict[int, int] = {}
        start = 2
        while block := list(islice(reader, _BLOCK)):
            parsed = _parse_block(block, layout, first_row_of_id)
            if parsed is None:
                parsed = _parse_rows(block, start, layout, first_row_of_id)
            else:
                first_row_of_id.update(zip(parsed[0], range(start, start + len(block))))
            for column, values in zip(columns, parsed):
                column.extend(values)
            start += len(block)
    if not columns[0]:
        raise CohortSchemaError("file contains no records")
    return Cohort(*columns)


def write_params(params: DgpParams, path: str | Path) -> None:
    """Write generator parameters as a flat key/value JSON document."""
    payload = {f.name: getattr(params, f.name) for f in dataclass_fields(params)}
    with open(path, "w", newline="") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_params(path: str | Path) -> DgpParams:
    """Read a flat key/value parameter document; unknown keys are rejected."""
    with open(path) as handle:
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
