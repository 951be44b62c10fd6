"""Cohort CSV serialization and flat parameter files.

The cohort schema is ``patient_id,group_a,w_true,w_star,epsilon,treated,
outcome`` with floats written to 4 decimal places.  Files lacking the
gold-standard columns (w_true, epsilon) are accepted when the caller
does not require them; the records then carry None in those fields and
the audit skips measurement metrics.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Sequence

from .cohort import DgpParams, PatientRecord

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
# Tolerance for re-deriving the clamp flag from 4-decimal serialized values.
_CLAMP_TOL = 2e-4


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


def _format_float(value: float) -> str:
    return f"{value:.4f}"


def write_cohort_csv(cohort: Sequence[PatientRecord], path: str | Path) -> None:
    """Write a cohort in the standard schema, gold columns blank when absent."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COHORT_COLUMNS)
        for r in cohort:
            writer.writerow(
                [
                    r.patient_id,
                    r.group_a,
                    "" if r.w_true is None else _format_float(r.w_true),
                    _format_float(r.w_star),
                    "" if r.epsilon is None else _format_float(r.epsilon),
                    r.treated,
                    r.outcome,
                ]
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
    return parsed


def read_cohort_csv(path: str | Path, require_gold: bool = True) -> list[PatientRecord]:
    """Parse and validate a cohort CSV.

    Raises CohortSchemaError with the offending file row (1-based, header
    is row 1) and column name on any violation: missing or duplicate
    columns, a repeated patient_id, out-of-range values, or non-binary
    indicator columns.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CohortSchemaError("file is empty") from None
        positions = {}
        for i, name in enumerate(header):
            if name in positions:
                raise CohortSchemaError("duplicate column in header", row=1, column=name)
            positions[name] = i
        required = [
            c
            for c in COHORT_COLUMNS
            if require_gold or c not in _GOLD_COLUMNS
        ]
        missing = [c for c in required if c not in positions]
        if missing:
            raise CohortSchemaError(
                "missing required column(s): " + ", ".join(missing), row=1
            )
        has_gold = all(c in positions for c in _GOLD_COLUMNS)
        at_id, at_group, at_star, at_treated, at_outcome = (
            positions[c] for c in ("patient_id", "group_a", "w_star", "treated", "outcome")
        )
        at_true, at_eps = (positions.get(c) for c in _GOLD_COLUMNS)
        records = []
        first_row_of_id: dict[int, int] = {}
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CohortSchemaError(
                    f"expected {len(header)} fields, found {len(row)}", row=row_number
                )
            w_true = epsilon = None
            if has_gold:
                raw_true, raw_eps = row[at_true].strip(), row[at_eps].strip()
                if require_gold and (not raw_true or not raw_eps):
                    raise CohortSchemaError(
                        "gold-standard fields required but blank",
                        row_number,
                        "w_true" if not raw_true else "epsilon",
                    )
                if raw_true or raw_eps:
                    w_true = _parse_float(raw_true, row_number, "w_true", 70.0, 100.0)
                    epsilon = _parse_float(raw_eps, row_number, "epsilon")
            w_star = _parse_float(row[at_star].strip(), row_number, "w_star", 0.0, 100.0)
            clamped = False
            if w_true is not None and epsilon is not None:
                clamped = abs((w_true + epsilon) - w_star) > _CLAMP_TOL
            patient_id = _parse_int(row[at_id].strip(), row_number, "patient_id")
            first_row = first_row_of_id.setdefault(patient_id, row_number)
            if first_row != row_number:
                raise CohortSchemaError(
                    f"duplicate patient_id {patient_id} (first at row {first_row})",
                    row_number,
                    "patient_id",
                )
            records.append(
                PatientRecord(
                    patient_id=patient_id,
                    group_a=_parse_int(row[at_group].strip(), row_number, "group_a", binary=True),
                    w_true=w_true,
                    w_star=w_star,
                    epsilon=epsilon,
                    treated=_parse_int(row[at_treated].strip(), row_number, "treated", binary=True),
                    outcome=_parse_int(row[at_outcome].strip(), row_number, "outcome", binary=True),
                    clamped=clamped,
                )
            )
    if not records:
        raise CohortSchemaError("file contains no records")
    return records


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
    params = DgpParams(**cleaned)
    params.validate()
    return params
