"""Command-line entry point.

Subcommands: ``simulate`` (write a synthetic cohort CSV), ``audit``
(equity-audit a cohort CSV), ``grid`` (run the four bias scenarios and
write the full report bundle), ``figure`` (accuracy-by-group box-plot
data).  Exit codes: 0 success, 1 usage or schema error, 2 numerical
failure.

A grid run has one hypoxemia threshold, its DGP's ``w_hypox`` (set with
``--params``): Table 1 and Table 2 select the same truly hypoxemic
patients, so ``--w-hypox`` is an ``audit`` option only.

A bias channel is switched off by zeroing its DGP group terms with
``--params``: ``{"err_group_shift": 0, "err_group_slope": 0}`` for the
measurement channel, ``{"treat_group_penalty": 0}`` for the systemic
one.  ``grid`` writes the cohort of each combination of the two
(``cohort_<scenario>.csv``).

This module parses options and routes files; every table it writes
(Table 1, Table 2, the figure CSV) is rendered by ``reports``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .cohort import DEFAULT_DGP, TREATMENT_MODES, W_HIGH, W_LOW, ScenarioConfig, generate_cohort
from .figure import figure_summary
from .grid import SCENARIO_LABELS, run_scenario_grid
from .io import read_cohort_csv, read_params, write_cohort_csv, write_output
from .metrics import AuditConfig, run_full_audit
from .reports import REPORT_FORMATS, figure_to_csv, render_report, table1_to_markdown, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise _UsageError(message)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    default = ScenarioConfig()
    # Each dest is the config field the option sets.
    parser.add_argument(
        "--n", dest="n_total", metavar="N", type=int, default=default.n_total, help="cohort size"
    )
    parser.add_argument("--p-group1", type=float, default=default.p_group1, help="P(group 1)")
    parser.add_argument("--seed", type=int, default=default.seed, help="generator seed")
    parser.add_argument(
        "--treatment-mode", choices=TREATMENT_MODES, default=default.treatment_mode
    )
    parser.add_argument("--params", type=Path, help="flat JSON parameter file")


def _add_audit_args(parser: argparse.ArgumentParser, w_hypox: bool) -> None:
    """The audit options; ``w_hypox`` adds ``--w-hypox``, which a grid lacks."""
    default = AuditConfig()
    parser.add_argument("--alpha", type=float, default=default.alpha)
    parser.add_argument("--power", type=float, default=default.power)
    parser.add_argument("--delta", type=float, default=default.delta)
    parser.add_argument("--flag-level", type=float, default=default.flag_level)
    if w_hypox:
        parser.add_argument("--w-hypox", type=float, default=default.w_hypox)
    parser.add_argument(
        "--bin-width",
        dest="wstar_bin_width",
        metavar="BIN_WIDTH",
        type=float,
        default=default.wstar_bin_width,
    )
    parser.add_argument("--target-prevalence", type=float, default=default.target_prevalence)


def build_parser() -> _Parser:
    # The first two paragraphs of the module docstring are the description.
    parser = _Parser(prog="oxequity", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="write a synthetic cohort CSV")
    _add_scenario_args(simulate)
    simulate.add_argument("--out", type=Path, required=True)

    audit = sub.add_parser("audit", help="equity-audit a cohort CSV")
    audit.add_argument("--in", dest="input", type=Path, required=True)
    audit.add_argument("--out", type=Path, help="default: stdout")
    audit.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    audit.add_argument("--label", default="cohort")
    audit.add_argument(
        "--require-gold",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reject files lacking gold-standard columns",
    )
    _add_audit_args(audit, w_hypox=True)

    grid = sub.add_parser("grid", help="run the four bias scenarios")
    _add_scenario_args(grid)
    _add_audit_args(grid, w_hypox=False)
    grid.add_argument("--out", type=Path, required=True, help="output directory")

    figure = sub.add_parser("figure", help="accuracy-by-group box-plot data")
    figure.add_argument("--in", dest="input", type=Path, required=True)
    figure.add_argument("--out", type=Path, help="default: stdout")
    figure.add_argument("--bin-width", type=float, default=1.0)
    figure.add_argument("--range", type=float, nargs=2, default=(W_LOW, W_HIGH))
    return parser


def _config(cls, args, **given):
    """A ``cls`` whose fields not in ``given`` come from the options of the same name."""
    options = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}
    return cls(**options, **given)


def _scenario_config(args) -> ScenarioConfig:
    return _config(
        ScenarioConfig, args, dgp=read_params(args.params) if args.params else DEFAULT_DGP
    )


def _grid_configs(args) -> tuple[ScenarioConfig, AuditConfig]:
    """The grid's configs, with one hypoxemia threshold: the DGP's (``--params``)."""
    scenario = _scenario_config(args)
    return scenario, _config(AuditConfig, args, w_hypox=scenario.dgp.w_hypox)


def _cmd_simulate(args) -> int:
    cohort = generate_cohort(_scenario_config(args))
    write_cohort_csv(cohort, args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    config = _config(AuditConfig, args)  # a bad option is reported before the file is read
    cohort = read_cohort_csv(args.input)
    if args.require_gold and not cohort.gold:
        patient = cohort.patient_id[cohort.w_true.index(None)]
        raise ValueError(f"gold standard required, but patient_id {patient} has none")
    report = run_full_audit(cohort, config, scenario_label=args.label)
    write_output(render_report([report], args.format), args.out)
    return EXIT_OK


def _cmd_grid(args) -> int:
    result = run_scenario_grid(*_grid_configs(args))
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    write_output(table1_to_markdown(result.table1), out_dir / "table1.md")
    for fmt, name in (("markdown", "table2.md"), ("csv", "table2.csv"), ("json", "table2.json")):
        write_report(result.reports, fmt, out_dir / name)
    for label in SCENARIO_LABELS:
        write_output(result.cohort_csv[label], out_dir / f"cohort_{label}.csv")
    return EXIT_OK


def _cmd_figure(args) -> int:
    cohort = read_cohort_csv(args.input)  # figure_summary rejects a cohort without gold
    summary = figure_summary(cohort, bin_width=args.bin_width, value_range=tuple(args.range))
    write_output(figure_to_csv(summary), args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "grid": _cmd_grid,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_UsageError, ValueError, OSError) as exc:  # schema errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
