"""Command-line entry point.

Subcommands: ``simulate`` (write a synthetic cohort CSV), ``audit``
(equity-audit a cohort CSV), ``grid`` (run the four bias scenarios and
write the full report bundle), ``figure`` (accuracy-by-group box-plot
data).  Exit codes: 0 success, 1 usage or schema error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cohort import DEFAULT_DGP, TREATMENT_MODES, W_HIGH, W_LOW, ScenarioConfig, generate_cohort
from .figure import figure_summary, figure_summary_csv
from .grid import SCENARIO_LABELS, GridResult, run_scenario_grid
from .io import read_cohort_csv, read_params, write_cohort_csv
from .metrics import AuditConfig, run_full_audit
from .reports import REPORT_FORMATS, format_value, render_report, write_report
from .stats.logistic import SingularDesignError

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
    parser.add_argument("--n", type=int, default=default.n_total, help="cohort size")
    parser.add_argument("--p-group1", type=float, default=default.p_group1, help="P(group 1)")
    parser.add_argument("--seed", type=int, default=default.seed, help="generator seed")
    parser.add_argument(
        "--measurement-bias",
        action=argparse.BooleanOptionalAction,
        default=default.measurement_bias_on,
        help="toggle the differential measurement-error channel",
    )
    parser.add_argument(
        "--systemic-bias",
        action=argparse.BooleanOptionalAction,
        default=default.systemic_bias_on,
        help="toggle the systemic treatment-bias channel",
    )
    parser.add_argument(
        "--treatment-mode", choices=TREATMENT_MODES, default=default.treatment_mode
    )
    parser.add_argument("--params", type=Path, help="flat JSON parameter file")


def _add_audit_args(parser: argparse.ArgumentParser) -> None:
    default = AuditConfig()
    parser.add_argument("--alpha", type=float, default=default.alpha)
    parser.add_argument("--power", type=float, default=default.power)
    parser.add_argument("--delta", type=float, default=default.delta)
    parser.add_argument("--flag-level", type=float, default=default.flag_level)
    parser.add_argument("--w-hypox", type=float, default=default.w_hypox)
    parser.add_argument("--bin-width", type=float, default=default.wstar_bin_width)
    parser.add_argument("--target-prevalence", type=float, default=default.target_prevalence)


def build_parser() -> _Parser:
    parser = _Parser(prog="oxequity", description=__doc__)
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
    _add_audit_args(audit)

    grid = sub.add_parser("grid", help="run the four bias scenarios")
    _add_scenario_args(grid)
    _add_audit_args(grid)
    grid.add_argument("--out", type=Path, required=True, help="output directory")

    figure = sub.add_parser("figure", help="accuracy-by-group box-plot data")
    figure.add_argument("--in", dest="input", type=Path, required=True)
    figure.add_argument("--out", type=Path, help="default: stdout")
    figure.add_argument("--bin-width", type=float, default=1.0)
    figure.add_argument("--range", type=float, nargs=2, default=(W_LOW, W_HIGH))
    return parser


def _scenario_config(args) -> ScenarioConfig:
    return ScenarioConfig(
        n_total=args.n,
        p_group1=args.p_group1,
        seed=args.seed,
        measurement_bias_on=args.measurement_bias,
        systemic_bias_on=args.systemic_bias,
        treatment_mode=args.treatment_mode,
        dgp=read_params(args.params) if args.params else DEFAULT_DGP,
    )


def _audit_config(args) -> AuditConfig:
    return AuditConfig(
        alpha=args.alpha,
        power=args.power,
        delta=args.delta,
        flag_level=args.flag_level,
        w_hypox=args.w_hypox,
        target_prevalence=args.target_prevalence,
        wstar_bin_width=args.bin_width,
    )


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_simulate(args) -> int:
    cohort = generate_cohort(_scenario_config(args))
    write_cohort_csv(cohort, args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    cohort = read_cohort_csv(args.input, require_gold=args.require_gold)
    report = run_full_audit(cohort, _audit_config(args), scenario_label=args.label)
    _emit(render_report([report], args.format), args.out)
    return EXIT_OK


def _table1_markdown(result: GridResult) -> str:
    t = result.table1
    lines = [
        "| Group | Untreated hypoxemia | Outcome (measured-driven) | Outcome (true-driven) |",
        "| --- | --- | --- | --- |",
    ]
    for a in (0, 1):
        lines.append(
            f"| A={a} | {format_value(t.untreated_hypoxemic[a])} "
            f"| {format_value(t.outcome_measured_driven[a])} "
            f"| {format_value(t.outcome_true_driven[a])} |"
        )
    return "\n".join(lines) + "\n"


def _cmd_grid(args) -> int:
    result = run_scenario_grid(_scenario_config(args), _audit_config(args))
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "table1.md").write_text(_table1_markdown(result))
    for fmt, name in (("markdown", "table2.md"), ("csv", "table2.csv"), ("json", "table2.json")):
        write_report(result.reports, fmt, out_dir / name)
    for label in SCENARIO_LABELS:
        write_cohort_csv(result.cohorts[label], out_dir / f"cohort_{label}.csv")
    return EXIT_OK


def _cmd_figure(args) -> int:
    cohort = read_cohort_csv(args.input, require_gold=True)
    summary = figure_summary(cohort, bin_width=args.bin_width, value_range=tuple(args.range))
    _emit(figure_summary_csv(summary), args.out)
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
    except (SingularDesignError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_UsageError, ValueError, OSError) as exc:  # schema errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
