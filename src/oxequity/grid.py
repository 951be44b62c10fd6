"""Four-scenario grid execution and the threshold-protocol summary.

The grid runs the same sample design with each combination of the two
bias channels switched on or off, ordered both / measurement_only /
systemic_only / none.  A channel is off when its DGP group terms are 0.0,
so each scenario is the base DGP with the terms of ``_ZEROED`` set to
0.0.  Because all four scenarios share one seed and counter-based
streams, the true-saturation column is identical across the grid and the
measurement columns are identical within each pair that shares the
measurement terms, so metric differences across columns reflect the
switched mechanisms alone.

The separate threshold-protocol summary (Table 1) reruns the base DGP
under the deterministic treatment rule and reports, per group, the
untreated share of truly hypoxemic patients plus adverse outcome rates
when treatment is driven by the measured value versus the true value
(reusing each patient's outcome draw for both variants).

A grid run has one hypoxemia threshold, the DGP's ``w_hypox``: Table 1
and the audit's stratum metrics select the same truly hypoxemic
patients, through the one rule ``cohort._truly_hypoxemic``, and
``run_scenario_grid`` rejects an audit config whose ``w_hypox`` differs.

Common random numbers are what let the grid draw once: the patients'
streams are hashed a single time (``draw_cohort``, five hashes per
patient: no spare second saturation draw is hashed), and the four
scenario cohorts and the Table-1 cohort are derived from those draws by
deterministic shifts (``derive_cohort``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cohort import (
    Cohort,
    CohortDraws,
    ScenarioConfig,
    _truly_hypoxemic,
    derive_cohort,
    draw_cohort,
    outcome_assignments,
    treatment_assignments,
)
from .metrics import AuditConfig, EquityReport, _tally, run_full_audit

__all__ = [
    "GridResult",
    "SCENARIO_LABELS",
    "Table1Summary",
    "run_scenario_grid",
    "threshold_protocol_summary",
]

# The DGP group terms each scenario sets to 0.0, in report order.
_ZEROED = {
    "both": {},
    "measurement_only": {"treat_group_penalty": 0.0},
    "systemic_only": {"err_group_shift": 0.0, "err_group_slope": 0.0},
    "none": {"err_group_shift": 0.0, "err_group_slope": 0.0, "treat_group_penalty": 0.0},
}
SCENARIO_LABELS = tuple(_ZEROED)


@dataclass(slots=True)
class Table1Summary:
    """Deterministic-protocol rates per group.

    ``untreated_hypoxemic`` conditions on true hypoxemia, and is None for
    a group with no truly hypoxemic patient; the outcome rates are
    cohort-wide, under measured-value-driven and true-value-driven
    treatment respectively.
    """

    untreated_hypoxemic: dict[int, float | None]
    outcome_measured_driven: dict[int, float]
    outcome_true_driven: dict[int, float]


@dataclass(slots=True)
class GridResult:
    reports: list[EquityReport]
    table1: Table1Summary
    cohorts: dict[str, Cohort]


def threshold_protocol_summary(draws: CohortDraws) -> Table1Summary:
    """Table 1: the deterministic threshold protocol under ``draws.dgp``.

    The measured-value variant is the deterministic cohort of the draws.
    The true-value variant recomputes treatment as 1(W < w_treat), the
    deterministic rule applied to the true saturations, and replays each
    patient's outcome uniform from ``draws``, so the two outcome columns
    differ only through the treatment input.

    Raises:
        ValueError: a group is empty.
    """
    cohort = derive_cohort(draws, "deterministic")
    dgp = draws.dgp
    group_a, w_true, treated = cohort.group_a, cohort.w_true, cohort.treated
    treated_true = treatment_assignments(w_true, group_a, "deterministic", draws.u_treat, dgp)
    outcome_true = outcome_assignments(w_true, treated_true, draws.u_out, dgp)
    hypoxemic = _truly_hypoxemic(w_true, dgp.w_hypox)
    h0, n0, h1, n1 = _tally(hypoxemic, group_a)
    for a, size in ((0, n0), (1, n1)):
        if not size:
            raise ValueError(f"group {a} is empty; cannot summarize the protocol")
    u0, _, u1, _ = _tally([h and not z for h, z in zip(hypoxemic, treated)], group_a)
    m0, _, m1, _ = _tally(cohort.outcome, group_a)
    t0, _, t1, _ = _tally(outcome_true, group_a)
    return Table1Summary(
        untreated_hypoxemic={0: u0 / h0 if h0 else None, 1: u1 / h1 if h1 else None},
        outcome_measured_driven={0: m0 / n0, 1: m1 / n1},
        outcome_true_driven={0: t0 / n0, 1: t1 / n1},
    )


def run_scenario_grid(base: ScenarioConfig, audit: AuditConfig) -> GridResult:
    """Generate and audit all four scenarios, plus the protocol summary.

    Each scenario is ``base`` with its channels' DGP group terms set to
    0.0; a term that ``base`` already sets to 0.0 stays 0.0, and Table 1
    runs ``base.dgp`` itself.  The patients' streams are hashed once; the
    four scenario cohorts and the Table-1 cohort are all derived from
    those draws.  Scenario order in the result is fixed regardless of
    how the independent pieces are evaluated.

    Raises:
        ValueError: ``audit.w_hypox`` differs from ``base.dgp.w_hypox``, so
            Table 2 would select other patients than Table 1.
    """
    if audit.w_hypox != base.dgp.w_hypox:
        raise ValueError(
            f"audit w_hypox={audit.w_hypox!r} differs from the DGP's "
            f"w_hypox={base.dgp.w_hypox!r}; a grid run has one hypoxemia threshold"
        )
    draws = draw_cohort(base)
    cohorts = {
        label: derive_cohort(
            replace(draws, dgp=replace(draws.dgp, **zeroed)), base.treatment_mode
        )
        for label, zeroed in _ZEROED.items()
    }
    reports = [
        run_full_audit(cohorts[label], audit, scenario_label=label)
        for label in SCENARIO_LABELS
    ]
    table1 = threshold_protocol_summary(draws)
    return GridResult(reports=reports, table1=table1, cohorts=cohorts)
