"""Four-scenario grid execution and the threshold-protocol summary.

The grid runs the same sample design under every combination of the two
bias toggles, ordered both / measurement_only / systemic_only / none.
Because all four scenarios share one seed and counter-based streams,
the true-saturation column is identical across the grid and the
measurement columns are identical within each toggle pair, so metric
differences across columns reflect the toggled mechanisms alone.

The separate threshold-protocol summary reruns the both-biases
parameters under the deterministic treatment rule and reports, per
group, the untreated share of truly hypoxemic patients plus adverse
outcome rates when treatment is driven by the measured value versus the
true value (reusing each patient's outcome draw for both variants).

Common random numbers are what let the grid draw once: the patients'
streams are hashed a single time (``draw_cohort``, five hashes per
patient: no spare second saturation draw is hashed), and the four scenario cohorts and the Table-1 cohort are derived from
those draws by deterministic shifts (``derive_cohort``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .cohort import (
    CohortDraws,
    PatientRecord,
    ScenarioConfig,
    derive_cohort,
    draw_cohort,
    outcome_assignment,
)
from .metrics import AuditConfig, EquityReport, run_full_audit

__all__ = [
    "GridResult",
    "SCENARIO_LABELS",
    "ScenarioGridSpec",
    "Table1Summary",
    "run_scenario_grid",
    "threshold_protocol_summary",
]

SCENARIO_LABELS = ("both", "measurement_only", "systemic_only", "none")
_TOGGLES = {
    "both": (True, True),
    "measurement_only": (True, False),
    "systemic_only": (False, True),
    "none": (False, False),
}


@dataclass(frozen=True, slots=True)
class ScenarioGridSpec:
    """Shared design for the four bias scenarios (only the toggles differ)."""

    base: ScenarioConfig

    def configs(self) -> dict[str, ScenarioConfig]:
        self.base.validate()
        return {
            label: replace(
                self.base,
                measurement_bias_on=measurement,
                systemic_bias_on=systemic,
            )
            for label, (measurement, systemic) in _TOGGLES.items()
        }


@dataclass(slots=True)
class Table1Summary:
    """Deterministic-protocol rates per group.

    ``untreated_hypoxemic`` conditions on true hypoxemia; the outcome
    rates are cohort-wide, under measured-value-driven and
    true-value-driven treatment respectively.
    """

    untreated_hypoxemic: dict[int, float]
    outcome_measured_driven: dict[int, float]
    outcome_true_driven: dict[int, float]


@dataclass(slots=True)
class GridResult:
    reports: list[EquityReport]
    table1: Table1Summary
    cohorts: dict[str, list[PatientRecord]]


def _protocol_summary(draws: CohortDraws) -> Table1Summary:
    """Table 1 from shared draws: the deterministic cohort with both biases on.

    The true-value variant recomputes treatment as 1(W < w_treat) and
    replays each patient's outcome uniform from ``draws``, so the two
    outcome columns differ only through the treatment input.
    """
    cohort = derive_cohort(
        draws,
        measurement_bias_on=True,
        systemic_bias_on=True,
        treatment_mode="deterministic",
    )
    dgp = draws.dgp
    untreated = {}
    vent_measured = {}
    vent_true = {}
    for a in (0, 1):
        group = [r for r in cohort if r.group_a == a]
        if not group:
            raise ValueError(f"group {a} is empty; cannot summarize the protocol")
        hypoxemic = [r for r in group if r.w_true < dgp.w_hypox]
        if not hypoxemic:
            raise ValueError(f"group {a} has no hypoxemic patients")
        untreated[a] = sum(1 for r in hypoxemic if r.treated == 0) / len(hypoxemic)
        vent_measured[a] = sum(r.outcome for r in group) / len(group)
        true_driven = 0
        for r in group:
            treated_true = 1 if r.w_true < dgp.w_treat else 0
            u = draws.u_out[r.patient_id]
            true_driven += outcome_assignment(r.w_true, treated_true, u, dgp)
        vent_true[a] = true_driven / len(group)
    return Table1Summary(
        untreated_hypoxemic=untreated,
        outcome_measured_driven=vent_measured,
        outcome_true_driven=vent_true,
    )


def threshold_protocol_summary(config: ScenarioConfig) -> Table1Summary:
    """Run the deterministic threshold protocol with measurement bias on.

    Only the seed, size, group share and DGP of ``config`` are used; its
    toggles and treatment mode are overridden by the protocol.
    """
    return _protocol_summary(draw_cohort(replace(config, treatment_mode="deterministic")))


def run_scenario_grid(spec: ScenarioGridSpec, audit: AuditConfig) -> GridResult:
    """Generate and audit all four scenarios, plus the protocol summary.

    The patients' streams are hashed once; the four scenario cohorts and
    the Table-1 cohort are all derived from those draws.  Scenario order
    in the result is fixed regardless of how the independent pieces are
    evaluated.
    """
    audit.validate()
    configs = spec.configs()
    draws = draw_cohort(spec.base)
    cohorts = {
        label: derive_cohort(
            draws,
            configs[label].measurement_bias_on,
            configs[label].systemic_bias_on,
            configs[label].treatment_mode,
        )
        for label in SCENARIO_LABELS
    }
    reports = [
        run_full_audit(cohorts[label], audit, scenario_label=label)
        for label in SCENARIO_LABELS
    ]
    table1 = _protocol_summary(draws)
    return GridResult(reports=reports, table1=table1, cohorts=cohorts)
