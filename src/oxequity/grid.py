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

The four scenarios are spread over worker processes by ``_spread``, which
sizes itself from its items: one worker per usable CPU (the CPUs this
process may run on), at most one per item, the caller being one of them.
After the draws are made, the caller forks a child for each contiguous
share of ``SCENARIO_LABELS`` but the first, which it runs itself; each
worker derives, audits and renders its scenarios, and hands back only
what the bundle is written from, the report and the cohort CSV text of
each, pickled, which restores every float exactly.  The caller collects
them in label order, then computes Table 1.  No output bit can depend on
the spread: every scenario is a pure function of the one set of draws,
which each child inherits whole.  Nothing configures it: ``taskset`` or
any CPU affinity limits the workers, and the caller runs all four itself
when one CPU is usable, where there is no ``os.fork``, and while another
thread runs.  A child that fails has its share rerun by the caller, so
an error is the one a serial run raises; a result exists only once every
scenario has succeeded, so the ``grid`` command writes no file of a
failed grid.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace

from .cohort import (
    CohortDraws,
    ScenarioConfig,
    _truly_hypoxemic,
    derive_cohort,
    draw_cohort,
    outcome_assignments,
    treatment_assignments,
)
from .io import cohort_csv_text
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
    """The grid's bundle: the four scenarios' reports and cohorts, with Table 1.

    ``cohort_csv`` holds each scenario's cohort, by label, only as the text
    ``io.write_cohort_csv`` writes for it.
    """

    reports: list[EquityReport]
    table1: Table1Summary
    cohort_csv: dict[str, str]


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity, else the CPU count.

    One where ``os.fork`` is missing, and while another thread runs, since
    a forked child can deadlock on a lock that thread held.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(work, share):
    """A child process that pickles ``work(share)`` into a pipe: (pid, read end).

    None when the system has no process to spare.  The child leaves only
    through ``os._exit``, 0 on success and 1 on any exception, so it runs
    none of the caller's cleanup and flushes none of its streams.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            import pickle
            os.close(read_end)
            data = memoryview(pickle.dumps(work(share), pickle.HIGHEST_PROTOCOL))
            while data:
                data = data[os.write(write_end, data) :]
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _join(child: tuple[int, int] | None) -> bytes | None:
    """Read a child's pipe to its end and reap it: its pickle, or None if it failed."""
    if child is None:
        return None
    pid, read_end = child
    try:
        chunks = []
        while chunk := os.read(read_end, 1 << 20):
            chunks.append(chunk)
    finally:
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    return b"".join(chunks) if status == 0 else None


def _join_all(children: list) -> list[bytes | None]:
    """``_join`` each child in turn; every one is joined even when one raises."""
    if not children:
        return []
    try:
        first = _join(children[0])
    finally:
        rest = _join_all(children[1:])
    return [first, *rest]


def _spread(work, items: tuple) -> list:
    """``work`` of each item in order, over contiguous shares, the caller's first.

    There is one share per worker: one per usable CPU, at most one per
    item.  Every child is read to its end and reaped before this returns
    or raises.  A failed child's share is rerun here, so its exception is
    the serial one; so is a share no child could be started for.
    """
    import pickle  # here, so that ``import oxequity`` does not load it
    workers = min(len(items), _usable_cpus()) or 1
    bounds = [len(items) * k // workers for k in range(workers + 1)]
    shares = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(work, share))
        results = work(shares[0])
    finally:
        payloads = _join_all(children)
    for share, payload in zip(shares[1:], payloads):
        results += work(share) if payload is None else pickle.loads(payload)
    return results


def run_scenario_grid(base: ScenarioConfig, audit: AuditConfig) -> GridResult:
    """Generate and audit all four scenarios, plus the protocol summary.

    Each scenario is ``base`` with its channels' DGP group terms set to
    0.0; a term that ``base`` already sets to 0.0 stays 0.0, and Table 1
    runs ``base.dgp`` itself.  The patients' streams are hashed once; the
    four scenario cohorts and the Table-1 cohort are all derived from
    those draws.  Each scenario is derived, audited and rendered in turn,
    in label order, spread over worker processes (see the module
    docstring); the result is the same for any number of workers.

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

    def scenarios(labels):
        done = []
        for label in labels:
            dgp = replace(draws.dgp, **_ZEROED[label])
            cohort = derive_cohort(replace(draws, dgp=dgp), base.treatment_mode)
            report = run_full_audit(cohort, audit, scenario_label=label)
            done.append((report, cohort_csv_text(cohort)))
        return done

    reports, texts = zip(*_spread(scenarios, SCENARIO_LABELS))
    return GridResult(
        reports=list(reports),
        table1=threshold_protocol_summary(draws),
        cohort_csv=dict(zip(SCENARIO_LABELS, texts)),
    )
