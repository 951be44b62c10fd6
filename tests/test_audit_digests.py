"""Pinned sha256 digests of full-audit reports (JSON + CSV + markdown).

The cohorts cover every way a metric can leave the "ok" path: gold and
gold-free cohorts, a degenerate treatment margin (everyone treated), an
untestable treatment effect (every hypoxemic patient treated), zero error
variance with a collinear design, and a single measured value.  A
refactor of the audit or of the renderers must leave every digest as it
is; a change of behaviour updates the digest it names, and says why.
"""

import hashlib
from dataclasses import replace

import pytest

from oxequity.cohort import ScenarioConfig, generate_cohort
from oxequity.metrics import AuditConfig, run_full_audit
from oxequity.reports import report_to_csv, report_to_json, report_to_markdown

from oracles import Record, cohort_of, gold_free

DIGESTS = {
    "gold_seed3": "e000342319173eb6f0d69e76babc470587ab8cb37fc115dde97a3a604dacf072",
    "gold_seed5": "77a9be6c6ae2d5d36dba6fbb38fb74ee4c3fae89c8f1832235352e91e7718e48",
    "gold_free_seed3": "4105bf117f5827920049cddaab650ff40a0fbd0d10a4705a16e5524fc1514e82",
    "gold_free_seed5": "71c86a1ee5d3c5fdadb5da190e0b909853a12212d1bbfbc32467a90f60e05bae",
    "all_treated_gold": "8158c5cbdb9f4c24216770de480b93205f0aa62ed93d73ef308508ded155f86d",
    "all_treated_gold_free": "c1d9a9bfd2ddb5f8b9ed0aa7f8401df05cd164172ea08742458de287423e484c",
    "hypoxemic_all_treated_gold": "a769e1d7dff77e29c9762c2836333ef8c5a81e76e52081fd98c20cfbb44a345e",
    "hypoxemic_all_treated_gold_free": "13b76acf86646d2c66c9ec7ad334adf75146f81b836a8de6dc4bd10fa42a2e51",
    "degenerate_40_gold": "bd851e44876f182a22d1a1a57bfa6595db543667576d5ff4ae9e6573abaa2192",
    "degenerate_40_gold_free": "bff738ad6fecbce8b11926a711ae2dc2ae8d4ae3b06e9c8e064ffd3d1856b965",
    "single_wstar_gold": "b04bdd01a95a8272bc6ddf8e63ceafe68725dcf6c015eddde95ac8ed770e7140",
    "single_wstar_gold_free": "1279614ef35580397b39fb64831ac057640b50276b3a757ab2746cee813787f6",
    "seeds_3_5_together": "aa9336e26f80309bd99a080e6049d94964e27ca2c9c4a0601261f3997f3172a2",
}


def _degenerate():
    # zero error everywhere, W* set by group, disjoint W* bins
    return cohort_of(
        Record(i, int(i >= 20), 90.0 + 3.0 * (i >= 20), 90.0 + 3.0 * (i >= 20),
               0.0, i % 2, int(i % 4 == 0))
        for i in range(40)
    )


def _single_wstar():
    # every reading is 90 while the true saturation varies
    out = []
    for i in range(60):
        w_true = 84.0 + (i % 9)
        out.append(Record(i, i % 2, w_true, 90.0, 90.0 - w_true,
                          int(i % 3 == 0), int(i % 5 == 0)))
    return cohort_of(out)


@pytest.fixture(scope="module")
def cases():
    s3 = generate_cohort(ScenarioConfig(seed=3))
    s5 = generate_cohort(ScenarioConfig(seed=5))
    all_treated = replace(s3, treated=[1] * len(s3))
    hyp_treated = replace(
        s3, treated=[1 if w < 88.0 else z for w, z in zip(s3.w_true, s3.treated)]
    )
    return {
        "gold_seed3": [s3],
        "gold_seed5": [s5],
        "gold_free_seed3": [gold_free(s3)],
        "gold_free_seed5": [gold_free(s5)],
        "all_treated_gold": [all_treated],
        "all_treated_gold_free": [gold_free(all_treated)],
        "hypoxemic_all_treated_gold": [hyp_treated],
        "hypoxemic_all_treated_gold_free": [gold_free(hyp_treated)],
        "degenerate_40_gold": [_degenerate()],
        "degenerate_40_gold_free": [gold_free(_degenerate())],
        "single_wstar_gold": [_single_wstar()],
        "single_wstar_gold_free": [gold_free(_single_wstar())],
        "seeds_3_5_together": [s3, gold_free(s3), s5, gold_free(s5)],
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest(cases, name):
    config = AuditConfig()
    reports = [
        run_full_audit(cohort, config, scenario_label=f"c{k}")
        for k, cohort in enumerate(cases[name])
    ]
    text = report_to_json(reports) + report_to_csv(reports) + report_to_markdown(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_statuses_on_degenerate_margins(cases):
    # what the digests pin, in words
    config = AuditConfig()
    statuses = {
        name: {m.metric_name: m.status for m in run_full_audit(cases[name][0], config).metrics}
        for name in ("all_treated_gold", "all_treated_gold_free", "hypoxemic_all_treated_gold")
    }
    gold, gold_free = statuses["all_treated_gold"], statuses["all_treated_gold_free"]
    assert gold["treatment_gap"].startswith("untestable: degenerate treatment margin")
    assert gold["outcome_decomposition"] == gold["treatment_gap"]
    assert gold_free["treatment_gap"] == gold["treatment_gap"]
    assert gold_free["outcome_decomposition"] == "skipped: no gold standard"
    tau_missing = statuses["hypoxemic_all_treated_gold"]
    assert tau_missing["treatment_gap"] == "ok"
    assert tau_missing["outcome_decomposition"] == (
        "untestable: hypoxemic stratum lacks treated or untreated patients"
    )


def test_degenerate_margins_name_their_table(cases):
    # the full statuses behind the prefixes above, one per chi-square table
    config = AuditConfig()
    s3 = cases["gold_seed3"][0]

    def status(cohort, name):
        return {m.metric_name: m.status for m in run_full_audit(cohort, config).metrics}[name]

    assert status(cases["all_treated_gold"][0], "treatment_gap") == (
        "untestable: degenerate treatment margin: "
        "column 1 of the contingency table has zero total"
    )
    assert status(cases["hypoxemic_all_treated_gold"][0], "equality_of_opportunity") == (
        "untestable: degenerate hypoxemic stratum: "
        "column 1 of the contingency table has zero total"
    )
    assert status(replace(s3, outcome=[0] * len(s3)), "observed_outcome_gap") == (
        "untestable: degenerate outcome margin: "
        "column 0 of the contingency table has zero total"
    )
