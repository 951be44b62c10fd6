"""Scenario grid invariants, protocol summary, and figure data."""

import errno
import hashlib
import os
import pickle
import threading
from dataclasses import replace

import pytest

from oxequity import grid
from oxequity.cohort import DEFAULT_DGP, DgpParams, ScenarioConfig, draw_cohort, generate_cohort
from oxequity.figure import figure_summary
from oxequity.grid import SCENARIO_LABELS, run_scenario_grid, threshold_protocol_summary
from oxequity.io import cohort_csv_text, write_cohort_csv
from oxequity.metrics import AuditConfig, EquityReport, run_full_audit
from oxequity.reports import figure_to_csv, table1_to_markdown

from oracles import cohort_of, csv_columns, gold_free, scenario_configs_oracle


@pytest.fixture(scope="module")
def grid_result():
    return run_scenario_grid(ScenarioConfig(seed=3), AuditConfig())


class TestScenarioGrid:
    def test_scenario_order_and_toggles(self, grid_result):
        configs = scenario_configs_oracle(ScenarioConfig(seed=3))
        assert tuple(configs) == SCENARIO_LABELS
        assert tuple(grid_result.cohort_csv) == SCENARIO_LABELS
        for report, (label, config) in zip(grid_result.reports, configs.items(), strict=True):
            cohort = generate_cohort(config)
            assert report == run_full_audit(cohort, AuditConfig(), scenario_label=label)
            assert grid_result.cohort_csv[label] == cohort_csv_text(cohort)

    def test_common_random_numbers_across_scenarios(self, grid_result):
        columns = {label: csv_columns(text) for label, text in grid_result.cohort_csv.items()}
        w_true = columns["both"]["w_true"]
        for label in SCENARIO_LABELS[1:]:
            assert columns[label]["w_true"] == w_true
        # measurement columns identical within each toggle pair
        assert columns["both"]["epsilon"] == columns["measurement_only"]["epsilon"]
        assert columns["systemic_only"]["epsilon"] == columns["none"]["epsilon"]
        assert columns["both"]["epsilon"] != columns["none"]["epsilon"]

    def test_fisher_rows_equal_within_pairs(self, grid_result):
        by_label = {
            rep.scenario_label: {m.metric_name: m for m in rep.metrics}
            for rep in grid_result.reports
        }
        both = by_label["both"]["representativeness"].group_values
        measurement = by_label["measurement_only"]["representativeness"].group_values
        systemic = by_label["systemic_only"]["representativeness"].group_values
        none = by_label["none"]["representativeness"].group_values
        assert both == measurement
        assert systemic == none
        assert both != none

    def test_report_labels_ordered(self, grid_result):
        assert [rep.scenario_label for rep in grid_result.reports] == list(SCENARIO_LABELS)

    def test_audit_threshold_must_be_the_dgp_threshold(self):
        # Table 1 selects by the DGP's w_hypox; Table 2 may not select by another.
        with pytest.raises(ValueError, match=r"w_hypox=88\.0.*w_hypox=86\.0"):
            run_scenario_grid(ScenarioConfig(dgp=DgpParams(w_hypox=86.0)), AuditConfig())

    def test_none_scenario_unflagged(self, grid_result):
        none_report = grid_result.reports[3]
        assert not any(m.flagged for m in none_report.metrics)


def _counted_forks(monkeypatch) -> list[int]:
    """Make ``os.fork`` record each call in the returned list."""
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


class TestWorkers:
    @pytest.fixture(scope="class")
    def serial(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid, "_usable_cpus", lambda: 1)
            return run_scenario_grid(ScenarioConfig(seed=3), AuditConfig())

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_any_worker_count_gives_the_serial_result(self, monkeypatch, serial, workers):
        monkeypatch.setattr(grid, "_usable_cpus", lambda: workers)
        forks = _counted_forks(monkeypatch)
        assert run_scenario_grid(ScenarioConfig(seed=3), AuditConfig()) == serial
        assert len(forks) == workers - 1
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_shares_no_child_can_start_for_run_in_the_caller(self, monkeypatch, serial):
        def failing_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(grid, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert run_scenario_grid(ScenarioConfig(seed=3), AuditConfig()) == serial

    def test_an_interrupted_join_still_reaps_every_child(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        def interrupted_read(fd, size):
            raise Interrupt

        monkeypatch.setattr(grid, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(os, "read", interrupted_read)
        with pytest.raises(Interrupt):
            run_scenario_grid(ScenarioConfig(n_total=300, seed=3), AuditConfig())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_hands_back_only_reports_and_cohort_text(self, monkeypatch, serial):
        payloads, join = [], grid._join

        def recording_join(child):
            payload = join(child)
            payloads.append(payload)
            return payload

        monkeypatch.setattr(grid, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(grid, "_join", recording_join)
        assert run_scenario_grid(ScenarioConfig(seed=3), AuditConfig()) == serial
        assert len(payloads) == 3
        for payload in payloads:  # one scenario each
            types = [(type(pair), *map(type, pair)) for pair in pickle.loads(payload)]
            assert types == [(tuple, EquityReport, str)]

    def test_rendered_cohort_csv_is_the_written_file(self, tmp_path, serial):
        for label, config in scenario_configs_oracle(ScenarioConfig(seed=3)).items():
            path = tmp_path / f"{label}.csv"
            write_cohort_csv(generate_cohort(config), path)
            assert path.read_bytes() == serial.cohort_csv[label].encode("utf-8")

    def test_usable_cpus_is_the_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        for cpus in (1, 2, 4, 64):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            assert grid._usable_cpus() == cpus
        # A forked child could deadlock on a lock another thread holds.
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert grid._usable_cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert grid._usable_cpus() == 64
        monkeypatch.delattr(os, "fork")
        assert grid._usable_cpus() == 1

    @pytest.mark.parametrize(("items", "forks"), ((8, 2), (4, 2), (2, 1), (1, 0), (0, 0)))
    def test_spread_takes_any_items(self, monkeypatch, items, forks):
        # At most one worker per usable CPU and per item; results in item order.
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        labels = tuple(f"label{i}" for i in range(items))
        forked = _counted_forks(monkeypatch)
        results = grid._spread(lambda share: [(label, os.getpid()) for label in share], labels)
        assert [label for label, _ in results] == list(labels)
        assert len(forked) == forks
        pids = [pid for _, pid in results]
        assert len(set(pids)) == min(items, 3)
        assert pids[:1] in ([], [os.getpid()])  # the caller runs the first share
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)


class TestThresholdProtocol:
    def test_rates_ordered_and_in_bands(self, grid_result):
        t = grid_result.table1
        # differential overreading denies group 1 far more often
        assert t.untreated_hypoxemic[1] > 3.0 * t.untreated_hypoxemic[0]
        # and costs group 1 adverse outcomes relative to true-value treatment
        assert t.outcome_measured_driven[1] > t.outcome_true_driven[1]
        for a in (0, 1):
            assert 0.0 < t.untreated_hypoxemic[a] < 1.0
            assert 0.0 < t.outcome_true_driven[a] < 1.0

    def test_true_driven_rates_group_equal_in_expectation(self):
        # deterministic protocol has no group channel, so treatment under
        # the true value makes the groups exchangeable; check across seeds
        gaps = []
        for seed in range(1, 9):
            t = threshold_protocol_summary(draw_cohort(ScenarioConfig(seed=seed)))
            gaps.append(t.outcome_true_driven[1] - t.outcome_true_driven[0])
        mean_gap = sum(gaps) / len(gaps)
        assert abs(mean_gap) < 0.01

    def test_deterministic_mode_forced(self):
        stochastic_base = ScenarioConfig(seed=5, treatment_mode="stochastic")
        summary = threshold_protocol_summary(draw_cohort(stochastic_base))
        cohort = generate_cohort(
            replace(stochastic_base, treatment_mode="deterministic")
        )
        group1 = [y for y, a in zip(cohort.outcome, cohort.group_a) if a == 1]
        expected = sum(group1) / len(group1)
        assert summary.outcome_measured_driven[1] == pytest.approx(expected, abs=1e-12)

    def test_empty_group_rejected(self):
        # two patients at a 0.1% group-1 share: both land in group 0
        with pytest.raises(ValueError) as info:
            threshold_protocol_summary(
                draw_cohort(ScenarioConfig(n_total=2, p_group1=0.001, seed=1))
            )
        assert str(info.value) == "group 1 is empty; cannot summarize the protocol"

    def test_group_without_hypoxemia_has_no_untreated_share(self):
        # every true saturation is 99, above the hypoxemia threshold: the
        # untreated share has no patients to count, the outcome rates do
        dgp = DgpParams(saturation_mean=99.0, saturation_sd=0.0)
        summary = threshold_protocol_summary(draw_cohort(ScenarioConfig(n_total=50, dgp=dgp)))
        assert summary.untreated_hypoxemic == {0: None, 1: None}
        for rate in (summary.outcome_measured_driven, summary.outcome_true_driven):
            assert all(0.0 <= rate[a] <= 1.0 for a in (0, 1))
        assert table1_to_markdown(summary).splitlines()[2].startswith("| A=0 |  |")


class TestFigureSummary:
    def test_identity_measurement_keeps_medians_in_bin(self):
        dgp = replace(
            DEFAULT_DGP, err_base=0.0, err_noise_sd=1e-9, err_group_shift=0.0, err_group_slope=0.0
        )
        cohort = generate_cohort(ScenarioConfig(seed=11, dgp=dgp))
        summary = figure_summary(cohort, bin_width=1.0)
        for b in summary.bins:
            assert b.bin_center - 0.5 - 1e-6 <= b.median <= b.bin_center + 0.5 + 1e-6

    def test_quartiles_ordered_and_counts_account(self):
        cohort = generate_cohort(ScenarioConfig(seed=12))
        summary = figure_summary(cohort, bin_width=1.0, value_range=(85.0, 95.0))
        assert summary.out_of_range > 0
        assert sum(b.count for b in summary.bins) + summary.out_of_range == len(cohort)
        for b in summary.bins:
            assert b.minimum <= b.q1 <= b.median <= b.q3 <= b.maximum

    def test_measurement_bias_shifts_group1_down_near_protocol_threshold(self):
        for seed in (1, 2, 3):
            cohort = generate_cohort(ScenarioConfig(seed=seed))
            summary = figure_summary(cohort, bin_width=1.0)
            medians = {(b.bin_center, b.group_a): b.median for b in summary.bins}
            for center in (91.0, 92.0, 93.0):
                assert medians[(center, 1)] < medians[(center, 0)]

    def test_empty_bins_omitted(self):
        cohort = generate_cohort(ScenarioConfig(seed=13, n_total=60))
        summary = figure_summary(cohort, bin_width=1.0)
        assert all(b.count >= 1 for b in summary.bins)

    def test_gold_free_rejected(self):
        cohort = generate_cohort(ScenarioConfig(seed=14, n_total=50))
        with pytest.raises(ValueError):
            figure_summary(gold_free(cohort))

    def test_one_blank_epsilon_rejected(self):
        # The audit's rule: every patient has both w_true and epsilon.
        cohort = generate_cohort(ScenarioConfig(seed=14, n_total=50))
        one_blank = replace(cohort, epsilon=[*cohort.epsilon[:-1], None])
        assert None not in one_blank.w_true and not one_blank.gold
        with pytest.raises(ValueError, match="gold-standard"):
            figure_summary(one_blank)

    def test_validation(self):
        cohort = generate_cohort(ScenarioConfig(seed=15, n_total=50))
        with pytest.raises(ValueError):
            figure_summary(cohort, bin_width=0.0)
        with pytest.raises(ValueError):
            figure_summary(cohort, value_range=(95.0, 90.0))
        with pytest.raises(ValueError):
            figure_summary(cohort_of([]))

    def test_csv_shape(self):
        cohort = generate_cohort(ScenarioConfig(seed=16, n_total=500))
        summary = figure_summary(cohort)
        text = figure_to_csv(summary)
        lines = text.strip().splitlines()
        assert lines[0] == "bin_center,group_a,count,min,q1,median,q3,max"
        assert len(lines) == 1 + len(summary.bins)
        assert all(len(line.split(",")) == 8 for line in lines[1:])
        # The bytes, as the figure command writes them.
        digest = "b3b243c203ca30e57d8a9f5c0d77a5d1c518a661e4dfc27e95730b77f31cdaa5"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
