"""Command-line surface: subcommands, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oxequity import grid
from oxequity.cli import _config, _grid_configs, build_parser, main
from oxequity.cohort import TREATMENT_MODES, DgpParams, ScenarioConfig, draw_cohort
from oxequity.grid import threshold_protocol_summary
from oxequity.io import read_cohort_csv
from oxequity.metrics import AuditConfig
from oxequity.reports import parse_report_json


def run(*argv):
    return main(list(argv))


def test_simulate_writes_deterministic_csv(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("simulate", "--n", "200", "--seed", "9", "--out", str(a)) == 0
    assert run("simulate", "--n", "200", "--seed", "9", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(read_cohort_csv(a)) == 200


def test_simulate_toggle_changes_measurements(tmp_path):
    # The measurement channel is off when its group terms are zero.
    params = tmp_path / "p.json"
    params.write_text('{"err_group_shift": 0, "err_group_slope": 0}\n')
    on = tmp_path / "on.csv"
    off = tmp_path / "off.csv"
    run("simulate", "--n", "200", "--seed", "9", "--out", str(on))
    run(
        "simulate", "--n", "200", "--seed", "9", "--params", str(params),
        "--out", str(off),
    )
    assert on.read_bytes() != off.read_bytes()
    # but the true-saturation column is untouched (common random numbers)
    col = lambda p: [line.split(",")[2] for line in p.read_text().splitlines()[1:]]
    assert col(on) == col(off)


def test_audit_markdown_to_stdout(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "400", "--seed", "4", "--out", str(cohort))
    assert run("audit", "--in", str(cohort)) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Metric |")
    assert "representativeness" in out


def test_audit_json_file_round_trips(tmp_path):
    cohort = tmp_path / "c.csv"
    report = tmp_path / "report.json"
    run("simulate", "--n", "400", "--seed", "4", "--out", str(cohort))
    assert (
        run("audit", "--in", str(cohort), "--format", "json", "--out", str(report)) == 0
    )
    parsed = parse_report_json(report.read_text())
    assert parsed[0].scenario_label == "cohort"
    assert len(parsed[0].metrics) == 10


@pytest.mark.parametrize("padded", ("gold", "every"))
def test_padded_header_audits_as_the_plain_file(tmp_path, padded):
    # Header names are stripped like every cell, so a padded gold name does
    # not make the file read as gold-free.
    source = tmp_path / "plain.csv"
    run("simulate", "--n", "300", "--seed", "5", "--out", str(source))
    header, body = source.read_text().split("\n", 1)
    pad = ("w_true", "epsilon") if padded == "gold" else tuple(header.split(","))
    names = [f" {name} " if name in pad else name for name in header.split(",")]
    padded_file = tmp_path / "padded.csv"
    padded_file.write_text(",".join(names) + "\n" + body)
    reports = []
    for path in (source, padded_file):
        out = tmp_path / f"{path.stem}.json"
        assert run("audit", "--in", str(path), "--format", "json", "--out", str(out)) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]
    assert b"no gold standard" not in reports[0]


def test_audit_gold_free_file(tmp_path, capsys):
    source = tmp_path / "full.csv"
    run("simulate", "--n", "300", "--seed", "5", "--out", str(source))
    lines = source.read_text().splitlines()
    keep = [0, 1, 3, 5, 6]  # drop w_true and epsilon
    stripped = tmp_path / "nogold.csv"
    stripped.write_text(
        "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines) + "\n"
    )
    report = tmp_path / "r.json"
    assert run("audit", "--in", str(stripped), "--format", "json", "--out", str(report)) == 0
    parsed = parse_report_json(report.read_text())
    statuses = {m.metric_name: m.status for m in parsed[0].metrics}
    assert statuses["information_bias"] == "skipped: no gold standard"
    assert statuses["systemic_bias_cmh"] == "ok"
    capsys.readouterr()


def _copy_without(source, target, *columns):
    """Copy a cohort file without the named columns."""
    rows = [line.split(",") for line in source.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in columns]
    target.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))


@pytest.mark.parametrize("fmt", ("markdown", "csv", "json"))
def test_require_gold_keeps_a_gold_report(tmp_path, fmt):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "300", "--seed", "5", "--out", str(cohort))
    reports = []
    for flag in ((), ("--require-gold",)):
        out = tmp_path / f"r{len(reports)}"
        assert run("audit", "--in", str(cohort), "--format", fmt, "--out", str(out), *flag) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]


@pytest.mark.parametrize("mixed", (False, True), ids=("gold_free", "mixed"))
def test_require_gold_rejects_a_patient_without_gold(tmp_path, capsys, mixed):
    source = tmp_path / "c.csv"
    run("simulate", "--n", "300", "--seed", "5", "--out", str(source))
    partial = tmp_path / "partial.csv"
    if mixed:  # gold blank on every other row
        rows = [line.split(",") for line in source.read_text().splitlines()]
        for row in rows[2::2]:
            row[2] = row[4] = ""
        partial.write_text("".join(",".join(row) + "\n" for row in rows))
    else:
        _copy_without(source, partial, "w_true", "epsilon")
    assert run("audit", "--in", str(partial), "--format", "json") == 0
    capsys.readouterr()
    assert run("audit", "--in", str(partial), "--require-gold") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("kept", ("w_true", "epsilon"))
def test_audit_rejects_a_header_with_one_gold_column(tmp_path, capsys, kept):
    # A header names both gold columns or neither, as a row fills both or neither.
    dropped = {"w_true": "epsilon", "epsilon": "w_true"}[kept]
    source = tmp_path / "c.csv"
    run("simulate", "--n", "50", "--seed", "5", "--out", str(source))
    half_gold = tmp_path / "half_gold.csv"
    _copy_without(source, half_gold, dropped)
    assert run("audit", "--in", str(half_gold)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: missing required column(s): {dropped} (row 1)\n"


def test_audit_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("patient_id,group_a,w_true,w_star,epsilon,treated,outcome\n0,0,90,91.3,1.3,2,0\n")
    assert run("audit", "--in", str(bad)) == 1
    err = capsys.readouterr().err
    assert "row 2" in err and "treated" in err


def test_missing_file_exit_code(tmp_path, capsys):
    assert run("audit", "--in", str(tmp_path / "nope.csv")) == 1
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run("simulate", "--n", "not-a-number", "--out", "x.csv") == 1
    assert run("frobnicate") == 1
    capsys.readouterr()


def test_w_treat_option_is_gone(tmp_path, capsys):
    # No metric read the audit-side treatment threshold; the grid takes
    # its threshold from the DGP parameters (--params).
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "200", "--seed", "2", "--out", str(cohort))
    assert run("audit", "--in", str(cohort), "--w-treat", "92") == 1
    out = tmp_path / "bundle"
    assert run("grid", "--n", "200", "--w-treat", "92", "--out", str(out)) == 1
    assert "--w-treat" in capsys.readouterr().err
    assert not out.exists()


def test_option_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["grid", "--out", "bundle"])
    assert _grid_configs(args) == (ScenarioConfig(), AuditConfig())
    args = build_parser().parse_args(["audit", "--in", "c.csv"])
    assert _config(AuditConfig, args) == AuditConfig()


AUDIT_ARGV = [
    "--alpha", "0.1", "--power", "0.9", "--delta", "2.5", "--flag-level", "0.02",
    "--target-prevalence", "0.25", "--bin-width", "0.5",
]
AUDIT = AuditConfig(
    alpha=0.1,
    power=0.9,
    delta=2.5,
    flag_level=0.02,
    w_hypox=87.5,
    target_prevalence=0.25,
    wstar_bin_width=0.5,
)


def test_every_option_reaches_its_config_field(tmp_path):
    # The grid's hypoxemia threshold is its DGP's, set in the params file.
    params = tmp_path / "p.json"
    params.write_text('{"err_base": 0.5, "w_hypox": 87.5}\n')
    args = build_parser().parse_args(
        [
            "grid", "--out", "bundle", "--params", str(params),
            "--n", "321", "--p-group1", "0.3", "--seed", "7",
            "--treatment-mode", "deterministic",
            *AUDIT_ARGV,
        ]
    )
    scenario = ScenarioConfig(
        n_total=321,
        p_group1=0.3,
        seed=7,
        treatment_mode="deterministic",
        dgp=DgpParams(err_base=0.5, w_hypox=87.5),
    )
    assert _grid_configs(args) == (scenario, AUDIT)
    # The argv sets every field, so a field that gains an option must be added here.
    for config, default in ((scenario, ScenarioConfig()), (AUDIT, AuditConfig())):
        for field in dataclasses.fields(config):
            assert getattr(config, field.name) != getattr(default, field.name), field.name


def test_every_audit_option_reaches_its_config_field():
    args = build_parser().parse_args(["audit", "--in", "c.csv", "--w-hypox", "87.5", *AUDIT_ARGV])
    assert _config(AuditConfig, args) == AUDIT


def test_audit_w_hypox_outside_the_window_exit_code(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "200", "--seed", "2", "--out", str(cohort))
    assert run("audit", "--in", str(cohort), "--w-hypox", "60") == 1
    assert "error: w_hypox=60.0 outside (70.0, 100.0)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, message",
    (
        (("--w-hypox", "60"), "error: w_hypox=60.0 outside (70.0, 100.0)\n"),
        (("--alpha", "2"), "error: alpha must lie in (0, 1), got 2.0\n"),
    ),
)
def test_audit_options_are_checked_before_the_file_is_read(tmp_path, capsys, option, message):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("audit", "--in", str(empty), *option) == 1
    assert capsys.readouterr().err == message


def test_grid_has_no_w_hypox_option(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run("grid", "--n", "200", "--w-hypox", "86", "--out", str(out)) == 1
    assert "unrecognized arguments: --w-hypox 86" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ("simulate", "grid"))
@pytest.mark.parametrize("option", ("--no-measurement-bias", "--systemic-bias"))
def test_bias_channels_have_no_toggle_options(tmp_path, capsys, command, option):
    # A channel is switched off by zeroing its group terms with --params.
    out = tmp_path / "out"
    assert run(command, "--n", "200", option, "--out", str(out)) == 1
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists()


def test_zeroed_params_simulate_the_grid_scenarios(tmp_path):
    # Each grid cohort but "both" is the cohort of its zeroed group terms.
    assert run("grid", "--n", "500", "--seed", "3", "--out", str(tmp_path / "g")) == 0
    for label, zeroed in (
        ("measurement_only", '{"treat_group_penalty": 0}'),
        ("systemic_only", '{"err_group_shift": 0, "err_group_slope": 0}'),
        ("none", '{"err_group_shift": 0, "err_group_slope": 0, "treat_group_penalty": 0}'),
    ):
        params = tmp_path / f"{label}.json"
        params.write_text(zeroed + "\n")
        out = tmp_path / f"{label}.csv"
        argv = ("simulate", "--n", "500", "--seed", "3", "--params", str(params))
        assert run(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == (tmp_path / "g" / f"cohort_{label}.csv").read_bytes()


def test_grid_tables_select_the_same_hypoxemic_patients(tmp_path):
    # One threshold per grid run, the DGP's: with the deterministic rule the
    # "both" scenario is Table 1's cohort, so Table 1's untreated share of
    # the truly hypoxemic is 1 minus Table 2's hypoxemic treatment rate.
    params = tmp_path / "p.json"
    params.write_text('{"w_hypox": 86.0}\n')
    argv = ("grid", "--n", "2500", "--seed", "3", "--treatment-mode", "deterministic")
    assert run(*argv, "--params", str(params), "--out", str(tmp_path / "at86")) == 0
    assert run(*argv, "--out", str(tmp_path / "at88")) == 0
    table1 = threshold_protocol_summary(
        draw_cohort(ScenarioConfig(n_total=2500, seed=3, dgp=DgpParams(w_hypox=86.0)))
    )
    table1_md = (tmp_path / "at86" / "table1.md").read_text()
    at86, at88 = (
        json.loads((tmp_path / name / "table2.json").read_text())["reports"][0]
        for name in ("at86", "at88")
    )
    (disparity,) = (m for m in at86["metrics"] if m["metric_name"] == "treatment_disparity")
    for a in (0, 1):
        untreated = table1.untreated_hypoxemic[a]
        assert f"| A={a} | {untreated:.4f} |" in table1_md
        assert untreated == pytest.approx(1.0 - disparity["group_values"][str(a)], abs=1e-12)
        key = f"hypoxemia_rate_group{a}"
        assert at86["cohort_summary"][key] != at88["cohort_summary"][key]


def test_grid_rejects_nan_delta_before_writing(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run("grid", "--n", "200", "--delta", "nan", "--out", str(out)) == 1
    assert "delta must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_grid_survives_a_tiny_bin_width(tmp_path):
    # w_star / 1e-320 is infinite: only the CMH metric becomes untestable
    out = tmp_path / "bundle"
    assert run("grid", "--n", "300", "--bin-width", "1e-320", "--out", str(out)) == 0
    payload = parse_report_json((out / "table2.json").read_text())
    for report in payload:
        statuses = {m.metric_name: m.status for m in report.metrics}
        assert statuses["systemic_bias_cmh"] == (
            "untestable: CMH bin width 1e-320 is too small for finite bins"
        )


def test_grid_writes_expected_bundle(tmp_path):
    out = tmp_path / "bundle"
    assert run("grid", "--n", "1000", "--seed", "2", "--out", str(out)) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "table1.md",
        "table2.md",
        "table2.csv",
        "table2.json",
        "cohort_both.csv",
        "cohort_measurement_only.csv",
        "cohort_systemic_only.csv",
        "cohort_none.csv",
    }
    payload = json.loads((out / "table2.json").read_text())
    assert [rep["scenario_label"] for rep in payload["reports"]] == [
        "both",
        "measurement_only",
        "systemic_only",
        "none",
    ]


def test_grid_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "g1"
    out2 = tmp_path / "g2"
    run("grid", "--n", "600", "--seed", "8", "--out", str(out1))
    run("grid", "--n", "600", "--seed", "8", "--out", str(out2))
    for name in ("table1.md", "table2.json", "cohort_both.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("mode", TREATMENT_MODES)
def test_grid_bundle_is_the_same_for_any_worker_count(tmp_path, monkeypatch, mode):
    bundles = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(grid, "_usable_cpus", lambda: workers)
        out = tmp_path / f"w{workers}"
        argv = ("grid", "--n", "600", "--seed", "3", "--treatment-mode", mode)
        assert run(*argv, "--out", str(out)) == 0
        bundles.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(bundles[0]) == 8
    assert bundles[1] == bundles[0] and bundles[2] == bundles[0]


@pytest.mark.parametrize("failing", ("none", "both"))  # a child's share, the caller's
def test_grid_failure_in_any_worker_is_the_serial_failure(tmp_path, monkeypatch, capsys, failing):
    audit = grid.run_full_audit

    def audit_failing_for_one_label(cohort, config, scenario_label):
        if scenario_label == failing:
            raise ArithmeticError(f"audit of {scenario_label} failed")
        return audit(cohort, config, scenario_label=scenario_label)

    monkeypatch.setattr(grid, "run_full_audit", audit_failing_for_one_label)
    for workers in (1, 2):
        monkeypatch.setattr(grid, "_usable_cpus", lambda: workers)
        out = tmp_path / f"w{workers}"
        assert run("grid", "--n", "300", "--seed", "3", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: audit of {failing} failed\n"
        assert captured.out == ""
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)


def test_figure_outputs_csv(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "500", "--seed", "6", "--out", str(cohort))
    assert run("figure", "--in", str(cohort)) == 0
    out = capsys.readouterr().out
    assert out.startswith("bin_center,group_a,count")


def test_figure_rejects_gold_free(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "200", "--seed", "6", "--out", str(cohort))
    lines = cohort.read_text().splitlines()
    keep = [0, 1, 3, 5, 6]
    stripped = tmp_path / "nogold.csv"
    stripped.write_text(
        "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines) + "\n"
    )
    assert run("figure", "--in", str(stripped)) == 1
    capsys.readouterr()


def test_figure_has_no_reference_line_option(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "50", "--seed", "6", "--out", str(cohort))
    capsys.readouterr()
    assert run("figure", "--in", str(cohort), "--w-hypox", "88") == 1
    assert "unrecognized arguments: --w-hypox 88" in capsys.readouterr().err


def test_figure_rejects_a_tiny_bin_width(tmp_path, capsys):
    # the CMH bins of the audit: w_star / 1e-320 is infinite
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "50", "--seed", "6", "--out", str(cohort))
    capsys.readouterr()
    assert run("figure", "--in", str(cohort), "--bin-width", "1e-320") == 1
    assert capsys.readouterr().err == (
        "error: bin width 1e-320 is too small for finite bins\n"
    )


@pytest.mark.parametrize(
    "args, message",
    (
        (("--bin-width", "inf"), "error: bin_width must be finite and positive, got inf\n"),
        (("--bin-width", "nan"), "error: bin_width must be finite and positive, got nan\n"),
        (
            ("--range", "80", "nan"),
            "error: value_range must be finite with low < high, got (80.0, nan)\n",
        ),
    ),
)
def test_figure_rejects_non_finite_width_or_range(tmp_path, capsys, args, message):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "50", "--seed", "6", "--out", str(cohort))
    capsys.readouterr()
    assert run("figure", "--in", str(cohort), *args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


# Gold-free and quasi-separated: the IRLS score vanishes while the
# information matrix becomes singular, so no standard error exists.
QUASI_SEPARATED_CSV = (
    "group_a,w_star,treated,patient_id,outcome\n"
    "0,0,0,0,0\n0,0,0,1,0\n0,0,0,2,0\n0,25,0,3,0\n1,0,1,4,0\n1,8,0,5,0\n1,77,1,6,0\n"
)


def test_audit_json_of_a_quasi_separated_cohort(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    cohort.write_text(QUASI_SEPARATED_CSV)
    assert run("audit", "--in", str(cohort), "--format", "json") == 0
    metrics = json.loads(capsys.readouterr().out)["reports"][0]["metrics"]
    logistic = next(m for m in metrics if m["metric_name"] == "systemic_bias_logistic")
    assert logistic["status"] == (
        "non-converged: separation suspected; stratified test stands alone"
    )
    assert logistic["test"] is None


def test_params_file_flows_through(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(
        '{"err_base": 0.0, "err_noise_sd": 0.5, "err_group_shift": 0, "err_group_slope": 0}\n'
    )
    out = tmp_path / "c.csv"
    assert run(
        "simulate", "--n", "300", "--seed", "3", "--params", str(params), "--out", str(out)
    ) == 0
    cohort = read_cohort_csv(out)
    eps = cohort.epsilon
    assert abs(sum(eps) / len(eps)) < 0.1  # baseline overread removed


def test_audit_json_refuses_infinite_error(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "300", "--seed", "4", "--out", str(cohort))
    lines = cohort.read_text().splitlines()
    cells = lines[7].split(",")
    cells[4] = "inf"
    lines[7] = ",".join(cells)
    cohort.write_text("\n".join(lines) + "\n")
    assert run("audit", "--in", str(cohort), "--format", "json") == 1
    assert "row 8, column 'epsilon'" in capsys.readouterr().err


def test_audit_survives_a_huge_finite_error(tmp_path, capsys):
    cohort = tmp_path / "c.csv"
    run("simulate", "--n", "300", "--seed", "4", "--out", str(cohort))
    lines = cohort.read_text().splitlines()
    cells = lines[7].split(",")
    cells[4] = "1e308"
    lines[7] = ",".join(cells)
    cohort.write_text("\n".join(lines) + "\n")
    assert run("audit", "--in", str(cohort), "--format", "json") == 0
    statuses = {
        m["metric_name"]: m["status"]
        for m in json.loads(capsys.readouterr().out)["reports"][0]["metrics"]
    }
    assert statuses["representativeness"].startswith("untestable: ")
    assert statuses["information_bias"].startswith("untestable: ")
    assert statuses["treatment_gap"] == "ok"


def test_simulate_rejects_a_saturation_mean_far_outside_the_window(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text('{"saturation_mean": 200}\n')
    out = tmp_path / "c.csv"
    assert run("simulate", "--n", "50", "--params", str(params), "--out", str(out)) == 1
    assert "error: saturation_mean=200.0 lies more than 37" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_an_unbounded_measurement_error(tmp_path, capsys):
    # 8.3 * 1e308 overflows: some patient's error would be written as -inf.
    params = tmp_path / "p.json"
    params.write_text('{"err_noise_sd": 1e308}\n')
    out = tmp_path / "c.csv"
    assert run("simulate", "--n", "50", "--params", str(params), "--out", str(out)) == 1
    assert "error: measurement error bound" in capsys.readouterr().err
    assert not out.exists()
    assert run("grid", "--n", "50", "--params", str(params), "--out", str(tmp_path / "g")) == 1
    capsys.readouterr()


def test_grid_writes_table1_when_a_group_has_no_hypoxemic_patient(tmp_path):
    # At mean 96 group 0 of this cohort has no truly hypoxemic patient:
    # its untreated share is an empty cell, and the rest of the bundle is
    # written.
    params = tmp_path / "p.json"
    params.write_text('{"saturation_mean": 96}\n')
    out = tmp_path / "bundle"
    argv = ("grid", "--n", "2500", "--seed", "1", "--params", str(params))
    assert run(*argv, "--out", str(out)) == 0
    rows = (out / "table1.md").read_text().splitlines()
    assert rows[2].startswith("| A=0 |  | ")
    assert len(parse_report_json((out / "table2.json").read_text())) == 4


def test_audit_and_simulate_accept_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheet exports begin a UTF-8 file with a byte-order mark.
    assert run("grid", "--n", "300", "--seed", "3", "--out", str(tmp_path / "g")) == 0
    cohort = tmp_path / "g" / "cohort_both.csv"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + cohort.read_bytes())
    assert run("audit", "--in", str(cohort), "--format", "json") == 0
    plain = capsys.readouterr().out
    assert run("audit", "--in", str(marked), "--format", "json") == 0
    assert capsys.readouterr().out == plain
    params = tmp_path / "p.json"
    params.write_bytes(b'\xef\xbb\xbf{"treat_group_penalty": 0}\n')
    out = tmp_path / "c.csv"
    argv = ("simulate", "--n", "300", "--seed", "3", "--params", str(params))
    assert run(*argv, "--out", str(out)) == 0
    assert out.read_bytes() == (tmp_path / "g" / "cohort_measurement_only.csv").read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src"


def _latin1_cli(*argv) -> bytes:
    """What ``python -m oxequity.cli`` writes to stdout when that stream is latin-1."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONIOENCODING": "latin-1", "PYTHONPATH": path}
    command = (sys.executable, "-m", "oxequity.cli", *argv)
    return subprocess.run(command, env=env, capture_output=True, check=True).stdout


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    cohort = tmp_path_factory.mktemp("cohort") / "c.csv"
    assert main(["simulate", "--n", "200", "--seed", "3", "--out", str(cohort)]) == 0
    return cohort


@pytest.mark.parametrize("label", ("ward → 3", "café"))
@pytest.mark.parametrize("fmt", ("markdown", "csv", "json"))
def test_audit_stdout_is_the_out_file_whatever_the_stream_encoding(
    tmp_path, small_cohort, fmt, label
):
    out = tmp_path / "report"
    argv = ("audit", "--in", str(small_cohort), "--format", fmt, "--label", label)
    assert _latin1_cli(*argv, "--out", str(out)) == b""
    written = out.read_bytes()
    if fmt != "json":  # JSON escapes non-ASCII text
        assert label.encode("utf-8") in written
    assert _latin1_cli(*argv) == written


def test_figure_stdout_is_the_out_file_whatever_the_stream_encoding(tmp_path, small_cohort):
    out = tmp_path / "figure.csv"
    assert _latin1_cli("figure", "--in", str(small_cohort), "--out", str(out)) == b""
    assert _latin1_cli("figure", "--in", str(small_cohort)) == out.read_bytes()
