"""Command-line surface: subcommands, determinism, exit codes."""

import json

import pytest

from oxequity.cli import _audit_config, _scenario_config, build_parser, main
from oxequity.cohort import ScenarioConfig
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
    on = tmp_path / "on.csv"
    off = tmp_path / "off.csv"
    run("simulate", "--n", "200", "--seed", "9", "--out", str(on))
    run(
        "simulate", "--n", "200", "--seed", "9", "--no-measurement-bias",
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
    assert _scenario_config(args) == ScenarioConfig()
    assert _audit_config(args) == AuditConfig()


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
    params.write_text('{"err_base": 0.0, "err_noise_sd": 0.5}\n')
    out = tmp_path / "c.csv"
    assert run(
        "simulate", "--n", "300", "--seed", "3", "--params", str(params),
        "--no-measurement-bias", "--out", str(out),
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
