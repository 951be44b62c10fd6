"""Draw once, derive many: shared-draw cohorts equal per-scenario generation.

The grid hashes each patient's streams once and derives the four
scenario cohorts and the Table-1 cohort from those draws.  These tests
pin that path record for record against generation from scratch, the
Table-1 summary against a summary that re-hashes the outcome uniforms,
and the bytes the ``grid`` command writes against digests recorded
before draws were shared.
"""

import hashlib
from dataclasses import replace

import pytest

from oxequity.cli import main
from oxequity.cohort import (
    DEFAULT_DGP,
    TREATMENT_MODES,
    Cohort,
    ScenarioConfig,
    derive_cohort,
    draw_cohort,
    generate_cohort,
)
from oxequity.grid import run_scenario_grid, threshold_protocol_summary
from oxequity.metrics import AuditConfig
from oxequity.rng import CounterRng

from oracles import (
    generate_cohort_oracle,
    scenario_configs_oracle,
    threshold_protocol_oracle,
)

SEEDS = (1, 2, 3, 41)
# Noise this wide pushes a few readings past the 100% display limit.
CLAMPING_DGP = replace(DEFAULT_DGP, err_noise_sd=6.0)

# sha256 of every file ``oxequity grid --n 2500 --seed 3`` writes, recorded
# with the per-scenario generator (CPython 3.11, x86-64 Linux).
GRID_SEED3_DIGESTS = {
    "cohort_both.csv": "f24ea4445b3d97839bc0004a59cc02def6d28120f531602f2cb5062d0ec84ab5",
    "cohort_measurement_only.csv": "4118b2bef2f92105cd54300a9cf7e1d365c77a5f79aca0e5bd877032c2af92fd",
    "cohort_none.csv": "7c7afc38645c3439f96dd838ae1eda8299123b39b192c894553a3e7932bebeae",
    "cohort_systemic_only.csv": "9df9a2fad3e53270e9e6a18f50449e7e05674f3e4fee3161d9151c2ad9a5eb47",
    "table1.md": "6ff9125e2359106378ffe05cea3156eedfa766c20cf653ea88a8d71cda02a0f9",
    "table2.csv": "61e6c0dc7e2f5e9378d9456c6b2ae35bc7b0b96ff265a1dcf3428a3cd6f96ca8",
    "table2.json": "5cc1922b02b2d9c51a64538a6c2e1e5049aed1e7ecc023f557f68241b51b30c1",
    "table2.md": "08905cf31c3c61e2073c84c25cbb70ce2f5071ff106365eac824251e0db24fda",
}


def _base(seed, mode, dgp):
    return ScenarioConfig(n_total=600, seed=seed, treatment_mode=mode, dgp=dgp)


@pytest.mark.parametrize("dgp", (DEFAULT_DGP, CLAMPING_DGP), ids=("default", "clamping"))
@pytest.mark.parametrize("mode", TREATMENT_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_grid_cohorts_equal_generation_from_scratch(seed, mode, dgp):
    base = _base(seed, mode, dgp)
    result = run_scenario_grid(base, AuditConfig())
    for label, config in scenario_configs_oracle(base).items():
        cohort = generate_cohort(config)
        assert result.cohorts[label] == cohort
        assert cohort == Cohort.from_records(generate_cohort_oracle(config))
    both = result.cohorts["both"]
    clamped = sum(s != w + e for s, w, e in zip(both.w_star, both.w_true, both.epsilon))
    assert (clamped > 0) == (dgp is CLAMPING_DGP)
    assert result.table1 == threshold_protocol_oracle(base)


@pytest.mark.parametrize("seed", SEEDS)
def test_threshold_protocol_matches_rehashing_oracle(seed):
    # a stochastic, bias-off base: the protocol overrides all three
    config = ScenarioConfig(seed=seed, measurement_bias_on=False, systemic_bias_on=False)
    assert threshold_protocol_summary(config) == threshold_protocol_oracle(config)


def test_derive_reads_no_stream(monkeypatch):
    draws = draw_cohort(ScenarioConfig(n_total=200, seed=7))

    def forbidden(*args, **kwargs):
        raise AssertionError("derive_cohort must not hash")

    monkeypatch.setattr(CounterRng, "uniform", forbidden)
    monkeypatch.setattr(CounterRng, "uniform_columns", forbidden)
    for mode in TREATMENT_MODES:
        assert len(derive_cohort(draws, True, False, mode)) == 200


def test_five_draws_per_patient(monkeypatch):
    # draw_cohort hashes through the column entry point only: five words
    # per patient there, and not one scalar draw.
    words = scalar_calls = 0
    columns, scalar = CounterRng.uniform_columns, CounterRng.uniform

    def counting_columns(self, *args, **kwargs):
        nonlocal words
        drawn = columns(self, *args, **kwargs)
        words += sum(map(len, drawn))
        return drawn

    def counting_scalar(self, *args, **kwargs):
        nonlocal scalar_calls
        scalar_calls += 1
        return scalar(self, *args, **kwargs)

    monkeypatch.setattr(CounterRng, "uniform_columns", counting_columns)
    monkeypatch.setattr(CounterRng, "uniform", counting_scalar)
    draw_cohort(ScenarioConfig(n_total=300, seed=9))
    assert words == 5 * 300
    assert scalar_calls == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_degenerate_saturation_equals_oracle(seed):
    # saturation_sd=0 takes the constant branch of the saturation map
    config = _base(seed, "stochastic", replace(DEFAULT_DGP, saturation_sd=0.0))
    cohort = generate_cohort(config)
    assert set(cohort.w_true) == {DEFAULT_DGP.saturation_mean}
    assert cohort == Cohort.from_records(generate_cohort_oracle(config))


def test_grid_output_bytes_unchanged(tmp_path):
    out = tmp_path / "grid"
    assert main(["grid", "--n", "2500", "--seed", "3", "--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert digests == GRID_SEED3_DIGESTS
