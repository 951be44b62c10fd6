"""Synthetic pulse-oximetry cohorts and a data-equity audit toolkit."""

from .cohort import (
    DEFAULT_DGP,
    Cohort,
    DgpParams,
    ScenarioConfig,
    generate_cohort,
    oracle_tau,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DGP",
    "Cohort",
    "DgpParams",
    "ScenarioConfig",
    "generate_cohort",
    "oracle_tau",
    "__version__",
]
