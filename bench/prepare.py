"""Write the input cohorts of the ``audit_large`` workload.

Usage:
    python3 bench/prepare.py --n 50000 --first-seed 1 --count 8 --out DIR

Writes ``DIR/cohort_<seed>.csv`` for seeds first-seed .. first-seed+count-1
with ``generate_cohort`` (default scenario) and ``write_cohort_csv``.  The
benchmark runs this as a child process, so the memory high-water mark of
the process that times the audits does not include it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def input_path(directory: Path, seed: int) -> Path:
    return directory / f"cohort_{seed}.csv"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from oxequity.cohort import ScenarioConfig, generate_cohort
    from oxequity.io import write_cohort_csv

    args.out.mkdir(parents=True, exist_ok=True)
    for seed in range(args.first_seed, args.first_seed + args.count):
        cohort = generate_cohort(ScenarioConfig(n_total=args.n, seed=seed))
        write_cohort_csv(cohort, input_path(args.out, seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
