"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Usage, from the repository root:

    python3 bench/selftest.py

Checks that each run emits exactly the metrics ``BENCHMARK.json`` lists,
each with its unit and a finite value; that every traced child span lies
inside its parent; that every self time is non-negative; and that the
span counts match what each workload is built to call.  Exits 0 when all
checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run
import spans

TINY = run.Sizes(grid_n=400, null_n=400, audit_n=2000, audit_pool=2)
SECONDS = 0.3
# Per-op calls that each workload makes by construction.
EXPECTED_CALLS = {
    "grid": {"cli.main": 1, "cohort.generate_cohort": 5, "metrics.run_full_audit": 4, "io.write_cohort_csv": 4, "io.read_cohort_csv": 0},
    "null_sweep": {"cli.main": 0, "cohort.generate_cohort": 1, "metrics.run_full_audit": 1, "io.write_cohort_csv": 0, "io.read_cohort_csv": 0},
    "audit_large": {"cli.main": 1, "cohort.generate_cohort": 0, "metrics.run_full_audit": 1, "io.write_cohort_csv": 0, "io.read_cohort_csv": 1},
}


def span_problems(op_spans: list[spans.Span]) -> list[str]:
    problems = []
    for index, span in enumerate(op_spans):
        if span.end_ns < span.start_ns:
            problems.append(f"{span.name} ends before it starts")
        if span.parent >= 0:
            parent = op_spans[span.parent]
            if not (span.parent < index and parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns):
                problems.append(f"{span.name} is not inside its parent {parent.name}")
    for span, own in zip(op_spans, spans.self_ns(op_spans)):
        if own < 0:
            problems.append(f"{span.name} has negative self time {own} ns")
    return problems


def check(workload: str, trace: bool, declared: dict) -> list[str]:
    result = run.run_benchmark(workload, seed=3, seconds=SECONDS, trace=trace, sizes=TINY)
    problems = []
    if not result.correct or result.failed:
        problems.append(f"failed {result.failed} of {result.attempted}: {result.detail['problems']}")
    emitted = json.loads(result.final_line())["metrics"]
    expected = declared["per_layer" if trace else "end_to_end"]
    if list(emitted) != [m["name"] for m in expected]:
        problems.append(f"emitted {sorted(set(emitted) ^ {m['name'] for m in expected})} out of line with BENCHMARK.json")
    for metric in expected:
        got = emitted.get(metric["name"])
        if got is None:
            continue
        if got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got['unit']!r}, declared {metric['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{metric['name']}: value {got['value']!r}")
    if trace:
        if not result.traced_ops:
            problems.append("no traced operations")
        for op in result.traced_ops:
            problems.extend(span_problems(op.spans))
        for name, calls in EXPECTED_CALLS[workload].items():
            if emitted[f"{name}.calls"]["value"] != calls:
                problems.append(f"{name}.calls is {emitted[f'{name}.calls']['value']}, expected {calls}")
        draws = emitted["rng.draws_per_patient"]["value"]
        if (draws > 0) != (EXPECTED_CALLS[workload]["cohort.generate_cohort"] > 0):
            problems.append(f"rng.draws_per_patient is {draws}")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            found = check(workload, trace, declared)
            print(f"{workload} trace={int(trace)}: {'ok' if not found else 'FAILED'}")
            problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
