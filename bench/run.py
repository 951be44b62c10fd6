"""Benchmark of oxequity: closed-loop workloads driven from outside the package.

Usage, from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 15 --trace 0

One single-threaded process runs one workload.  Each operation starts
when the previous one has returned (a closed loop with one caller).
Operation k of a run uses seed ``--seed + k``; ``audit_large`` cycles
over a pool of consecutive input seeds starting at ``--seed``.  Every
operation's outputs are hashed, parsed back and checked.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The line before it holds the
details: environment, reference-loop times and output digests.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import spans
from prepare import input_path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("grid", "null_sweep", "audit_large")
SETUP_REPEATS = 12  # set-ups per untraced run, spread evenly over it; see setup_mean
MIN_OPS = 3  # timed operations per run, even past the deadline
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
DRAW_LOOP = 20_000  # CounterRng.uniform calls per rng.draw_ns sample
PREPARE_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "patients_per_s": "patients/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "metric_ok_ratio": "ratio",
}
# Reported in the detail line only; see bench/README.md for why.
DETAIL_UNITS = {
    "op_s_p50": "s",
    "op_s_p90": "s",
    "failed_ratio": "ratio",
    "metric_nonok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in spans.SPAN_NAMES for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    "rng.draws_per_patient": "count",
    "rng.draw_ns": "ns",
    "cohort.us_per_patient": "us",
    "stats.irls_iterations": "count",
    "stats.irls_converged_ratio": "ratio",
    "io.read_mb_per_s": "MB/s",
    "io.write_mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}


class SetupError(RuntimeError):
    """The package could not be imported or the warm-up operation failed."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test shrinks them."""

    grid_n: int = 2500
    null_n: int = 2500
    audit_n: int = 20_000
    audit_pool: int = 8  # distinct input files that audit_large cycles over


def import_package() -> SimpleNamespace:
    """Import oxequity afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "oxequity" or m.startswith("oxequity.")]:
        del sys.modules[name]
    cli = importlib.import_module("oxequity.cli")
    package = sys.modules["oxequity"]
    if Path(package.__file__).resolve().parent != SRC / "oxequity":
        raise SetupError(f"imported oxequity from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=cli,
        cohort=sys.modules["oxequity.cohort"],
        metrics=sys.modules["oxequity.metrics"],
        reports=sys.modules["oxequity.reports"],
        rng=sys.modules["oxequity.rng"],
    )


def sha256_of_dir(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


# --- workloads ---------------------------------------------------------------
#
# A workload's ``call`` is the timed operation.  ``start`` (before it) and
# ``output`` (after it) are untimed: they clear old outputs and return the
# digest of the new ones together with the report JSON to check.


class Workload:
    reports_per_op = 1

    def __init__(self, first_seed: int):
        self.first_seed = first_seed

    def seeds(self):
        return itertools.count(self.first_seed)

    def prepare(self) -> None:
        pass

    def start(self, seed: int) -> None:
        pass


class Grid(Workload):
    """``oxequity grid --n N --seed s --out DIR`` through ``cli.main``."""

    reports_per_op = 4

    def __init__(self, sizes: Sizes, first_seed: int, work: Path):
        super().__init__(first_seed)
        self.n = sizes.grid_n
        self.out = work / "grid"

    def start(self, seed: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, ox, seed: int):
        return ox.cli.main(["grid", "--n", str(self.n), "--seed", str(seed), "--out", str(self.out)])

    def output(self, ox, seed: int, exit_code) -> tuple[str, str]:
        if exit_code != 0:
            raise ValueError(f"grid exited with code {exit_code}")
        return sha256_of_dir(self.out), (self.out / "table2.json").read_text()


class NullSweep(Workload):
    """``generate_cohort`` under the null DGP, then ``run_full_audit``."""

    def __init__(self, sizes: Sizes, first_seed: int, work: Path):
        super().__init__(first_seed)
        self.n = sizes.null_n

    def call(self, ox, seed: int):
        null_dgp = replace(
            ox.cohort.DEFAULT_DGP,
            err_group_shift=0.0,
            err_group_slope=0.0,
            treat_group_penalty=0.0,
        )
        config = ox.cohort.ScenarioConfig(n_total=self.n, seed=seed, dgp=null_dgp)
        cohort = ox.cohort.generate_cohort(config)
        return ox.metrics.run_full_audit(cohort, ox.metrics.AuditConfig())

    def output(self, ox, seed: int, report) -> tuple[str, str]:
        text = ox.reports.report_to_json([report])
        return hashlib.sha256(text.encode()).hexdigest(), text


class AuditLarge(Workload):
    """``oxequity audit --in <gold CSV> --format json --out FILE`` through ``cli.main``."""

    def __init__(self, sizes: Sizes, first_seed: int, work: Path):
        super().__init__(first_seed)
        self.n = sizes.audit_n
        self.pool = range(first_seed, first_seed + sizes.audit_pool)
        self.inputs = work / "inputs"
        self.out = work / "audit.json"

    def seeds(self):
        return itertools.cycle(self.pool)

    def prepare(self) -> None:
        command = [
            sys.executable,
            str(BENCH_DIR / "prepare.py"),
            "--n", str(self.n),
            "--first-seed", str(self.first_seed),
            "--count", str(len(self.pool)),
            "--out", str(self.inputs),
        ]
        subprocess.run(command, check=True, timeout=PREPARE_TIMEOUT_S, stdout=subprocess.DEVNULL)

    def start(self, seed: int) -> None:
        self.out.unlink(missing_ok=True)

    def call(self, ox, seed: int):
        argv = ["audit", "--in", str(input_path(self.inputs, seed)), "--format", "json", "--out", str(self.out)]
        return ox.cli.main(argv)

    def output(self, ox, seed: int, exit_code) -> tuple[str, str]:
        if exit_code != 0:
            raise ValueError(f"audit exited with code {exit_code}")
        data = self.out.read_bytes()
        return hashlib.sha256(data).hexdigest(), data.decode()


WORKLOAD_CLASSES = {"grid": Grid, "null_sweep": NullSweep, "audit_large": AuditLarge}


# --- output checks -----------------------------------------------------------


def _nan_fields(metric) -> list[str]:
    values = {"contrast": metric.contrast}
    values.update({f"group_values[{k}]": v for k, v in metric.group_values.items()})
    values.update({f"extras[{k}]": v for k, v in metric.extras.items()})
    if metric.test is not None:
        values.update(statistic=metric.test.statistic, df=metric.test.df, p_value=metric.test.p_value)
    return [key for key, v in values.items() if isinstance(v, float) and math.isnan(v)]


class Checker:
    """Checks each operation's outputs and keeps their digests by seed."""

    def __init__(self) -> None:
        self.digests: dict[int, str] = {}
        self.metric_results = 0
        self.metric_nonok = 0
        self.problems: list[str] = []

    def fail(self, seed: int, problem: str) -> bool:
        self.problems.append(f"seed {seed}: {problem}")
        return False

    def check(self, workload, ox, seed: int, raw) -> bool:
        try:
            digest, text = workload.output(ox, seed, raw)
            reports = ox.reports.parse_report_json(text)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed output fails the op
            return self.fail(seed, f"{type(exc).__name__}: {exc}")
        previous = self.digests.setdefault(seed, digest)
        if previous != digest:
            return self.fail(seed, f"digest {digest} differs from {previous} for the same seed")
        if len(reports) != workload.reports_per_op:
            return self.fail(seed, f"{len(reports)} reports, expected {workload.reports_per_op}")
        for report in reports:
            names = tuple(m.metric_name for m in report.metrics)
            if names != ox.metrics.METRIC_ORDER:
                return self.fail(seed, f"{report.scenario_label}: metrics {names}")
            for metric in report.metrics:
                self.metric_results += 1
                if metric.status != "ok":
                    self.metric_nonok += 1
                elif nan := _nan_fields(metric):
                    return self.fail(seed, f"{metric.metric_name}: NaN in {nan} under status ok")
        return True


def run_op(workload, ox, seed: int, checker: Checker, tracer: spans.Tracer | None = None):
    """Run one operation; return (passed its checks, seconds it took)."""
    workload.start(seed)
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        raw = workload.call(ox, seed)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return checker.fail(seed, f"{type(error).__name__}: {error}"), elapsed
    return checker.check(workload, ox, seed, raw), elapsed


def set_up(workload, seed: int, checker: Checker):
    """Import the package and run one warm-up operation; return (modules, seconds)."""
    started = time.perf_counter()
    try:
        ox = import_package()
    except ImportError as exc:
        raise SetupError(f"cannot import oxequity from {SRC}: {exc}") from exc
    imported = time.perf_counter() - started
    passed, elapsed = run_op(workload, ox, seed, checker)
    if not passed:
        raise SetupError(f"warm-up operation failed: {checker.problems[-1]}")
    return ox, imported + elapsed


# --- traced run --------------------------------------------------------------


@dataclass
class TracedOp:
    """Spans of one traced operation and the counts taken from its calls."""

    spans: list[spans.Span]
    patients: int = 0
    fits: int = 0
    converged: int = 0
    iterations: int = 0
    read_bytes: int = 0
    write_bytes: int = 0


def _argument(call: spans.Call, position: int, name: str):
    return call.args[position] if len(call.args) > position else call.kwargs[name]


def traced_op(op_spans: list[spans.Span], calls: list[spans.Call]) -> TracedOp:
    """Reduce one operation's recorded calls to counts (its files must still exist)."""
    op = TracedOp(op_spans)
    for call in calls:
        if call.name == "cohort.generate_cohort":
            op.patients += len(call.result)
        elif call.name == "stats.fit_logistic_irls":
            op.fits += 1
            op.converged += bool(call.result.converged)
            op.iterations += call.result.iterations
        elif call.name == "io.read_cohort_csv":
            op.read_bytes += os.path.getsize(_argument(call, 0, "path"))
        elif call.name == "io.write_cohort_csv":
            op.write_bytes += os.path.getsize(_argument(call, 1, "path"))
    return op


def count_draws(workload, ox, seed: int, checker: Checker) -> tuple[bool, float]:
    """Run one operation counting ``CounterRng.uniform`` calls; return draws per patient.

    This pass is separate from the timed spans, so the counting wrapper
    does not distort them.
    """
    rng_class = ox.rng.CounterRng
    original = rng_class.uniform
    draws = 0

    def counting_uniform(self, *args, **kwargs):
        nonlocal draws
        draws += 1
        return original(self, *args, **kwargs)

    tracer = spans.Tracer()
    rng_class.uniform = counting_uniform
    try:
        passed, _ = run_op(workload, ox, seed, checker, tracer)
    finally:
        rng_class.uniform = original
    _, calls = tracer.take()
    patients = sum(len(c.result) for c in calls if c.name == "cohort.generate_cohort")
    return passed, draws / patients if patients else 0.0


def draw_ns(ox) -> float:
    """Median nanoseconds per ``CounterRng.uniform`` call over a fixed loop."""
    rng = ox.rng.CounterRng(20111)
    channel = ox.rng.Channel.NOISE
    samples = []
    for _ in range(5):
        started = time.perf_counter_ns()
        for i in range(DRAW_LOOP):
            rng.uniform(i, channel)
        samples.append((time.perf_counter_ns() - started) / DRAW_LOOP)
    return statistics.median(samples)


def layer_metrics(ops: list[TracedOp], untraced_s: list[float], traced_s: list[float]) -> dict[str, float]:
    """Per-op span counts and self times, plus the counts and rates of each layer."""
    self_by_op = [spans.self_ns_by_name(op.spans) for op in ops]
    calls = Counter(s.name for op in ops for s in op.spans)
    inclusive: Counter = Counter()
    for op in ops:
        inclusive.update(spans.inclusive_ns_by_name(op.spans))
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / len(ops)
        metrics[f"{name}.self_ms"] = statistics.median(s[name] for s in self_by_op) / 1e6
    patients = sum(op.patients for op in ops)
    fits = sum(op.fits for op in ops)
    read_bytes = sum(op.read_bytes for op in ops)
    write_bytes = sum(op.write_bytes for op in ops)
    gen_ns = inclusive["cohort.generate_cohort"]
    metrics["cohort.us_per_patient"] = gen_ns / 1e3 / patients if patients else 0.0
    metrics["stats.irls_iterations"] = sum(op.iterations for op in ops) / len(ops)
    metrics["stats.irls_converged_ratio"] = sum(op.converged for op in ops) / fits if fits else 0.0
    read_ns, write_ns = inclusive["io.read_cohort_csv"], inclusive["io.write_cohort_csv"]
    metrics["io.read_mb_per_s"] = read_bytes / 1e6 / (read_ns / 1e9) if read_bytes else 0.0
    metrics["io.write_mb_per_s"] = write_bytes / 1e6 / (write_ns / 1e9) if write_bytes else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return metrics


# --- runs --------------------------------------------------------------------


def reference_loop_s() -> float:
    """Seconds for a fixed pure-Python loop; recorded to show host drift, never used to rescale."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - started


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    uname = os.uname()
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
        "git_commit": _git_commit(),
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    detail: dict
    traced_ops: list[TracedOp] = field(default_factory=list)

    def final_line(self) -> str:
        metrics = {name: {"value": value, "unit": self.units[name]} for name, value in self.metrics.items()}
        return json.dumps(
            {"correct": self.correct, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}
        )


def _deadline_loop(workload, seconds: float):
    """Yield seeds until ``seconds`` have passed and at least MIN_OPS were taken."""
    deadline = time.perf_counter() + seconds
    for count, seed in enumerate(workload.seeds()):
        if count >= MIN_OPS and time.perf_counter() >= deadline:
            return
        yield seed


def setup_mean(samples: list[float]) -> float:
    """Mean of the set-up times without the fastest and the slowest.

    The host switches between two speeds in spells of seconds, so set-up
    times fall into two clusters.  A median of them flips between the
    clusters from run to run; a mean only moves with the share of slow
    spells, as ``patients_per_s`` does.  Dropping the two extremes keeps
    one stray sample from moving it.
    """
    ordered = sorted(samples)
    kept = ordered[1:-1] if len(ordered) >= 5 else ordered
    return math.fsum(kept) / len(kept)


def untraced_run(workload, ox, seconds: float, checker: Checker, setup_samples: list[float]) -> dict:
    """Time ops for ``seconds``, setting up again at SETUP_REPEATS - 1 evenly spaced marks.

    Spreading the set-ups over the run lets ``setup_s`` see the same mix
    of host speed as the timed ops.
    """
    durations, completed = [], []
    before = (checker.metric_results, checker.metric_nonok)
    started = time.perf_counter()
    setup_marks = [seconds * k / SETUP_REPEATS for k in range(len(setup_samples), SETUP_REPEATS)]
    for seed in _deadline_loop(workload, seconds):
        if setup_marks and time.perf_counter() - started >= setup_marks[0]:
            setup_marks.pop(0)
            ox, setup_s = set_up(workload, workload.first_seed, checker)
            setup_samples.append(setup_s)
        passed, elapsed = run_op(workload, ox, seed, checker)
        durations.append(elapsed)
        if passed:
            completed.append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = checker.metric_results - before[0]
    nonok = checker.metric_nonok - before[1]
    timed = sorted(completed or durations)
    return {
        "attempted": len(durations),
        "failed": len(durations) - len(completed),
        "metrics": {
            "patients_per_s": workload.n * len(completed) / math.fsum(durations),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": len(completed) / len(durations),
            "metric_ok_ratio": (results - nonok) / results if results else 0.0,
        },
        "detail": {
            "timed_s": math.fsum(durations),
            "op_s_p50": statistics.median(timed),
            "failed_ratio": (len(durations) - len(completed)) / len(durations),
            "metric_results": results,
            "metric_nonok_ratio": nonok / results if results else None,
            "op_s_p90": statistics.quantiles(timed, n=10)[-1] if len(timed) >= P90_MIN_OPS else None,
        },
    }


def traced_run(workload, ox, seconds: float, checker: Checker) -> dict:
    """Alternate an untraced and a traced run of each seed; spans come from the traced one."""
    tracer = spans.Tracer()
    untraced_s, traced_s, ops = [], [], []
    attempted = failed = 0
    for seed in _deadline_loop(workload, seconds):
        passed, elapsed = run_op(workload, ox, seed, checker)
        untraced_s.append(elapsed)
        failed += not passed
        passed, elapsed = run_op(workload, ox, seed, checker, tracer)
        traced_s.append(elapsed)
        failed += not passed
        ops.append(traced_op(*tracer.take()))
        attempted += 2
    passed, draws_per_patient = count_draws(workload, ox, workload.first_seed, checker)
    attempted += 1
    failed += not passed
    metrics = layer_metrics(ops, untraced_s, traced_s)
    metrics["rng.draws_per_patient"] = draws_per_patient
    metrics["rng.draw_ns"] = draw_ns(ox)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"traced_ops": len(ops)},
        "traced_ops": ops,
    }


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": asdict(sizes),
        "environment": environment(),
    }
    reference = [reference_loop_s()]
    work = WORK_ROOT / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOAD_CLASSES[workload_name](sizes, seed, work)
        started = time.perf_counter()
        workload.prepare()
        detail["prepare_s"] = time.perf_counter() - started
        checker = Checker()
        ox, setup_s = set_up(workload, seed, checker)
        setup_samples = [setup_s]
        if trace:
            run = traced_run(workload, ox, seconds, checker)
        else:
            run = untraced_run(workload, ox, seconds, checker, setup_samples)
        detail["setup_s_samples"] = setup_samples
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    metrics = run["metrics"]
    if not trace:
        metrics["setup_s"] = setup_mean(setup_samples)
    reference.append(reference_loop_s())
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    detail.update(run["detail"])
    detail.update(
        reference_loop_s={"start": reference[0], "end": reference[1]},
        attempted=run["attempted"],
        failed=run["failed"],
        problems=checker.problems[:10],
        digests={str(s): d for s, d in sorted(checker.digests.items())},
    )
    return Result(
        correct=run["failed"] == 0 and not checker.problems,
        attempted=run["attempted"],
        failed=run["failed"],
        metrics={name: metrics[name] for name in units},
        units=units,
        detail=detail,
        traced_ops=run.get("traced_ops", []),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "oxequity").is_dir():
        print(f"error: no oxequity package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={result.attempted} failed={result.failed}")
    for name, value in result.metrics.items():
        print(f"  {name:<56} {value:>14.6g} {result.units[name]}")
    for name, unit in DETAIL_UNITS.items():
        if result.detail.get(name) is not None:
            print(f"  {name + ' (detail)':<56} {result.detail[name]:>14.6g} {unit}")
    print(json.dumps({"detail": result.detail}))
    print(result.final_line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
