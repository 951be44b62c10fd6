"""In-memory timing spans around oxequity's public functions.

A ``Tracer`` wraps each function named in ``SPAN_TARGETS`` at every
module attribute that holds it, so the wrapper runs whichever name a
caller looks up: ``oxequity.grid.generate_cohort`` as well as
``oxequity.cohort.generate_cohort``, ``oxequity.metrics.fit_logistic_irls``
as well as ``oxequity.stats.fit_logistic_irls``.  ``uninstall`` puts every
original back.  Nothing in the package itself is edited.

Each span keeps its name, start and end (``perf_counter_ns``) and the
index of the span that was open when it started.  Self time is the span's
duration minus its children's; integer nanoseconds keep that exact.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Layer (module under ``oxequity``) -> public functions that get a span.
SPAN_TARGETS = {
    "cli": ("main",),
    "grid": ("run_scenario_grid", "threshold_protocol_summary"),
    "cohort": ("generate_cohort",),
    "metrics": (
        "run_full_audit",
        "systemic_bias_tests",
        "group_auc_comparison",
        "information_bias_test",
        "representativeness_check",
        "estimate_tau",
        "treatment_gap_and_outcome_decomposition",
        "observed_outcome_gap",
        "treatment_disparity_test",
        "equality_of_opportunity_test",
    ),
    "stats": (
        "fit_logistic_irls",
        "cmh_conditional_independence",
        "auc_mann_whitney",
        "welch_t_one_sided",
        "chi_square_independence",
    ),
    "io": ("read_cohort_csv", "write_cohort_csv"),
    "reports": ("write_report", "report_to_json", "report_to_markdown", "report_to_csv"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPAN_TARGETS.items() for fn in fns)

# Spans whose call arguments and result are kept for the per-layer counts.
RECORDED = frozenset(
    {"cohort.generate_cohort", "stats.fit_logistic_irls", "io.read_cohort_csv", "io.write_cohort_csv"}
)


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in the same list, -1 at the root


@dataclass(slots=True)
class Call:
    """Arguments and result of one call to a span in ``RECORDED``."""

    name: str
    args: tuple
    kwargs: dict
    result: object


class Tracer:
    """Collects spans while installed; ``take`` hands them over and resets."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        spans, stack, calls = self.spans, self._stack, self.calls
        keep = name in RECORDED

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if keep:
                calls.append(Call(name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, names in SPAN_TARGETS.items():
            module = importlib.import_module(f"oxequity.{layer}")
            for fn in names:
                func = getattr(module, fn)
                wrappers[id(func)] = (func, self._wrap(f"{layer}.{fn}", func))
        for module_name, module in list(sys.modules.items()):
            if module_name != "oxequity" and not module_name.startswith("oxequity."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> tuple[list[Span], list[Call]]:
        """Return the spans and calls recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, calls = self.spans[:], self.calls[:]
        self.spans.clear()
        self.calls.clear()
        return spans, calls


def self_ns(spans: list[Span]) -> list[int]:
    """Self time of each span: its duration minus its children's durations."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


def self_ns_by_name(spans: list[Span]) -> Counter:
    totals: Counter = Counter()
    for span, own in zip(spans, self_ns(spans)):
        totals[span.name] += own
    return totals


def inclusive_ns_by_name(spans: list[Span]) -> Counter:
    totals: Counter = Counter()
    for span in spans:
        totals[span.name] += span.end_ns - span.start_ns
    return totals
