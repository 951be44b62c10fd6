"""Public names resolve: every ``__all__`` entry, and every traced function.

``bench/spans.py`` wraps the functions named in ``SPAN_TARGETS`` by module
attribute, so a rename in the package would break only the traced
benchmark.  The file is parsed, not imported, to read that table.

The benchmark's per-layer counts also rest on two facts checked here: one
full audit calls each traced metric function and the logistic fit exactly
once, and a generated cohort's ``len`` is its size.

The IRLS kernel must add floats left to right; a source check keeps
builtin ``sum`` (compensated since CPython 3.12) and ``math.fsum`` out of
it, which a bit-identity test on an older interpreter could not see.
Another source check finds imports that nothing uses, and a third finds
``Cohort`` columns that nothing reads.
"""

import ast
import dataclasses
import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import oxequity
from oxequity.cohort import Cohort, ScenarioConfig, generate_cohort
from oxequity.metrics import AuditConfig, run_full_audit

from oracles import gold_free

ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "bench" / "spans.py"
LOGISTIC_FILE = ROOT / "src" / "oxequity" / "stats" / "logistic.py"


def _module_names():
    names = ["oxequity"]
    for info in pkgutil.walk_packages(oxequity.__path__, prefix="oxequity."):
        names.append(info.name)
    return names


def _span_targets() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(SPANS_FILE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("SPAN_TARGETS not found in bench/spans.py")


@pytest.mark.parametrize("module_name", _module_names())
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing


def _imported_names(tree: ast.Module):
    """The names that the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("module_name", _module_names())
def test_imports_are_used(module_name):
    # used means read somewhere in the module, or re-exported in __all__
    module = importlib.import_module(module_name)
    tree = ast.parse(Path(module.__file__).read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - read - set(getattr(module, "__all__", ()))
    assert not unused


def _reads_outside_builders(tree: ast.Module) -> set[str]:
    """Attribute names loaded in ``tree``, except inside the ``Cohort`` class
    and inside functions that construct a ``Cohort``."""
    builders = {
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.ClassDef) and node.name == "Cohort")
        or (
            isinstance(node, ast.FunctionDef)
            and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "Cohort"
                for call in ast.walk(node)
            )
        )
    }
    inside = {id(n) for builder in builders for n in ast.walk(builder)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in inside
    }


def test_every_cohort_field_is_read():
    # A column that only the generator and the reader fill is dead state.
    read = set()
    for module_name in _module_names():
        module = importlib.import_module(module_name)
        read |= _reads_outside_builders(ast.parse(Path(module.__file__).read_text()))
    unread = [f.name for f in dataclasses.fields(Cohort) if f.name not in read]
    assert not unread


def test_span_targets_exist():
    targets = _span_targets()
    assert targets
    for layer, functions in targets.items():
        module = importlib.import_module(f"oxequity.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"oxequity.{layer}.{name}"


def test_irls_kernel_uses_no_sum_or_fsum():
    found = []
    for node in ast.walk(ast.parse(LOGISTIC_FILE.read_text())):
        if isinstance(node, ast.Name) and node.id in ("sum", "fsum"):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "fsum":
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name == "fsum"]
    assert not found


def _count_calls(names: list[str], action) -> Counter:
    """Run ``action`` with each named function counted, wrapped the way the
    benchmark's tracer does it: at every ``oxequity`` module attribute that
    holds the function.  The originals are put back whatever happens."""
    calls: Counter = Counter()
    originals = {}
    for dotted in names:
        layer, name = dotted.split(".")
        func = getattr(importlib.import_module(f"oxequity.{layer}"), name)
        originals[id(func)] = (func, dotted)

    def counting(func, dotted):
        def wrapper(*args, **kwargs):
            calls[dotted] += 1
            return func(*args, **kwargs)

        return wrapper

    patched = []
    try:
        for module_name, module in list(sys.modules.items()):
            if module_name != "oxequity" and not module_name.startswith("oxequity."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, counting(*hit))
        action()
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
    return calls


@pytest.mark.parametrize("gold", (True, False), ids=("gold", "gold_free"))
def test_one_audit_calls_each_traced_metric_once(gold):
    targets = _span_targets()
    names = [f"metrics.{fn}" for fn in targets["metrics"]] + ["stats.fit_logistic_irls"]
    cohort = generate_cohort(ScenarioConfig(n_total=600, seed=3))
    if not gold:
        cohort = gold_free(cohort)
    metrics = importlib.import_module("oxequity.metrics")
    # looked up at call time, as the benchmark calls it
    calls = _count_calls(names, lambda: metrics.run_full_audit(cohort, AuditConfig()))
    assert calls == Counter(dict.fromkeys(names, 1))
    assert metrics.run_full_audit is run_full_audit  # the originals are back


@pytest.mark.parametrize("n_total", (2, 37, 2500))
def test_generated_cohort_length_is_its_size(n_total):
    config = ScenarioConfig(n_total=n_total, seed=5)
    assert len(generate_cohort(config)) == config.n_total
