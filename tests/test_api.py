"""Public names resolve: every ``__all__`` entry, and every traced function.

``bench/spans.py`` wraps the functions named in ``SPAN_TARGETS`` by module
attribute, so a rename in the package would break only the traced
benchmark.  The file is loaded by its path (``bench`` is not a package),
and its own ``Tracer`` counts the calls below.

The benchmark's per-layer counts also rest on two facts checked here: one
full audit calls each traced metric function and the logistic fit exactly
once, and a generated cohort's ``len`` is its size.

The IRLS kernel must add floats left to right; a source check keeps
builtin ``sum`` (compensated since CPython 3.12) and ``math.fsum`` out of
it and out of the row passes it generates, which a bit-identity test on
an older interpreter could not see.
Another source check finds imports that nothing uses, and a third finds
``Cohort`` columns that nothing reads.  A fourth keeps every file call and
every write to standard output in ``io``, so one writer decides the bytes.

Importing the CLI loads no ``pickle``: only a grid spread over worker
processes pickles, so a process that never runs one does not pay for it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oxequity
from oxequity.cohort import Cohort, ScenarioConfig, generate_cohort
from oxequity.metrics import AuditConfig, run_full_audit
from oxequity.stats import logistic

from oracles import gold_free

ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "oxequity"
LOGISTIC_FILE = PACKAGE / "stats" / "logistic.py"


def _module_names():
    names = ["oxequity"]
    for info in pkgutil.walk_packages(oxequity.__path__, prefix="oxequity."):
        names.append(info.name)
    return names


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module_name", _module_names())
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing


def _imported_names(tree: ast.Module, package: str):
    """The names that the module's import statements bind.

    A star import binds the ``__all__`` of the module it names.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*":
                    source = "." * node.level + (node.module or "")
                    yield from importlib.import_module(source, package).__all__
                else:
                    yield alias.asname or alias.name


def test_importing_the_cli_loads_no_pickle():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    command = (sys.executable, "-c", "import oxequity.cli, sys; print('pickle' in sys.modules)")
    run = subprocess.run(
        command, env={**os.environ, "PYTHONPATH": path}, capture_output=True, check=True, text=True
    )
    assert run.stdout == "False\n"


@pytest.mark.parametrize("module_name", _module_names())
def test_imports_are_used(module_name):
    # used means read somewhere in the module, or re-exported in __all__
    module = importlib.import_module(module_name)
    tree = ast.parse(Path(module.__file__).read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = set(_imported_names(tree, module.__package__))
    unused = bound - read - set(getattr(module, "__all__", ()))
    assert not unused


def test_stats_exports_each_module_name_once():
    # Each public stats name is listed in its module's __all__ alone.
    stats = importlib.import_module("oxequity.stats")
    names = [
        name
        for m in ("auc", "hypotests", "logistic", "special")
        for name in importlib.import_module(f"oxequity.stats.{m}").__all__
    ]
    assert stats.__all__ == names
    assert len(set(names)) == len(names)


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
    assert SPANS.SPAN_TARGETS
    for layer, functions in SPANS.SPAN_TARGETS.items():
        module = importlib.import_module(f"oxequity.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"oxequity.{layer}.{name}"


def test_every_file_call_names_its_encoding():
    # Without encoding= a file is read and written in the locale's encoding.
    unnamed = []
    for path in sorted((ROOT / "src" / "oxequity").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("open", "read_text", "write_text")
                and not any(k.arg == "encoding" for k in node.keywords)
            ):
                unnamed.append(f"{path.name}:{node.lineno}")
    assert not unnamed


def test_only_io_opens_files_or_writes_stdout():
    # So one writer decides the output's bytes; cli reports errors on stderr.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                to_stdout = name == "print" and not any(k.arg == "file" for k in node.keywords)
                if to_stdout or name in ("open", "read_text", "write_text", "write_bytes"):
                    found.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "sys":
                if node.attr == "stdout" or node.attr == "stderr" and path.name != "cli.py":
                    found.append(f"{path.name}:{node.lineno} sys.{node.attr}")
    assert not found


def test_irls_kernel_uses_no_sum_or_fsum():
    # The row pass is generated, so its source escapes the module's scan:
    # parse it too, at every width the tests fit, in both variants.
    sources = {"logistic.py": LOGISTIC_FILE.read_text()}
    for width in range(1, 6):
        for start in (False, True):
            sources[width, start] = logistic._row_pass_source(width, start)
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and node.id in ("sum", "fsum"):
                found.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and node.attr == "fsum":
                found.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                found += [(name, node.lineno, a.name) for a in node.names if a.name == "fsum"]
    assert not found


def _count_spans(action) -> Counter:
    """Run ``action`` under the benchmark's tracer and count its spans by name.
    The originals are put back whatever happens."""
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        action()
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    return Counter(span.name for span in spans)


@pytest.mark.parametrize("gold", (True, False), ids=("gold", "gold_free"))
def test_one_audit_calls_each_traced_metric_once(gold):
    names = [f"metrics.{fn}" for fn in SPANS.SPAN_TARGETS["metrics"]]
    names.append("stats.fit_logistic_irls")
    cohort = generate_cohort(ScenarioConfig(n_total=600, seed=3))
    if not gold:
        cohort = gold_free(cohort)
    metrics = importlib.import_module("oxequity.metrics")
    # looked up at call time, as the benchmark calls it
    spans = _count_spans(lambda: metrics.run_full_audit(cohort, AuditConfig()))
    assert {name: spans[name] for name in names} == dict.fromkeys(names, 1)
    assert metrics.run_full_audit is run_full_audit  # the originals are back


@pytest.mark.parametrize("n_total", (2, 37, 2500))
def test_generated_cohort_length_is_its_size(n_total):
    config = ScenarioConfig(n_total=n_total, seed=5)
    assert len(generate_cohort(config)) == config.n_total
