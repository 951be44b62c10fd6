"""Public names resolve: every ``__all__`` entry, and every traced function.

``bench/spans.py`` wraps the functions named in ``SPAN_TARGETS`` by module
attribute, so a rename in the package would break only the traced
benchmark.  The file is parsed, not imported, to read that table.

The IRLS kernel must add floats left to right; a source check keeps
builtin ``sum`` (compensated since CPython 3.12) and ``math.fsum`` out of
it, which a bit-identity test on an older interpreter could not see.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oxequity

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
