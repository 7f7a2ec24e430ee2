"""Every function the benchmark traces still exists under its traced name.

``perfbench/layers.py`` wraps functions by "<module>.<attribute>"; a
refactor that deletes or renames one of them would otherwise show up
only as a missing boundary in the slow benchmark suite.  Conversely, an
import that the package keeps unused (``# noqa: F401``) must be one of
those traced names, so it goes when its boundary goes.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "driftinv"


def _boundaries():
    sys.path.insert(0, str(PERFBENCH))  # layers.py imports its sibling spans.py
    try:
        spec = importlib.util.spec_from_file_location(
            "_perfbench_layers", PERFBENCH / "layers.py"
        )
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers.BOUNDARIES


TARGETS = sorted({b.target for b in _boundaries()})


def test_boundary_list_is_not_empty():
    assert len(TARGETS) > 10


@pytest.mark.parametrize("target", TARGETS)
def test_traced_name_resolves(target):
    module_name, _, attr = target.rpartition(".")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))


def _unused_imports():
    """The names "driftinv.<module>.<name>" of the imports marked ``# noqa: F401``."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        names.append(f"driftinv.{path.stem}.{alias.asname or alias.name}")
    return names


UNUSED_IMPORTS = _unused_imports()


@pytest.mark.parametrize("name", UNUSED_IMPORTS)
def test_unused_import_is_traced(name):
    assert name in TARGETS
