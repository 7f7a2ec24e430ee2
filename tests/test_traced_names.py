"""Every function the benchmark traces still exists under its traced name.

``perfbench/layers.py`` wraps functions by "<module>.<attribute>"; a
refactor that deletes or renames one of them would otherwise show up
only as a missing boundary in the slow benchmark suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
