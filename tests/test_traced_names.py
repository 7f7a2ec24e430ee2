"""Every function the benchmark traces still exists under its traced name.

``perfbench/layers.py`` wraps functions by "<module>.<attribute>"; a
refactor that deletes or renames one of them would otherwise show up
only as a missing boundary in the slow benchmark suite.  Conversely, an
import that the package keeps unused (``# noqa: F401``) must be one of
those traced names, so it goes when its boundary goes.  And every public
top-level function or class of the package is read by some code in
``src/``, is traced, or is one of the few library entry points listed
here: code that only tests call is an oracle and lives in the tests.
Finally, the benchmark's hooks read arguments and results by position or
name, so every command runs once under them and none may raise.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import driftinv.cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "driftinv"


def _perfbench():
    """The benchmark's boundary list and its span recorder."""
    sys.path.insert(0, str(PERFBENCH))  # layers.py imports its sibling spans.py
    try:
        spec = importlib.util.spec_from_file_location(
            "_perfbench_layers", PERFBENCH / "layers.py"
        )
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers.BOUNDARIES, Tracer


BOUNDARIES, Tracer = _perfbench()
TARGETS = sorted({b.target for b in BOUNDARIES})


def _resolve(name):
    module_name, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(module_name), attr)


def test_boundary_list_is_not_empty():
    assert len(TARGETS) > 10


@pytest.mark.parametrize("target", TARGETS)
def test_traced_name_resolves(target):
    assert callable(_resolve(target))


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


# public names that no code in src/ calls, kept as library entry points:
# the exact process's limit cost rate, and the truncated mean that
# criterion 2 checks
ENTRY_POINTS = {"long_run_rate", "truncated_mean"}


def _used_names():
    """Names that code in src/ reads, outside ``__init__.py``'s re-exports."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_definitions():
    """The names "driftinv.<module>.<name>" of every public top-level
    function and class."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                names.append(f"driftinv.{path.stem}.{node.name}")
    return names


USED_NAMES = _used_names()


@pytest.mark.parametrize("name", _public_definitions())
def test_public_definition_has_a_use(name):
    # a public function or class that only tests call belongs in the tests
    attr = name.rpartition(".")[2]
    traced = any(_resolve(target) is _resolve(name) for target in TARGETS)
    assert attr in USED_NAMES or traced or attr in ENTRY_POINTS


# every command on a tiny config; table1 and compare forecast with ARIMA
# under the forecast-projected trigger, the only runs that reach the fit
TINY_CONFIG = {
    "grid": {"t_end": 4.0, "steps": 9},
    "mc": {"n_paths": 200},
    "validate": {"times": [1.0, 2.0]},
    "fpt": {"n_values": 2, "t_end": 4.0, "steps": 9},
    "sweep": {"a_list": [40.0, 50.0], "Q_list": [50.0], "c_o_list": [5.0]},
    "experiment": {
        "n_series": 3, "sim_end": 20, "trigger": "forecast_projected", "forecaster": "arima",
    },
}


def test_benchmark_hooks_run_on_every_command(tmp_path):
    cfgfile = tmp_path / "tiny.json"
    cfgfile.write_text(json.dumps(TINY_CONFIG))
    tracer = Tracer()
    tracer.install(BOUNDARIES)
    try:
        for command in driftinv.cli.COMMANDS:
            out = tmp_path / command
            argv = [command, "--config", str(cfgfile), "--out", str(out)]
            assert driftinv.cli.main(argv) == 0, command
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.hook_errors == {}
    assert tracer.counters["forecast.fit.candidates_ok"] > 0
