"""Tests of the benchmark itself: negative controls, tracing robustness,
seeding, and the refusal to run outside a checkout.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import driftinv.cli  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Boundary, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _edit_csv(path: Path, pick, column, change):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    row = pick(rows)
    row[column] = repr(change(float(row[column].removeprefix("np.float64(").rstrip(")"))))
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fields)
        w.writeheader()
        w.writerows(rows)


def _own_row(config):
    R = config["policy"]["x0"] - config["policy"]["a"]
    key = (R, config["policy"]["Q"], config["costs"]["c_o"], config["costs"]["c_so"])

    def pick(rows):
        return next(r for r in rows if (float(r["R"]), float(r["Q"]), float(r["C_o"]), float(r["C_so"])) == key)

    return pick


# workload -> (command whose output is perturbed, file, row picker, column, change)
PERTURB = {
    "mc": ("validate", "validation.csv",
           lambda cfg: lambda rows: rows[4], "mc_mean", lambda v: v * 1.5 + 1.0),
    "closed-form": ("sweep", "sweep.csv",
                    lambda cfg: lambda rows: rows[-1], "total", lambda v: v * (1 + 1e-4)),
    "forecast-arima": ("table1", "table1.csv", _own_row, "mean_total", lambda v: v + 1.0),
    "forecast-croston": ("table1", "table1.csv",
                         lambda cfg: lambda rows: rows[0], "mean_total", lambda v: v * 1.5),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_negative_control(name, tmp_path):
    session = bench.Session(WORKLOADS[name], seed=3, work_dir=tmp_path)
    session.run_timed(0.0)  # exactly one cycle
    session.check()
    assert [r.problems for r in session.results if r.failed] == []
    before = sum(r.failed for r in session.results) / len(session.results)

    command, file, picker, column, change = PERTURB[name]
    target = next(r for r in session.results if r.inv.command == command)
    _edit_csv(target.out / file, picker(target.inv.config), column, change)
    session.check()

    after = sum(r.failed for r in session.results) / len(session.results)
    assert after > before
    flagged = [p for r in session.results for p in r.problems]
    assert flagged, "the perturbed value was not flagged"


def test_missing_boundary_is_reported_and_the_run_continues(tmp_path):
    original = driftinv.cli.main
    tracer = Tracer()
    tracer.install([
        Boundary("cli", "driftinv.cli.main"),
        Boundary("cli", "driftinv.cli.no_such_function"),
        Boundary("cli", "driftinv.no_such_module.f"),
    ])
    try:
        assert driftinv.cli.main is not original
        rc = driftinv.cli.main(["expected-cost", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert driftinv.cli.main is original
    assert tracer.missing == ["driftinv.cli.no_such_function", "driftinv.no_such_module.f"]
    assert tracer.calls(["driftinv.cli.main"]) == 1


def test_failing_hook_is_counted_not_raised():
    def broken(tr, args, kwargs, result):
        raise KeyError("renamed argument")

    tracer = Tracer()
    tracer.install([Boundary("config", "driftinv.cli.load_config", after=broken)])
    try:
        cfg = driftinv.cli.load_config(None)
    finally:
        tracer.uninstall()
    assert cfg.n_paths > 0
    assert tracer.hook_errors == {"driftinv.cli.load_config": 1}


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    b_outer = Boundary("a", "x.outer")
    b_inner = Boundary("b", "x.inner")
    wrapped_inner = tracer._wrap(b_inner, inner)
    assert tracer._wrap(b_outer, outer)() == 2
    count, total, own = tracer.totals["x.outer"]
    assert count == 1 and own < total
    assert tracer.totals["x.inner"][2] == tracer.totals["x.inner"][1]
    assert tracer.root_s == total


@pytest.mark.parametrize("name, builds", [("forecast-arima", 2.0), ("forecast-croston", 1.0)])
def test_experiment_builds_are_per_config_per_cycle(name, builds, tmp_path):
    session = bench.Session(WORKLOADS[name], seed=3, work_dir=tmp_path)
    traced = session.run_traced(0.0)  # exactly one traced cycle
    assert traced["missing"] == []
    assert traced["metrics"]["forecast.experiment_builds"] == builds


def test_peak_rss_is_the_cli_process_own(tmp_path):
    ballast = np.ones(80 * 2**20 // 8)  # 80 MB resident in this process
    session = bench.Session(WORKLOADS["forecast-croston"], seed=3, work_dir=tmp_path)
    peak = session.measure_peak_rss(ROOT)
    assert 10 < peak < ballast.nbytes / 2**20
    session.check()
    assert [r.failed for r in session.results] == [False]


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert list(layer_metrics(Tracer(), 1, 1.0, 0.5, 0, 0, 0)) == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "units_per_s", "peak_rss_mb"}


def test_seed_fixes_configs_and_a_new_seed_changes_them():
    for w in WORKLOADS.values():
        a = [i.config for i in w.cycle(5, 0)]
        assert a == [i.config for i in w.cycle(5, 0)]
        assert a != [i.config for i in w.cycle(6, 0)]
        assert a != [i.config for i in w.cycle(5, 1)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
