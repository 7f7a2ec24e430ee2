"""CLI wiring: schemas, determinism, exit codes."""

import copy
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import driftinv.cli
from driftinv.cli import main, run_validation
from driftinv.config import DEFAULT_CONFIG, MAX_STEPS, load_config
from driftinv.cost import cost_curve, exact_moments, sweep
from driftinv.forecast import ExperimentConfig, cumulative_cost_profile, run_table_experiment
from driftinv.mc import KIND_ORDER, simulate
from driftinv.params import CostParams
from driftinv.renewal import (
    RenewalSeriesConfig,
    fpt_empirical_cdf,
    fpt_gamma_spec,
    gamma_cdf,
    literal_integrand_cdf,
)

from conftest import exact_expected_orders

SMALL_CONFIG = {
    "grid": {"t_start": 0.0, "t_end": 4.0, "steps": 9},
    "mc": {"n_paths": 2000, "base_seed": 99},
    "fpt": {"n_values": 2, "t_end": 4.0, "steps": 9},
    "experiment": {"n_series": 3},
}


@pytest.fixture()
def small_config(tmp_path):
    f = tmp_path / "config.json"
    f.write_text(json.dumps(SMALL_CONFIG))
    return f


def read_header(path):
    return path.read_text().splitlines()[0]


def assert_numeric_cells(lines):
    # every data cell is a plain number, not a repr such as np.float64(0.4)
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)


def test_defaults_are_reference_scenario():
    cfg = load_config()
    assert (cfg.process.mu, cfg.process.alpha, cfg.process.lam) == (5.0, 10.0, 1.0)
    assert (cfg.policy.x0, cfg.policy.a, cfg.policy.Q) == (100.0, 50.0, 50.0)
    assert (cfg.costs.c_h, cfg.costs.c_o, cfg.costs.c_so) == (1.0, 5.0, 10.0)
    assert cfg.costs.ordering_mode.value == "per_unit_times_Q"
    assert cfg.experiment.costs.ordering_mode.value == "per_order"
    assert cfg.experiment.n_series == 1000
    assert cfg.grid[0] == 0.0


def test_flag_overrides(small_config):
    cfg = load_config(small_config, {"mc": {"n_paths": 7}})
    assert cfg.n_paths == 7
    assert cfg.grid.size == 9  # file section survives the override merge


def test_expected_cost_outputs(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    rc = main(["expected-cost", "--config", str(small_config), "--out", str(out)])
    assert rc == 0
    assert read_header(out / "expected_cost.csv") == (
        "a,Q,c_h,c_o,c_so,mode,t,ordering,holding,shortage,total"
    )
    assert (out / "expected_cost.svg").exists()
    captured = capsys.readouterr()
    assert "argmax" in captured.out


def test_negative_inventory_warning_names_the_gamma_approximation(tmp_path, capsys):
    # the series converges in at most two terms here, so truncation is not the cause
    config = tmp_path / "drift.json"
    config.write_text(
        json.dumps(
            {
                "process": {"mu": 5.0, "alpha": 0.1, "lam": 1.0},
                "grid": {"t_start": 0.0, "t_end": 40.0, "steps": 41},
            }
        )
    )
    rc = main(["expected-cost", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    captured = capsys.readouterr()
    argmax, warning = captured.out.splitlines()[:2]
    assert argmax.startswith("argmax: t=20.0 total=980.01")
    assert warning == (
        "warning: expected inventory is negative at 21 grid times starting t=20.0 "
        "(the gamma first-passage approximation undercounts orders: its rate "
        "alpha*lam ignores the drift mu)"
    )
    assert "truncation" not in captured.out + captured.err


def test_expected_cost_zero_grid(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"grid": {"t_start": 0.0, "t_end": 0.0, "steps": 5}}))
    out = tmp_path / "out"
    assert main(["expected-cost", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "expected_cost.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the single t=0 row
    assert lines[1].split(",")[7:] == ["0.0", "0.0", "0.0", "0.0"]


@pytest.mark.parametrize("command", ["expected-cost", "sweep", "validate", "compare"])
def test_series_not_converged_exit_code(tmp_path, capsys, command):
    # every command that sums a series leaves through the one handler in main
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(
        json.dumps(
            {
                "series": {"n_max": 2},
                "grid": {"t_start": 0.0, "t_end": 10.0, "steps": 6},
                "mc": {"n_paths": 200},
                "validate": {"times": [2.0]},
                "experiment": {"n_series": 3},
            }
        )
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{command} failed: series not converged at t=" in err
    assert list(out.iterdir()) == []


def test_sweep_outputs(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(small_config), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    # 3 a-values x 2 Q-values x 2 orderings x 9 grid times
    assert len(lines) == 1 + 3 * 2 * 2 * 9
    assert (out / "sweep_vary_co.svg").exists()
    assert (out / "sweep_vary_a.svg").exists()
    assert (out / "sweep_vary_q.svg").exists()


def test_sweep_charts_hold_one_curve_per_list_entry(tmp_path):
    # repeated a, Q and c_o entries each get a polyline of grid-size
    # points, and a repeated entry draws the curve of its first occurrence
    config = tmp_path / "dup.json"
    lists = {
        "a_list": [50.0, 40.0, 50.0],
        "Q_list": [50.0, 60.0, 50.0],
        "c_o_list": [5.0, 10.0, 5.0],
    }
    config.write_text(json.dumps(dict(SMALL_CONFIG, sweep=lists)))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    steps = SMALL_CONFIG["grid"]["steps"]
    for chart, key in (("vary_a", "a_list"), ("vary_q", "Q_list"), ("vary_co", "c_o_list")):
        svg = (out / f"sweep_{chart}.svg").read_text()
        polylines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert [len(points.split()) for points in polylines] == [steps] * len(lists[key])
        first, second, third = polylines
        assert third == first != second


def test_simulate_outputs(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(small_config), "--out", str(out)]) == 0
    assert read_header(out / "trajectory.csv") == "t,kind,inventory"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_paths"] == 2000
    assert summary["shortage_fraction"] == 0.0


def test_simulate_zero_horizon_exit_code(tmp_path, capsys):
    # the horizon is the last grid time; a zero one is refused, not replaced
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"grid": {"t_start": 0.0, "t_end": 0.0, "steps": 5}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err and "'grid.t_end' must be positive" in err
    assert list(out.iterdir()) == []


def test_validate_reports_and_fails_on_defaults(tmp_path, small_config, capsys):
    # validate reports one row per quantity and time, with the exact
    # Poisson-law expectations as its analytical side, and its exit code
    # is its verdict: 1 exactly when some row fails at 3 standard errors.
    # Whether this seed's rows all pass is not pinned.
    out = tmp_path / "out"
    rc = main(["validate", "--config", str(small_config), "--out", str(out)])
    captured = capsys.readouterr()
    lines = (out / "validation.csv").read_text().strip().splitlines()
    assert lines[0] == "quantity,t,analytical,mc_mean,mc_stderr,slack,abs_diff,limit,status"
    assert len(lines) == 1 + 4 * 3  # four quantities at three times
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    cfg = load_config(small_config)
    orders = [r for r in rows if r["quantity"] == "expected_orders"]
    assert [float(r["t"]) for r in orders] == list(cfg.validate_times)
    for r in orders:
        want = exact_expected_orders(cfg.process, cfg.policy, float(r["t"]))
        assert float(r["analytical"]) == pytest.approx(want, rel=1e-9)
    failed = any(r["status"] == "fail" for r in rows)
    assert rc == (1 if failed else 0)
    assert ("FAILED" in captured.out) == failed
    assert ("all comparisons passed" in captured.out) == (not failed)


def test_validate_gate_is_three_standard_errors(tmp_path, small_config):
    # nothing is ever short, so no quantity gets slack: every row's
    # limit is exactly 3 standard errors and its slack column reads 0.0
    out = tmp_path / "out"
    main(["validate", "--config", str(small_config), "--out", str(out)])
    lines = (out / "validation.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 12
    # the columns between quantity and status are plain numbers
    assert_numeric_cells([",".join(line.split(",")[1:-1]) for line in lines])
    for r in rows:
        assert r["slack"] == "0.0"
        assert float(r["limit"]) == 3.0 * float(r["mc_stderr"])
        assert r["status"] == ("pass" if float(r["abs_diff"]) <= float(r["limit"]) else "fail")


def test_validate_low_path_warning(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"mc": {"n_paths": 100}, "validate": {"times": [2.0]}}))
    out = tmp_path / "out"
    main(["validate", "--config", str(cfgfile), "--out", str(out)])
    assert "little statistical power" in capsys.readouterr().err


def test_validate_negative_control(small_config, monkeypatch):
    # corrupting the closed-form side only (jump size x3) must flag failures
    def corrupted(process, *args):
        return exact_moments(dataclasses.replace(process, alpha=process.alpha * 3.0), *args)

    monkeypatch.setattr(driftinv.cli, "exact_moments", corrupted)
    cfg = load_config(small_config, {"validate": {"times": [2.0]}})
    rows = run_validation(cfg)
    assert any(r["status"] == "fail" for r in rows)


def test_fpt_diag_outputs(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert main(["fpt-diag", "--config", str(small_config), "--out", str(out)]) == 0
    lines = (out / "fpt_diag.csv").read_text().strip().splitlines()
    assert lines[0] == "n,shape,rate,t,gamma_cdf,literal_integrand,empirical"
    assert len(lines) == 1 + 2 * 9  # n in {1, 2} on a 9-point grid
    assert_numeric_cells(lines)
    ks_lines = (out / "fpt_ks.csv").read_text().strip().splitlines()
    assert ks_lines[0] == "n,ks_gamma_vs_empirical,ks_batch_self"
    assert len(ks_lines) == 3
    assert "KS" in capsys.readouterr().out


def test_fpt_diag_blocks_write_what_the_per_threshold_loop_writes(tmp_path, capsys, monkeypatch):
    # 5 thresholds on a 9-point grid: one call, blocks of 2, 2 and 1
    # thresholds, and one threshold per call write the same bytes
    cfgfile = tmp_path / "c.json"
    fpt = {"n_values": 5, "t_end": 4.0, "steps": 9}
    cfgfile.write_text(json.dumps({**SMALL_CONFIG, "fpt": fpt}))
    runs = []
    for chunk_values in (driftinv.cli._CHUNK_VALUES, 2 * 9, 1):
        monkeypatch.setattr(driftinv.cli, "_CHUNK_VALUES", chunk_values)
        out = tmp_path / str(chunk_values)
        args = ["fpt-diag", "--config", str(cfgfile), "--paths", "300", "--out", str(out)]
        assert main(args) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        runs.append((files, capsys.readouterr().out.replace(str(out), "OUT")))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    # the shape, rate, gamma and literal columns are those of the scalar
    # spec of each threshold, as the per-threshold loop wrote them
    cfg = load_config(cfgfile)
    lines = runs[0][0]["fpt_diag.csv"].decode().splitlines()[1:]
    assert len(lines) == 5 * 9
    for n in range(1, 6):
        spec = fpt_gamma_spec(cfg.process, cfg.policy, n)
        rows = [line.split(",") for line in lines[(n - 1) * 9 : n * 9]]
        grid = np.array([float(r[3]) for r in rows])
        want = zip(gamma_cdf(spec, grid).tolist(), literal_integrand_cdf(spec, grid).tolist())
        for r, (g, lit) in zip(rows, want):
            assert r[:3] == [str(n), repr(spec.shape), repr(spec.rate)]
            assert r[4:6] == [repr(g), repr(lit)]


def _cost_lines(cost, costs_list, a_list, q_list, grid):
    heads = [
        f"{a!r},{Q!r},{c.c_h!r},{c.c_o!r},{c.c_so!r},{c.ordering_mode.value}"
        for a in a_list
        for Q in q_list
        for c in costs_list
    ]
    times = np.asarray(grid).tolist()
    shape = (len(heads), len(times))
    columns = [np.reshape(x, shape).tolist() for x in (cost.ordering, cost.holding, cost.total)]
    lines = ["a,Q,c_h,c_o,c_so,mode,t,ordering,holding,shortage,total"]
    for head, ordering, holding, total in zip(heads, *columns):
        for t, o, h, tot in zip(times, ordering, holding, total):
            lines.append(f"{head},{t!r},{o!r},{h!r},0.0,{tot!r}")
    return lines


def oracle_csv_files(cfg):
    """Oracle: every CSV file of the seven commands, formatted row by row
    with one f-string of reprs per line, the way each command wrote it
    before one writer owned the format."""
    files = {}
    curve = cost_curve(cfg.process, cfg.policy, cfg.costs, cfg.grid, cfg.series)
    files["expected_cost.csv"] = _cost_lines(
        curve.cost, [cfg.costs], [cfg.policy.a], [cfg.policy.Q], curve.grid
    )

    raw, c = cfg.raw["sweep"], cfg.costs
    costs_list = [CostParams(c_o, c.c_h, c.c_so, c.ordering_mode) for c_o in raw["c_o_list"]]
    cost = sweep(
        cfg.process, costs_list, raw["a_list"], raw["Q_list"], cfg.grid, cfg.series,
        x0=cfg.policy.x0,
    )
    files["sweep.csv"] = _cost_lines(cost, costs_list, raw["a_list"], raw["Q_list"], cfg.grid)

    traj = simulate(cfg.process, cfg.policy, float(cfg.grid[-1]), cfg.base_seed)
    files["trajectory.csv"] = ["t,kind,inventory"] + [
        f"{t!r},{'order' if k == KIND_ORDER else 'jump'},{v!r}"
        for t, k, v in zip(traj.times.tolist(), traj.kinds.tolist(), traj.inventory_after.tolist())
    ]

    validation = files["validation.csv"] = [
        "quantity,t,analytical,mc_mean,mc_stderr,slack,abs_diff,limit,status"
    ]
    for r in run_validation(cfg):
        validation.append(
            f"{r['quantity']},{r['t']!r},{r['analytical']!r},{r['mc_mean']!r},"
            f"{r['mc_stderr']!r},0.0,{r['abs_diff']!r},{r['limit']!r},{r['status']}"
        )

    fpt = cfg.raw["fpt"]
    grid = np.linspace(0.0, fpt["t_end"], fpt["steps"])
    ns = np.arange(1, fpt["n_values"] + 1)
    emp_a = fpt_empirical_cdf(cfg.process, cfg.policy, ns, grid, cfg.n_paths, cfg.base_seed)
    emp_b = fpt_empirical_cdf(
        cfg.process, cfg.policy, ns, grid, cfg.n_paths, cfg.base_seed + cfg.n_paths
    )
    diag = files["fpt_diag.csv"] = ["n,shape,rate,t,gamma_cdf,literal_integrand,empirical"]
    ks_lines = files["fpt_ks.csv"] = ["n,ks_gamma_vs_empirical,ks_batch_self"]
    for n, ea, eb in zip(ns.tolist(), emp_a, emp_b):
        spec = fpt_gamma_spec(cfg.process, cfg.policy, n)
        gcdf, lit = gamma_cdf(spec, grid), literal_integrand_cdf(spec, grid)
        ks, ks_self = float(np.max(np.abs(gcdf - ea))), float(np.max(np.abs(ea - eb)))
        ks_lines.append(f"{n},{ks!r},{ks_self!r}")
        for t, g, l, e in zip(grid.tolist(), gcdf.tolist(), lit.tolist(), ea.tolist()):
            diag.append(f"{n},{spec.shape!r},{spec.rate!r},{t!r},{g!r},{l!r},{e!r}")

    table = files["table1.csv"] = [
        "R,Q,C_h,C_o,C_so,mean_total,stderr_total,mean_orders,stockout_rate"
    ]
    for r in run_table_experiment(cfg.experiment):
        table.append(
            f"{r.R!r},{r.Q!r},{r.c_h!r},{r.c_o!r},{r.c_so!r},"
            f"{r.mean_total!r},{r.stderr_total!r},{r.mean_orders!r},{r.stockout_rate!r}"
        )

    periods, cum = cumulative_cost_profile(cfg.experiment)
    exp = cfg.experiment
    times = exp.period_length * np.arange(1, exp.n_sim_periods + 1)
    ana = cost_curve(cfg.process, exp.policy, exp.costs, times, cfg.series).cost.total
    files["compare.csv"] = ["period,t,analytical_total,forecast_sim_cum_cost"] + [
        f"{int(p)},{float(t)!r},{a!r},{c!r}"
        for p, t, a, c in zip(periods, times, ana.tolist(), cum.tolist())
    ]
    return {name: "".join(line + "\n" for line in lines) for name, lines in files.items()}


ORACLE_CONFIGS = {
    # repeated sweep entries, per-order charges
    "repeated_sweep_per_order": {
        **SMALL_CONFIG,
        "costs": {"ordering_mode": "per_order"},
        "mc": {"n_paths": 300, "base_seed": 99},
        "validate": {"times": [1.5, 3.0, 1.5]},
        "sweep": {
            "a_list": [55.5, 40.0, 55.5], "Q_list": [45.0, 60.0, 45.0], "c_o_list": [7.0, 2.5, 7.0],
        },
    },
    # four times the jumps at the reference's mean demand rate
    "high_intensity": {
        **SMALL_CONFIG,
        "process": {"mu": 5.0, "alpha": 2.5, "lam": 4.0},
        "mc": {"n_paths": 300, "base_seed": 7},
        "fpt": {"n_values": 5, "t_end": 6.0, "steps": 9},
    },
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_every_csv_equals_its_row_by_row_oracle(tmp_path, capsys, monkeypatch, name):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(ORACLE_CONFIGS[name]))
    want = oracle_csv_files(load_config(cfgfile))
    written = {}
    for command in driftinv.cli.COMMANDS:
        out = tmp_path / command
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) in (0, 1)
        written.update((f.name, f.read_text()) for f in out.glob("*.csv"))
    assert written == want
    # fpt_diag.csv a block of one, of two and of all thresholds at a time
    steps = ORACLE_CONFIGS[name]["fpt"]["steps"]
    for chunk_values in (steps, 2 * steps, driftinv.cli._CHUNK_VALUES):
        monkeypatch.setattr(driftinv.cli, "_CHUNK_VALUES", chunk_values)
        out = tmp_path / f"fpt-{chunk_values}"
        assert main(["fpt-diag", "--config", str(cfgfile), "--out", str(out)]) == 0
        for f in ("fpt_diag.csv", "fpt_ks.csv"):
            assert (out / f).read_text() == want[f]
    capsys.readouterr()
    # a number reads back to the same bits; integers (n, period) are
    # integer literals and labels are words
    for text in written.values():
        for line in text.splitlines()[1:]:
            for field in line.split(","):
                if not field.isdigit() and field[-1].isdigit():
                    assert repr(float(field)) == field


def test_table1_outputs(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["table1", "--config", str(small_config), "--out", str(out)]) == 0
    lines = (out / "table1.csv").read_text().strip().splitlines()
    assert lines[0] == "R,Q,C_h,C_o,C_so,mean_total,stderr_total,mean_orders,stockout_rate"
    assert len(lines) == 49


def test_compare_outputs(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["compare", "--config", str(small_config), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "period,t,analytical_total,forecast_sim_cum_cost"
    assert len(lines) == 1 + 38
    assert_numeric_cells(lines)
    assert (out / "compare.svg").exists()


def test_seed_and_mode_flags(tmp_path, small_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["simulate", "--config", str(small_config), "--out", str(out_a), "--seed", "5", "--paths", "500"])
    main(["simulate", "--config", str(small_config), "--out", str(out_b), "--seed", "6", "--paths", "500"])
    assert json.loads((out_a / "summary.json").read_text()) != json.loads(
        (out_b / "summary.json").read_text()
    )
    out_c = tmp_path / "c"
    main(["expected-cost", "--config", str(small_config), "--out", str(out_c), "--mode", "per_order"])
    row = (out_c / "expected_cost.csv").read_text().strip().splitlines()[1]
    assert ",per_order," in row


def test_byte_identical_reruns(tmp_path, small_config):
    # determinism: identical config -> identical CSV bytes
    for command in ("expected-cost", "fpt-diag", "table1"):
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        assert main([command, "--config", str(small_config), "--out", str(out_a)]) in (0, 1)
        assert main([command, "--config", str(small_config), "--out", str(out_b)]) in (0, 1)
        for f in sorted(out_a.iterdir()):
            assert (out_b / f.name).read_bytes() == f.read_bytes()


def _int_spelling(value):
    """``value`` with every integral float written as an integer literal."""
    if isinstance(value, dict):
        return {k: _int_spelling(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_int_spelling(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _leaf_types(value, default, name=""):
    if isinstance(default, dict):
        for key, d in default.items():
            yield from _leaf_types(value[key], d, f"{name}{key}.")
    elif isinstance(default, list):
        yield from ((name, type(v), type(default[0])) for v in value)
    else:
        yield name, type(value), type(default)


def test_number_spelling_does_not_change_outputs(tmp_path):
    # 50 and 50.0 are the same number: every command writes the same bytes
    config = copy.deepcopy(DEFAULT_CONFIG)
    for section, values in SMALL_CONFIG.items():
        config[section].update(values)
    config["mc"]["n_paths"] = 200
    config["experiment"]["trigger"] = "forecast_projected"
    spelled = _int_spelling(config)
    assert spelled["policy"]["a"] == 50 and type(spelled["policy"]["a"]) is int
    outs = {}
    for label, cfg in (("float", config), ("int", spelled)):
        cfgfile = tmp_path / f"{label}.json"
        cfgfile.write_text(json.dumps(cfg))
        outs[label] = tmp_path / label
        for command in driftinv.cli.COMMANDS:
            rc = main([command, "--config", str(cfgfile), "--out", str(outs[label] / command)])
            assert rc in (0, 1)
    files = sorted(f.relative_to(outs["float"]) for f in outs["float"].rglob("*") if f.is_file())
    assert len(files) >= 15
    assert files == sorted(
        f.relative_to(outs["int"]) for f in outs["int"].rglob("*") if f.is_file()
    )
    for f in files:
        assert (outs["int"] / f).read_bytes() == (outs["float"] / f).read_bytes(), f


def test_merge_stores_each_value_in_its_defaults_type(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(_int_spelling(DEFAULT_CONFIG)))
    overrides = {
        "grid": {"steps": 9.0},
        "experiment": {"window": 3.0, "sim_start": 4},
        "policy": {"Q": 40},
        "validate": {"times": [1, 2.5]},
    }
    raw = load_config(cfgfile, overrides).raw
    mismatched = [leaf for leaf in _leaf_types(raw, DEFAULT_CONFIG) if leaf[1] is not leaf[2]]
    assert mismatched == []
    assert raw["grid"]["steps"] == 9 and raw["experiment"]["window"] == 3
    assert raw["policy"]["Q"] == 40.0 and raw["validate"]["times"] == [1.0, 2.5]


def _dicts_and_lists(value):
    if isinstance(value, dict):
        yield value
        for v in value.values():
            yield from _dicts_and_lists(v)
    elif isinstance(value, list):
        yield value


@pytest.mark.parametrize(
    "config, overrides",
    [
        (None, None),
        ({"process": {"mu": 4.0}, "validate": {"times": [3.0]}}, None),
        ({"sweep": {"Q_list": [40.0]}}, {"policy": {"a": 45.0}, "mc": {"base_seed": 3}}),
    ],
)
def test_loaded_config_shares_nothing_with_the_defaults(tmp_path, config, overrides):
    # the merge builds every dict and list anew: a loaded config's raw
    # dicts and lists, merged or not, are its own, and mutating them
    # leaves DEFAULT_CONFIG and the next load as they were
    before = copy.deepcopy(DEFAULT_CONFIG)
    cfgfile = None
    if config is not None:
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(config))
    raw = load_config(cfgfile, overrides).raw
    defaults = [id(v) for v in _dicts_and_lists(DEFAULT_CONFIG)]
    assert not {id(v) for v in _dicts_and_lists(raw)} & set(defaults)
    for v in _dicts_and_lists(raw):
        if isinstance(v, dict):
            for key in list(v):
                if not isinstance(v[key], dict):
                    v[key] = "mutated"
        else:
            v.append(-1.0)
    raw["extra"] = {}
    assert DEFAULT_CONFIG == before
    assert load_config().raw == before


def test_record_defaults_equal_the_config_defaults():
    # both records carry their own defaults: they must be the shipped ones
    for record, section in ((ExperimentConfig, "experiment"), (RenewalSeriesConfig, "series")):
        for field in dataclasses.fields(record):
            if field.default is not dataclasses.MISSING:
                value = DEFAULT_CONFIG[section][field.name]
                assert (type(value), value) == (type(field.default), field.default), field.name


def test_cost_ordering_warning_names_the_line_that_built_the_record(tmp_path):
    # every warning points past the dataclass-generated __init__ (<string>)
    # to the driftinv line that built the record, never into the
    # standard library
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"sweep": {"c_o_list": [0.5]}}))
    out = str(tmp_path / "out")
    cases = (
        (lambda: load_config(overrides={"costs": {"c_o": 0.5}}), "config.py"),
        (
            lambda: run_table_experiment(load_config().experiment, [(40.0, 50.0, 1.0, 0.5, 10.0)]),
            "forecast.py",
        ),
        (lambda: main(["sweep", "--config", str(cfgfile), "--out", out]), "cli.py"),
    )
    for build, module in cases:
        with pytest.warns(UserWarning, match="cost ordering") as record:
            build()
        for warning in record:
            path = pathlib.Path(warning.filename)
            assert path.parent == pathlib.Path(driftinv.cli.__file__).parent
            assert path.name == module


@pytest.mark.parametrize(
    "command, config, module",
    [
        ("expected-cost", {"costs": {"c_o": 0.5}}, "config.py"),
        ("sweep", {"sweep": {"c_o_list": [0.5]}}, "cli.py"),
    ],
)
def test_cost_ordering_warning_prints_once_in_a_fresh_interpreter(
    tmp_path, command, config, module
):
    # the suite turns a UserWarning into an error, so it never sees a
    # second one; a fresh interpreter under the default filters does
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    package = pathlib.Path(driftinv.cli.__file__).parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "driftinv.cli", command, "--config", str(cfgfile), "--out", "out"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.count("cost ordering c_h <= c_o <= c_so does not hold") == 1, run.stderr
    (line,) = [x for x in run.stderr.splitlines() if "UserWarning: cost ordering" in x]
    path = pathlib.Path(line.split(":")[0])
    assert path.parent == package
    assert path.name == module


def test_one_point_differenced_window_forecasts_its_mean(tmp_path):
    cfgfile = tmp_path / "c.json"
    # a one-point window picks d = 0 and fits its mean; fits on an empty
    # array are tests/test_forecast.py's
    experiment = {"window": 1, "sim_start": 2, "trigger": "forecast_projected", "n_series": 3}
    cfgfile.write_text(json.dumps({"experiment": experiment}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["table1", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "table1.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 48
    assert all(math.isfinite(v) for row in rows for v in row.values())
    assert all(row["mean_orders"] > 0 for row in rows)


def test_bad_config_exit_code(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"policy": {"a": -5.0}}))
    assert main(["expected-cost", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2


def test_config_path_is_directory_exit_code(tmp_path, capsys):
    cfgdir = tmp_path / "configs"
    cfgdir.mkdir()
    assert main(["expected-cost", "--config", str(cfgdir), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and str(cfgdir) in err
    assert "Traceback" not in err


def test_out_names_a_file_exit_code(tmp_path, capsys):
    outfile = tmp_path / "out.txt"
    outfile.write_text("not a directory\n")
    assert main(["expected-cost", "--out", str(outfile)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(outfile) in err
    assert "Traceback" not in err
    assert outfile.read_text() == "not a directory\n"


def test_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "expected_cost.csv").mkdir(parents=True)
    assert main(["expected-cost", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ")
    assert str(out / "expected_cost.csv") in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["expected-cost", "--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
        (["simulate", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["simulate", "--paths", "1.5"], "argument --paths: invalid int value: '1.5'"),
    ],
)
def test_malformed_command_line_exit_code(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: driftinv ")
    assert f"driftinv: error: {message}" in err
    assert list(tmp_path.iterdir()) == []


def test_every_command_is_accepted():
    parser = driftinv.cli.build_parser()
    for name in driftinv.cli.COMMANDS:
        assert parser.parse_args([name]).command == name


def test_flags_before_the_command_give_the_same_outputs(tmp_path, small_config, capsys):
    flags = ["--config", str(small_config), "--seed", "5", "--paths", "300", "--mode", "per_order"]
    runs = []
    for name, argv in (("after", ["simulate", *flags]), ("before", [*flags, "simulate"])):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        runs.append((files, capsys.readouterr().out.replace(str(out), "OUT")))
    assert runs[0] == runs[1]


def test_in_process_runs_write_what_a_fresh_run_writes(tmp_path, small_config, capsys):
    # no state is carried from one main() call to the next
    package = pathlib.Path(driftinv.cli.__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    for seed in ("5", "6"):
        args = ["simulate", "--config", str(small_config), "--paths", "300", "--seed", seed]
        assert main([*args, "--out", str(tmp_path / f"in-{seed}")]) == 0
        in_process = capsys.readouterr().out.replace(str(tmp_path / f"in-{seed}"), "OUT")
        fresh = subprocess.run(
            [sys.executable, "-m", "driftinv.cli", *args, "--out", f"fresh-{seed}"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.replace(f"fresh-{seed}", "OUT") == in_process
        for f in sorted((tmp_path / f"fresh-{seed}").iterdir()):
            assert (tmp_path / f"in-{seed}" / f.name).read_bytes() == f.read_bytes()


def test_console_script_reads_sys_argv(tmp_path, small_config, monkeypatch):
    # the driftinv entry point calls main() with no arguments
    out = tmp_path / "out"
    argv = ["driftinv", "expected-cost", "--config", str(small_config), "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert main() == 0
    assert (out / "expected_cost.csv").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"proces": {"mu": 5.0}}, "unknown config key 'proces'"),
        ({"policy": {"reorder": 40.0}}, "unknown config key 'policy.reorder'"),
        (
            {"experiment": {"croston_smoothing": 0.5}},
            "unknown config key 'experiment.croston_smoothing'",
        ),
        ({"policy": {"Q": "abc"}}, "'policy.Q' must be a finite number"),
        ({"process": {"mu": None}}, "'process.mu' must be a finite number"),
        ({"process": {"lam": float("inf")}}, "'process.lam' must be a finite number"),
        ({"process": {"mu": 10**400}}, "'process.mu' must be a finite number"),
        ({"mc": {"n_paths": True}}, "'mc.n_paths' must be an integer"),
        ({"grid": {"steps": 9.5}}, "'grid.steps' must be an integer"),
        ({"validate": {"times": [2.0, "5"]}}, "'validate.times' must be a list of finite numbers"),
        # the ARIMA grid is fixed: d_set, p_max and q_max are unknown keys
        ({"experiment": {"d_set": [1]}}, "unknown config key 'experiment.d_set'"),
        ({"grid": 12.0}, "'grid' must be an object"),
        ([1, 2], "must hold a JSON object"),
        ({"experiment": {"p_max": 1}}, "unknown config key 'experiment.p_max'"),
        ({"experiment": {"q_max": 1}}, "unknown config key 'experiment.q_max'"),
    ],
)
def test_strict_config_exit_code(tmp_path, capsys, config, message):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    assert main(["expected-cost", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and message in err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("validate", {"validate": {"times": []}}, "'validate.times' must be a non-empty list"),
        ("fpt-diag", {"fpt": {"n_values": 0}}, "'fpt.n_values' must be at least 1"),
        ("fpt-diag", {"fpt": {"steps": 0}}, "'fpt.steps' must be at least 1"),
        ("fpt-diag", {"fpt": {"t_end": -5.0}}, "'fpt.t_end' must be positive"),
        ("simulate", {"mc": {"base_seed": -5}}, "'mc.base_seed' must be a non-negative integer"),
        (
            "table1",
            {"experiment": {"base_seed": -1}},
            "'experiment.base_seed' must be a non-negative integer",
        ),
        ("fpt-diag", {"fpt": {"t_end": 0.0}}, "'fpt.t_end' must be positive"),
        (
            "validate",
            {"validate": {"times": [0.0]}},
            "'validate.times' must be a list of positive numbers",
        ),
        (
            "validate",
            {"validate": {"times": [2.0, -1.0]}},
            "'validate.times' must be a list of positive numbers",
        ),
        # refused before any array exists: never allocated here
        ("expected-cost", {"grid": {"steps": 10**10}}, "'grid.steps' must be at most 100000"),
        ("sweep", {"grid": {"steps": 100_001}}, "'grid.steps' must be at most 100000"),
        ("fpt-diag", {"fpt": {"steps": 10**10}}, "'fpt.steps' must be at most 100000"),
        ("expected-cost", {"grid": {"steps": 0}}, "'grid.steps' must be at least 1"),
        ("fpt-diag", {"fpt": {"n_values": 10**10}}, "'fpt.n_values' must be at most 100000"),
    ],
)
def test_config_domain_exit_code(tmp_path, capsys, command, config, message):
    # values of the right kind but outside what the command can run on
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and message in err
    assert not out.exists()


def test_grid_steps_cap_is_inclusive():
    cfg = load_config(
        overrides={"grid": {"steps": MAX_STEPS}, "fpt": {"steps": MAX_STEPS, "n_values": MAX_STEPS}}
    )
    assert cfg.grid.size == MAX_STEPS == 100_000
    assert cfg.raw["fpt"]["n_values"] == MAX_STEPS


def test_negative_seed_flag_exit_code(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--seed", "-3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and "'mc.base_seed' must be a non-negative integer" in err


@pytest.mark.parametrize(
    "command, config, horizon",
    [
        ("simulate", {"grid": {"t_start": 0.0, "t_end": 1e6, "steps": 5}}, "1e+06"),
        ("validate", {"validate": {"times": [2.0, 1e6]}}, "1e+06"),
        ("fpt-diag", {"fpt": {"n_values": 5, "t_end": 1e6, "steps": 5}}, "1e+06"),
        ("fpt-diag", {"process": {"lam": 100.0}}, "51"),
    ],
)
def test_jump_budget_exit_code(tmp_path, capsys, monkeypatch, command, config, horizon):
    # about n_paths * lam * horizon jump times past the budget: refused
    # before a single path is drawn, with the sizes named
    def no_sampling(*args):
        raise AssertionError("jump times were sampled")

    monkeypatch.setattr("driftinv.demand._chunk_jump_times", no_sampling)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err and "budget" in err
    assert f"100000 paths at jump rate {config.get('process', {}).get('lam', 1.0):g}" in err
    assert f"to horizon {horizon} " in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("Q", [1e-300, 1e-7])
def test_order_budget_exit_code(tmp_path, capsys, monkeypatch, command, Q):
    # about (mu + alpha*lam) * horizon / Q orders on one path, past the
    # budget: refused before a single path is drawn (1e-300 overflowed the
    # batch kernel's int64 guess and hung it; 1e-7 hung the event walk)
    def no_sampling(*args):
        raise AssertionError("jump times were sampled")

    monkeypatch.setattr("driftinv.demand._chunk_jump_times", no_sampling)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"policy": {"Q": Q}}))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    horizon = 12 if command == "simulate" else 10  # grid.t_end, the latest validate time
    orders = 15.0 * horizon / Q
    assert f"parameter error: a path to horizon {horizon} at order quantity Q={Q:g} " in err
    assert f"places about {orders:.3g} orders, more than the budget of 33554432" in err
    assert list(out.iterdir()) == []


ORDERING_OVERFLOWS = "the ordering cost overflows a float; use a smaller c_o"
HOLDING_OVERFLOWS = "the holding cost overflows a float; use a smaller c_h"
SIMULATED_OVERFLOWS = (
    "the simulated cost overflows a float; use smaller demand (mu, alpha), starting stock x0 "
    "or costs"
)


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("expected-cost", {"costs": {"c_o": 1e308, "c_so": 1e308}}, ORDERING_OVERFLOWS),
        ("expected-cost", {"costs": {"c_h": 1e308}}, HOLDING_OVERFLOWS),
        ("sweep", {"sweep": {"c_o_list": [5.0, 1e308]}}, ORDERING_OVERFLOWS),
        ("simulate", {"costs": {"c_o": 1e308, "c_so": 1e308}}, ORDERING_OVERFLOWS),
        ("simulate", {"costs": {"c_h": 1e308}}, HOLDING_OVERFLOWS),
        # every path's ordering cost is finite (at most 6 orders of 5e305),
        # but not the sum of 2000 of them in their mean
        ("simulate", {"costs": {"c_o": 1e304, "c_so": 1e304}}, ORDERING_OVERFLOWS),
        # the expected cost is finite, but not that of a path with 4 orders of 5e307
        ("validate", {"costs": {"c_o": 1e306, "c_so": 1e306}}, ORDERING_OVERFLOWS),
        (
            "compare",
            {"costs": {"c_o": 1e308}, "experiment": {"ordering_mode": "per_unit_times_Q"}},
            SIMULATED_OVERFLOWS,
        ),
        # every path's cost and the expected cost are finite, but not the
        # squares of validate's standard error at t = 4; validate wrote
        # inf rows and marked them pass
        (
            "validate",
            {"costs": {"c_o": 1e303, "c_so": 1e303}},
            "the total cost overflows a float; use a smaller c_o and c_h",
        ),
        # the costs are the defaults and table1's grid: demand or x0
        # overflows; table1 printed RuntimeWarnings, wrote inf and nan rows
        # and exited 0.  With x0 every series' cost is finite, but not
        # their mean over 1000 series
        *(
            (command, config, SIMULATED_OVERFLOWS)
            for command in ("table1", "compare")
            for config in (
                {"process": {"alpha": 1e306}},
                {"process": {"mu": 1e306}},
                {"policy": {"x0": 1e306, "a": 1e305}, "experiment": {"n_series": 1000}},
            )
        ),
    ],
)
def test_cost_overflow_exit_code(tmp_path, capsys, command, config, message):
    # each input is finite, so the config check passes, but a product or
    # a sum of costs overflows: nan and inf rows reached the CSV files and
    # summary.json, and the charts crashed on them.  A RuntimeWarning is an
    # error under the suite's filterwarnings
    cfgfile = tmp_path / "c.json"
    experiment = {"n_series": 3, **config.get("experiment", {})}
    cfgfile.write_text(json.dumps({**config, "mc": {"n_paths": 2000}, "experiment": experiment}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the cost ordering's warning
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"parameter error: {message}\n" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_tiny_jump_size_exit_code(tmp_path):
    # the exact form's fewest jumps to a threshold, (L - mu*t)/alpha, went
    # past 2**63, whose int64 cast wrapped, and its search then stepped by
    # one forever; a subprocess with a timeout turns a hang into a failure
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"process": {"alpha": 1e-300}}))
    package = pathlib.Path(driftinv.cli.__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "driftinv.cli", "validate", "--config", str(cfgfile),
         "--paths", "200", "--out", "out"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 2, run.stderr
    assert (
        "parameter error: a count of about 4e+301 jumps or orders is more than the budget "
        "of 33554432; use a larger jump size alpha or order quantity Q"
    ) in run.stderr
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize(
    "config, flags, sizes",
    [
        # within the jump budget (about 3.1e6 jump times to horizon 31),
        # but 1e5 thresholds x 1e5 paths passage times would be 80 GB
        ({"fpt": {"n_values": 100000}, "policy": {"Q": 0.001}}, [], "100000 paths, 61 grid"),
        ({"fpt": {"n_values": 1000, "steps": 100000}}, ["--paths", "10"], "10 paths, 100000 grid"),
    ],
)
def test_fpt_values_budget_exit_code(tmp_path, capsys, monkeypatch, config, flags, sizes):
    # thresholds x max(paths, grid points) past the budget: refused before
    # a single path is drawn, naming fpt.n_values and the sizes
    def no_sampling(*args):
        raise AssertionError("jump times were sampled")

    monkeypatch.setattr("driftinv.demand._chunk_jump_times", no_sampling)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["fpt-diag", "--config", str(cfgfile), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    n_values = config["fpt"]["n_values"]
    assert "parameter error" in err and "budget" in err
    assert f"{n_values} thresholds (fpt.n_values) times max({sizes} points)" in err
    assert list(out.iterdir()) == []


def test_validate_single_path_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["validate", "--paths", "1", "--out", str(out)]) == 2
    assert "at least 2 paths" in capsys.readouterr().err
    assert not (out / "validation.csv").exists()


def test_default_config_documented_keys():
    # the README documents these sections; keep them stable
    assert set(DEFAULT_CONFIG) == {
        "process", "policy", "costs", "grid", "series", "mc",
        "validate", "fpt", "sweep", "experiment",
    }
