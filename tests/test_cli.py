"""CLI wiring: schemas, determinism, exit codes."""

import copy
import dataclasses
import json
import math
import pathlib
import warnings

import pytest

import driftinv.cli
from driftinv.cli import main, run_validation
from driftinv.config import DEFAULT_CONFIG, MAX_STEPS, load_config
from driftinv.cost import exact_moments
from driftinv.forecast import ExperimentConfig, run_table_experiment
from driftinv.renewal import RenewalSeriesConfig

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


def test_record_defaults_equal_the_config_defaults():
    # both records carry their own defaults: they must be the shipped ones
    for record, section in ((ExperimentConfig, "experiment"), (RenewalSeriesConfig, "series")):
        for field in dataclasses.fields(record):
            if field.default is not dataclasses.MISSING:
                value = DEFAULT_CONFIG[section][field.name]
                assert (type(value), value) == (type(field.default), field.default), field.name


def test_cost_ordering_warning_names_the_line_that_built_the_record():
    # the warning points past the dataclass-generated __init__ (<string>)
    # to the driftinv line that built the record
    with pytest.warns(UserWarning, match="cost ordering") as record:
        load_config(overrides={"costs": {"c_o": 0.5}})
    with pytest.warns(UserWarning, match="cost ordering") as row_record:
        run_table_experiment(load_config().experiment, [(40.0, 50.0, 1.0, 0.5, 10.0)])
    for warning, module in ((record[0], "config.py"), (row_record[0], "forecast.py")):
        path = pathlib.Path(warning.filename)
        assert path.parent == pathlib.Path(driftinv.cli.__file__).parent
        assert path.name == module


def test_one_point_differenced_window_forecasts_its_mean(tmp_path):
    cfgfile = tmp_path / "c.json"
    # a one-point window picks d = 0 and fits its mean; the empty
    # differenced window is tests/test_forecast.py's
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
