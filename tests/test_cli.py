"""CLI wiring: schemas, determinism, exit codes."""

import json

import pytest

from driftinv.cli import main, run_validation
from driftinv.config import DEFAULT_CONFIG, load_config

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


def test_validate_negative_control(small_config):
    # corrupting the closed-form side must flag failures
    cfg = load_config(small_config, {"validate": {"times": [2.0]}})
    rows = run_validation(cfg, rate_scale=3.0)
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


def test_bad_config_exit_code(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"policy": {"a": -5.0}}))
    assert main(["expected-cost", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2


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
        ({"experiment": {"d_set": [0.5]}}, "'experiment.d_set' must be a list of integers"),
        ({"grid": 12.0}, "'grid' must be an object"),
        ([1, 2], "must hold a JSON object"),
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
        ("fpt-diag", {"fpt": {"t_end": -5.0}}, "'fpt.t_end' must be non-negative"),
        ("simulate", {"mc": {"base_seed": -5}}, "'mc.base_seed' must be a non-negative integer"),
        (
            "table1",
            {"experiment": {"base_seed": -1}},
            "'experiment.base_seed' must be a non-negative integer",
        ),
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

    monkeypatch.setattr("driftinv.demand._draw_jump_times", no_sampling)
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err and "budget" in err
    assert f"100000 paths at jump rate {config.get('process', {}).get('lam', 1.0):g}" in err
    assert f"to horizon {horizon} " in err
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
