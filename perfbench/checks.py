"""Output checks, independent of the program's code.

Every check reads only what a command wrote to its ``--out`` directory
and the config it was given, and compares it with an oracle written
here: the exact Poisson law of the monotone demand D_t = mu*t + alpha*N_t
for the Monte Carlo commands, ``scipy.special.gammainc`` for the renewal
series, and an independent vectorised replay for the Croston table.
None of them depends on how the program seeds its generators, so they
hold for any seeding scheme that samples the same law.

A check returns a list of problems; an empty list means the output
passed.
"""

import csv
import json
from pathlib import Path

import numpy as np
from scipy.special import gammainc
from scipy.stats import poisson

from workloads import TABLE_ROWS

K_STDERR = 6.0  # standard errors a statistical check allows
RTOL = 1e-7  # closed-form recomputation
CROSTON_REFERENCE_SERIES = 4000
CROSTON_SMOOTHING = 0.1  # the program's fixed smoothing constant

EXPECTED_EXIT = {"validate": (0, 1)}  # validate exits 1 when its gate fails


NUMPY_REPR = ("np.float64(", ")")


def _rows(path: Path):
    """CSV rows as dicts.  A cell written as a numpy scalar repr
    (``np.float64(0.2)``) is read as the number inside it; ``format_notes``
    reports that such cells exist, as a defect that is not a wrong value."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    head, tail = NUMPY_REPR
    for r in rows:
        for k, v in r.items():
            if v.startswith(head) and v.endswith(tail):
                r[k] = v[len(head) : -len(tail)]
    return rows


def format_notes(out: Path):
    """Output files whose numbers are written as numpy scalar reprs."""
    return [
        f"{p.name} writes numbers as numpy scalar reprs ({NUMPY_REPR[0]}...)"
        for p in sorted(out.glob("*.csv"))
        if NUMPY_REPR[0] in p.read_text()
    ]


def _close(got, want, rtol=RTOL):
    return abs(got - want) <= rtol * max(1.0, abs(want))


# -- exact law of the zero-lead-time controlled process ------------------
def _poisson_grid(mean):
    kmax = int(mean + 12.0 * np.sqrt(mean) + 40)
    ks = np.arange(kmax)
    return ks, poisson.pmf(ks, mean)


def exact_moments(process, policy, t):
    """E[R_t], sd(R_t), E[X_t], sd(X_t) and E[int_0^t R] from the law of N_t.

    R_t = max(floor((D_t - a)/Q) + 1, 0) and X_t = x0 - D_t + Q R_t.
    E[int R] = sum_n int_0^t P(D_s >= L_n) ds with L_n = a + (n-1)Q, and
    int pmf(k; lam s) ds over [s0, t] is (P(k+1, lam t) - P(k+1, lam s0))/lam.
    """
    mu, alpha, lam = process["mu"], process["alpha"], process["lam"]
    x0, a, Q = policy["x0"], policy["a"], policy["Q"]
    ks, pmf = _poisson_grid(lam * t)
    demand = mu * t + alpha * ks
    orders = np.maximum(np.floor((demand - a) / Q) + 1.0, 0.0)
    inv = x0 - demand + Q * orders
    e_r = float(pmf @ orders)
    e_x = float(pmf @ inv)
    n_levels = int(np.max(orders)) + 1
    levels = a + Q * np.arange(n_levels)[:, None]
    s0 = np.clip((levels - alpha * ks[None, :]) / mu, 0.0, None)
    cover = np.where(
        s0 < t, gammainc(ks[None, :] + 1.0, lam * t) - gammainc(ks[None, :] + 1.0, lam * s0), 0.0
    )
    return {
        "expected_orders": (e_r, float(np.sqrt(max(pmf @ orders**2 - e_r**2, 0.0)))),
        "expected_inventory": (e_x, float(np.sqrt(max(pmf @ inv**2 - e_x**2, 0.0)))),
        "integrated_orders": (float(cover.sum() / lam), None),
    }


def exact_passage_cdf(process, level, t):
    """(P(D_t > level), P(D_t >= level)): the first passage to ``level``
    happens by t exactly when D_t reaches it."""
    ks, pmf = _poisson_grid(process["lam"] * t)
    demand = process["mu"] * t + process["alpha"] * ks
    return float(pmf[demand > level].sum()), float(pmf[demand >= level].sum())


# -- Monte Carlo commands -------------------------------------------------
def check_validate(config, out: Path):
    problems = []
    n = config["mc"]["n_paths"]
    rows = _rows(out / "validation.csv")
    if len(rows) != 4 * len(config["validate"]["times"]):
        problems.append(f"validation.csv has {len(rows)} rows")
    for r in rows:
        t = float(r["t"])
        law = exact_moments(config["process"], config["policy"], t)
        if r["quantity"] not in law:
            continue
        exact, sd = law[r["quantity"]]
        mean, stderr = float(r["mc_mean"]), float(r["mc_stderr"])
        se = sd / np.sqrt(n) if sd is not None else stderr
        if not abs(mean - exact) <= K_STDERR * se + 1e-9 * max(1.0, abs(exact)):
            problems.append(
                f"{r['quantity']} at t={t:g}: MC mean {mean:.6g} is not within "
                f"{K_STDERR:g} stderr ({se:.3g}) of the exact {exact:.6g}"
            )
    return problems


def check_validate_verdict(rc, out: Path):
    failed = any(r["status"] == "fail" for r in _rows(out / "validation.csv"))
    if rc != (1 if failed else 0):
        return [f"validate exited {rc} but its table {'has' if failed else 'has no'} failures"]
    return []


def check_simulate(config, out: Path):
    problems = []
    policy, process = config["policy"], config["process"]
    floor = policy["x0"] - policy["a"]
    summary = json.loads((out / "summary.json").read_text())
    n = config["mc"]["n_paths"]
    if summary["n_paths"] != n:
        problems.append(f"summary has {summary['n_paths']} paths, {n} requested")
    if summary["shortage_fraction"] != 0.0 or summary["mean_shortage"] != 0.0:
        problems.append(
            f"shortage is not zero: fraction {summary['shortage_fraction']}, "
            f"mean {summary['mean_shortage']}"
        )
    horizon = config["grid"]["t_end"]
    exact, sd = exact_moments(process, policy, horizon)["expected_orders"]
    if not abs(summary["mean_orders"] - exact) <= K_STDERR * sd / np.sqrt(n):
        problems.append(
            f"mean orders {summary['mean_orders']:.6g} is not within {K_STDERR:g} "
            f"stderr of the exact {exact:.6g}"
        )
    rows = _rows(out / "trajectory.csv")
    t = np.array([float(r["t"]) for r in rows])
    v = np.array([float(r["inventory"]) for r in rows])
    # the states a path visits are the level held after the last event
    # at each instant and the left limit just before the next instant
    last = np.r_[t[1:] != t[:-1], True] if rows else np.zeros(0, dtype=bool)
    held_t = np.r_[0.0, t[last]]
    held_v = np.r_[policy["x0"], v[last]]
    left = held_v - process["mu"] * (np.r_[held_t[1:], horizon] - held_t)
    lowest = float(min(held_v.min(), left.min()))
    if lowest < floor - 1e-9 * policy["x0"]:
        problems.append(f"inventory reaches {lowest:.6g}, below x0 - a = {floor:.6g}")
    return problems


def check_fpt_diag(config, out: Path):
    problems = []
    process, policy = config["process"], config["policy"]
    n_paths = config["mc"]["n_paths"]
    rate = process["alpha"] * process["lam"]
    rows = _rows(out / "fpt_diag.csv")
    if len(rows) != config["fpt"]["n_values"] * config["fpt"]["steps"]:
        problems.append(f"fpt_diag.csv has {len(rows)} rows")
    for r in rows:
        n, t = int(r["n"]), float(r["t"])
        level = policy["a"] + (n - 1) * policy["Q"]
        shape = level / process["mu"]
        if not (_close(float(r["shape"]), shape, 1e-12) and _close(float(r["rate"]), rate, 1e-12)):
            problems.append(f"n={n}: gamma spec ({r['shape']}, {r['rate']}) != ({shape}, {rate})")
        g = float(gammainc(shape, rate * t))
        if abs(float(r["gamma_cdf"]) - g) > 1e-9:
            problems.append(f"n={n} t={t:g}: gamma CDF {r['gamma_cdf']} != {g!r}")
        lit = shape / rate**2 * float(gammainc(shape + 1.0, rate * t))
        if abs(float(r["literal_integrand"]) - lit) > 1e-7:
            problems.append(f"n={n} t={t:g}: literal integrand {r['literal_integrand']} != {lit!r}")
        lo, hi = exact_passage_cdf(process, level, t)
        tol = K_STDERR * np.sqrt(max(hi * (1.0 - hi), 0.0) / n_paths) + 2.0 / n_paths
        emp = float(r["empirical"])
        if not lo - tol <= emp <= hi + tol:
            problems.append(
                f"n={n} t={t:g}: empirical CDF {emp:.4f} outside the exact "
                f"[{lo:.4f}, {hi:.4f}] +- {tol:.4f}"
            )
    return problems


# -- closed form ----------------------------------------------------------
def closed_form_row(process, x0, a, Q, c_o, c_h, mode, t, series):
    """(ordering, holding, total) of the gamma-approximation cost at t,
    summed with scipy's incomplete gamma under the program's truncation rule."""
    mu, alpha, lam = process["mu"], process["alpha"], process["lam"]
    rate = alpha * lam
    x = rate * t
    n_max = int(series["n_max"])
    guess = min(n_max, int((x + 30.0 * np.sqrt(x) + 60.0) * mu / Q) + 10)
    k = a / mu + (Q / mu) * np.arange(guess)
    cdf = gammainc(k, x)
    below = np.nonzero(cdf < series["tail_tol"])[0]
    m = int(below[0]) if below.size else guess
    k, cdf = k[:m], cdf[:m]
    e_r = float(cdf.sum())
    e_i = float(np.maximum(t * cdf - (k / rate) * gammainc(k + 1.0, x), 0.0).sum())
    ordering = (c_o * Q if mode == "per_unit_times_Q" else c_o) * e_r
    holding = c_h * (x0 * t - 0.5 * t * t * (mu + rate) + Q * e_i)
    return ordering, holding, ordering + holding


def _check_cost_rows(config, rows, expected_keys, stride):
    problems = []
    costs, grid = config["costs"], config["grid"]
    times = np.linspace(grid["t_start"], grid["t_end"], grid["steps"])
    if len(rows) != len(expected_keys) * len(times):
        return [f"{len(rows)} cost rows, expected {len(expected_keys) * len(times)}"]
    for i, r in enumerate(rows):
        a, Q, c_o = expected_keys[i // len(times)]
        key = (float(r["a"]), float(r["Q"]), float(r["c_o"]), float(r["t"]))
        if key != (a, Q, c_o, float(times[i % len(times)])) or r["mode"] != costs["ordering_mode"]:
            problems.append(f"row {i} is {key} {r['mode']}, out of order")
            break
        if i % stride and i != len(rows) - 1:
            continue
        want = closed_form_row(
            config["process"], config["policy"]["x0"], a, Q, c_o, costs["c_h"],
            costs["ordering_mode"], key[3], config["series"],
        )
        got = (float(r["ordering"]), float(r["holding"]), float(r["total"]))
        if not all(_close(g, w) for g, w in zip(got, want)):
            problems.append(f"row {i} (a={a:.4g} Q={Q:.4g} t={key[3]:g}): {got} != {want}")
    return problems


def check_expected_cost(config, out: Path):
    policy = config["policy"]
    keys = [(policy["a"], policy["Q"], config["costs"]["c_o"])]
    return _check_cost_rows(config, _rows(out / "expected_cost.csv"), keys, stride=7)


def check_sweep(config, out: Path):
    s = config["sweep"]
    keys = [(a, Q, c) for a in s["a_list"] for Q in s["Q_list"] for c in s["c_o_list"]]
    return _check_cost_rows(config, _rows(out / "sweep.csv"), keys, stride=37)


# -- table experiment -----------------------------------------------------
def _table(config, out: Path):
    """Parsed table1.csv keyed by (R, Q, C_h, C_o, C_so), plus problems."""
    rows = _rows(out / "table1.csv")
    n = config["experiment"]["n_series"]
    table, problems = {}, []
    keys = [tuple(float(r[c]) for c in ("R", "Q", "C_h", "C_o", "C_so")) for r in rows]
    if keys != TABLE_ROWS:
        return {}, ["table1.csv rows are not the 48-row grid in order"]
    for key, r in zip(keys, rows):
        vals = {c: float(r[c]) for c in ("mean_total", "stderr_total", "mean_orders", "stockout_rate")}
        for c in ("mean_orders", "stockout_rate"):
            if abs(vals[c] * n - round(vals[c] * n)) > 1e-6 * n:
                problems.append(f"{key}: {c}={vals[c]!r} is not a count over {n} series")
        if not (0.0 <= vals["stockout_rate"] <= 1.0 and vals["stderr_total"] >= 0.0):
            problems.append(f"{key}: stockout rate or stderr out of range")
        table[key] = vals
    for (R, Q, c_h, c_o, c_so), vals in table.items():
        for other in ((R, Q, c_h, c_o + 5.0, c_so), (R, Q, c_h, c_o, c_so + 5.0)):
            if other in table and table[other]["mean_total"] < vals["mean_total"]:
                problems.append(f"total falls from {(R, Q, c_o, c_so)} to {other[:2] + other[3:]}")
    return table, problems


def check_table1(config, out: Path):
    table, problems = _table(config, out)
    if table and config["experiment"].get("forecaster") == "croston":
        problems += _check_croston_replay(config, table)
    return problems


def check_compare(config, out: Path):
    rows = _rows(out / "compare.csv")
    exp = config["experiment"]
    periods = [int(r["period"]) for r in rows]
    cum = np.array([float(r["forecast_sim_cum_cost"]) for r in rows])
    if periods != list(range(exp["sim_start"], exp["sim_end"] + 1)):
        return [f"compare.csv covers periods {periods[:1]}..{periods[-1:]}"]
    if np.any(np.diff(cum) < 0):
        return ["cumulative cost decreases"]
    return []


def check_table_matches_compare(config, table_out: Path, compare_out: Path):
    """The table row of the config's own policy is the final cumulative cost."""
    policy, costs = config["policy"], config["costs"]
    key = (policy["x0"] - policy["a"], policy["Q"], costs["c_h"], costs["c_o"], costs["c_so"])
    table, _ = _table(config, table_out)
    final = float(_rows(compare_out / "compare.csv")[-1]["forecast_sim_cum_cost"])
    if key not in table:
        return [f"table1 has no row for the config's policy {key}"]
    if not _close(table[key]["mean_total"], final, 1e-9):
        return [f"table1 total {table[key]['mean_total']!r} != compare final {final!r}"]
    return []


def _croston_replay(actuals, forecasts, x0, R, Q, c_h, c_so, charge):
    """Vectorised forecast-projected replay; per-series (total, orders, stockout)."""
    inv = np.full(actuals.shape[0], x0)
    total = np.zeros_like(inv)
    orders = np.zeros_like(inv)
    stockout = np.zeros(inv.shape, dtype=bool)
    for k in range(actuals.shape[1]):
        order = inv - forecasts[:, k] <= R
        inv = inv + Q * order - actuals[:, k]
        orders += order
        total += charge * order + c_h * np.maximum(inv, 0.0) + c_so * np.maximum(-inv, 0.0)
        stockout |= inv < 0.0
    return total, orders, stockout.astype(float)


def _croston(y, smoothing):
    """Croston forecasts for every row of ``y``; column k uses periods < k."""
    out = np.zeros_like(y)
    size = np.zeros(y.shape[0])
    interval = np.ones(y.shape[0])
    seen = np.zeros(y.shape[0], dtype=bool)
    since = np.zeros(y.shape[0])
    for k in range(y.shape[1]):
        out[:, k] = np.where(seen, size / interval, 0.0)
        since += 1.0
        hit = y[:, k] > 0
        first = hit & ~seen
        later = hit & seen
        size = np.where(first, y[:, k], np.where(later, size + smoothing * (y[:, k] - size), size))
        interval = np.where(
            first, since, np.where(later, interval + smoothing * (since - interval), interval)
        )
        seen |= hit
        since = np.where(hit, 0.0, since)
    return out


def _check_croston_replay(config, table):
    """Replay six table rows on independently drawn series and compare
    means within the combined standard error of both samples."""
    exp, process = config["experiment"], config["process"]
    rng = np.random.default_rng(exp["base_seed"])
    m, n = CROSTON_REFERENCE_SERIES, exp["n_series"]
    period = exp["period_length"]
    y = process["mu"] * period + process["alpha"] * rng.poisson(
        process["lam"] * period, size=(m, exp["sim_end"])
    )
    fc = _croston(y, CROSTON_SMOOTHING)
    span = slice(exp["sim_start"] - 1, exp["sim_end"])
    actuals, forecasts = y[:, span], fc[:, span]
    picks = [0, len(TABLE_ROWS) - 1] + sorted(rng.choice(np.arange(1, 47), 4, replace=False))
    problems = []
    for i in picks:
        key = TABLE_ROWS[int(i)]
        R, Q, c_h, c_o, c_so = key
        charge = c_o if exp.get("ordering_mode", "per_order") == "per_order" else c_o * Q
        ref = _croston_replay(actuals, forecasts, config["policy"]["x0"], R, Q, c_h, c_so, charge)
        for name, sample, quantum in zip(
            ("mean_total", "mean_orders", "stockout_rate"), ref, (0.0, 1.0, 1.0)
        ):
            got = table[key][name]
            se = np.sqrt(sample.var() + quantum**2 / 4.0) * np.sqrt(1.0 / n + 1.0 / m)
            if not abs(got - sample.mean()) <= K_STDERR * se:
                problems.append(
                    f"{key} {name}: table {got:.6g} vs independent replay "
                    f"{sample.mean():.6g} (stderr {se:.3g})"
                )
    return problems


CHECKS = {
    "simulate": check_simulate,
    "validate": check_validate,
    "fpt-diag": check_fpt_diag,
    "expected-cost": check_expected_cost,
    "sweep": check_sweep,
    "table1": check_table1,
    "compare": check_compare,
}


def check_invocation(command, config, rc, out: Path):
    """Problems with one invocation: its exit code and its outputs."""
    if rc not in EXPECTED_EXIT.get(command, (0,)):
        return [f"{command} exited {rc}"]
    try:
        problems = CHECKS[command](config, out)
        if command == "validate":
            problems += check_validate_verdict(rc, out)
    except (OSError, KeyError, ValueError, IndexError) as err:
        problems = [f"{command} output unreadable: {err!r}"]
    return problems
