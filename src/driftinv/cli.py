"""Command-line interface.

Commands: expected-cost, sweep, simulate, validate, fpt-diag,
table1, compare.  Each is deterministic given its config (seeds live in
the config), writes CSV as the canonical output and SVG as convenience.
Every file a command writes is written here: the CSV files through
``write_csv``, the one owner of their text format, and summary.json.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .cost import (
    CostBreakdown,
    CostCurve,
    argmax_time,
    cost_curve,
    exact_moments,
    expected_inventory,  # noqa: F401 -- a name perfbench/layers.py traces in this module
    expected_total_cost,  # noqa: F401 -- likewise
    negative_inventory_times,
    sweep,
)
from .errors import ParameterError, SeriesNotConvergedError
from .forecast import TableRow, cumulative_cost_profile, run_table_experiment
from .mc import (
    SimSummary, Trajectory, cost_summary, mc_summary, path_costs, path_stats, sample_summary,
    simulate,
)
from .params import CostParams, OrderingMode, PolicyParams
from .renewal import (  # the four noqa names: see expected_inventory above
    _CHUNK_VALUES,
    expected_integrated_renewals,  # noqa: F401
    expected_renewals,  # noqa: F401
    fpt_empirical_cdf,
    fpt_gamma_spec,
    gamma_and_literal_cdfs,
    gamma_cdf,  # noqa: F401
    literal_integrand_cdf,  # noqa: F401
)
from .svg import line_chart


def _text(column) -> np.ndarray:
    """``str`` of each Python value of ``column``, as an object array of its shape."""
    values = np.asarray(column)
    return np.array(list(map(str, values.ravel().tolist())), dtype=object).reshape(values.shape)


def write_csv(file, header, blocks) -> None:
    """Write ``header``, then the rows of each block in turn, to ``file``.

    A block is a list of columns, one per field: arrays, lists or scalars
    whose shapes broadcast together, its rows being the elements of the
    broadcast shape in C order.  A field is ``str`` of the column's Python
    value; for a float that is the shortest repr, which reads back to the
    same bits.  Each column is formatted once at its own shape, and a
    column that is the very object of one of the previous block keeps
    its text; only text is broadcast.  ``blocks`` may be a generator, so
    a file written a block at a time holds one block's text at a time.
    """
    with open(file, "w") as fh:
        fh.write(header + "\n")
        previous = {}
        for columns in blocks:
            # holding the previous block's columns keeps their ids unique
            texts = {id(c): previous.get(id(c)) or (c, _text(c)) for c in columns}
            fields = [texts[id(c)][1] for c in columns]
            # one row of fields per element of the broadcast shape
            table = np.empty(np.broadcast(*fields).shape + (len(fields),), dtype=object)
            for i, field in enumerate(fields):
                table[..., i] = field
            rows = table.reshape(-1, len(fields)).tolist()
            if rows:
                fh.write("\n".join(map(",".join, rows)) + "\n")
            previous = texts


def write_sweep_csv(cost: CostBreakdown, costs_list, a_list, Q_list, grid, file) -> None:
    """``sweep``'s breakdown, one row per (a, Q, costs, t) in that order;
    the shortage column is 0.0."""
    shape = (len(a_list), len(Q_list), len(costs_list), -1)
    o, h, tot = (np.reshape(x, shape) for x in (cost.ordering, cost.holding, cost.total))
    keys = [(c.c_h, c.c_o, c.c_so, c.ordering_mode.value) for c in costs_list]
    a, Q = np.reshape(a_list, (-1, 1, 1, 1)), np.reshape(Q_list, (-1, 1, 1))
    columns = [a, Q, *(np.reshape(k, (-1, 1)) for k in zip(*keys)), grid, o, h, 0.0, tot]
    write_csv(file, "a,Q,c_h,c_o,c_so,mode,t,ordering,holding,shortage,total", [columns])


def write_curve_csv(curve: CostCurve, policy: PolicyParams, costs: CostParams, file) -> None:
    write_sweep_csv(curve.cost, [costs], [policy.a], [policy.Q], curve.grid, file)


def write_table_csv(rows, file) -> None:
    columns = [[getattr(r, f.name) for r in rows] for f in dataclasses.fields(TableRow)]
    write_csv(file, "R,Q,C_h,C_o,C_so,mean_total,stderr_total,mean_orders,stockout_rate", [columns])


def save_trajectory_csv(traj: Trajectory, file) -> None:
    kinds = np.array(["jump", "order"])[traj.kinds]  # mc.KIND_JUMP, mc.KIND_ORDER
    write_csv(file, "t,kind,inventory", [[traj.times, kinds, traj.inventory_after]])


def save_summary_json(summary: SimSummary, file) -> None:
    with open(file, "w") as fh:
        json.dump(summary.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_expected_cost(cfg, out_dir):
    curve = cost_curve(cfg.process, cfg.policy, cfg.costs, cfg.grid, cfg.series)
    csv_file = out_dir / "expected_cost.csv"
    write_curve_csv(curve, cfg.policy, cfg.costs, csv_file)
    line_chart(
        out_dir / "expected_cost.svg",
        curve.grid,
        [
            ("total", curve.cost.total),
            ("ordering", curve.cost.ordering),
            ("holding", curve.cost.holding),
        ],
        title="Expected total cost over time",
        xlabel="t",
        ylabel="cost",
    )
    t_star, total_star = argmax_time(curve)
    print(f"argmax: t={t_star!r} total={total_star!r}")
    flagged = negative_inventory_times(curve)
    if flagged:
        print(
            f"warning: expected inventory is negative at {len(flagged)} grid "
            f"times starting t={flagged[0]!r} (the gamma first-passage "
            f"approximation undercounts orders: its rate alpha*lam ignores the drift mu)"
        )
    print(f"wrote {csv_file}")
    return 0


def cmd_sweep(cfg, out_dir):
    raw = cfg.raw["sweep"]
    a_list = raw["a_list"]
    q_list = raw["Q_list"]
    c = cfg.costs
    costs_list = [CostParams(c_o, c.c_h, c.c_so, c.ordering_mode) for c_o in raw["c_o_list"]]
    cost = sweep(cfg.process, costs_list, a_list, q_list, cfg.grid, cfg.series, x0=cfg.policy.x0)
    csv_file = out_dir / "sweep.csv"
    write_sweep_csv(cost, costs_list, a_list, q_list, cfg.grid, csv_file)
    # totals[i, j, k] is the curve of (a_list[i], q_list[j], costs_list[k]);
    # a repeated a or Q has equal curves, so its first index stands for it
    totals = cost.total.reshape(len(a_list), len(q_list), len(costs_list), -1)
    base_a, base_q = cfg.policy.a, cfg.policy.Q
    if base_a in a_list and base_q in q_list:
        line_chart(
            out_dir / "sweep_vary_co.svg",
            cfg.grid,
            [
                (f"c_o={c.c_o:g}", curve)
                for c, curve in zip(costs_list, totals[a_list.index(base_a), q_list.index(base_q)])
            ],
            title=f"Total cost, a={base_a:g} Q={base_q:g}, ordering cost varied",
            xlabel="t",
            ylabel="total cost",
        )
    if base_q in q_list:
        line_chart(
            out_dir / "sweep_vary_a.svg",
            cfg.grid,
            [(f"a={a:g}", curve) for a, curve in zip(a_list, totals[:, q_list.index(base_q), 0])],
            title=f"Total cost, Q={base_q:g} c_o={costs_list[0].c_o:g}, threshold varied",
            xlabel="t",
            ylabel="total cost",
        )
    if base_a in a_list:
        line_chart(
            out_dir / "sweep_vary_q.svg",
            cfg.grid,
            [(f"Q={q:g}", curve) for q, curve in zip(q_list, totals[a_list.index(base_a), :, 0])],
            title=f"Total cost, a={base_a:g} c_o={costs_list[0].c_o:g}, order quantity varied",
            xlabel="t",
            ylabel="total cost",
        )
    print(f"wrote {csv_file} ({cost.total.size} rows)")
    return 0


def cmd_simulate(cfg, out_dir):
    horizon = float(cfg.grid[-1])
    if not horizon > 0:
        raise ParameterError(
            f"simulate runs to the last grid time, which is {horizon:g}: "
            f"config key 'grid.t_end' must be positive"
        )
    # the batch first: a run beyond the jump budget stops before writing
    summary = mc_summary(
        cfg.process, cfg.policy, cfg.costs, horizon, cfg.n_paths, cfg.base_seed
    )
    traj = simulate(cfg.process, cfg.policy, horizon, cfg.base_seed)
    traj_file = out_dir / "trajectory.csv"
    save_trajectory_csv(traj, traj_file)
    summary_file = out_dir / "summary.json"
    save_summary_json(summary, summary_file)
    print(
        f"simulated {cfg.n_paths} paths to t={horizon:g}: mean total "
        f"{summary.mean_total:.4f} +- {summary.stderr_total:.4f}, "
        f"mean orders {summary.mean_orders:.4f}, "
        f"shortage fraction {summary.shortage_fraction:.6f}"
    )
    print(f"wrote {traj_file} and {summary_file}")
    return 0


def run_validation(cfg):
    """Exact closed form vs Monte Carlo at the configured times.

    The analytical side is ``cost.exact_moments``: E[R_t], E[X_t],
    E[int_0^t R] and the expected total cost as sums over the Poisson law
    of the monotone demand.  The gamma first-passage series is not
    compared here; ``fpt-diag`` reports its distance from the exact
    process.  A row passes when the two sides differ by at most 3
    standard errors of the Monte Carlo mean.  Returns a list of row
    dicts.
    """
    rows = []
    # one batch to the latest time; each time keeps the jumps before it
    stats = path_stats(cfg.process, cfg.policy, cfg.validate_times, cfg.n_paths, cfg.base_seed)
    costs = path_costs(cfg.costs, cfg.policy.Q, stats)
    exact = exact_moments(cfg.process, cfg.policy, cfg.costs, cfg.validate_times, cfg.series)
    quantities = {
        "expected_orders": (exact.orders, stats["orders"]),
        "expected_inventory": (exact.inventory, stats["inv_end"]),
        "integrated_orders": (exact.integrated_orders, stats["int_renewals"]),
    }
    for k, t in enumerate(cfg.validate_times):
        summaries = {name: (ana, sample_summary(mc[k])) for name, (ana, mc) in quantities.items()}
        # the sums of the costs are checked for overflow, as mc_summary checks them
        _, _, total = cost_summary(*(cost[k] for cost in costs))
        summaries["total_cost"] = (exact.cost.total, total)
        for name, (ana, (mc_mean, stderr)) in summaries.items():
            analytical = float(ana[k])
            limit = 3.0 * stderr
            diff = abs(analytical - mc_mean)
            rows.append(
                {
                    "quantity": name,
                    "t": t,
                    "analytical": analytical,
                    "mc_mean": mc_mean,
                    "mc_stderr": stderr,
                    "abs_diff": diff,
                    "limit": limit,
                    "status": "pass" if diff <= limit else "fail",
                }
            )
    return rows


def cmd_validate(cfg, out_dir):
    if cfg.n_paths < 2:
        raise ParameterError(
            f"validate needs at least 2 paths for a standard error, got {cfg.n_paths}"
        )
    if cfg.n_paths < 1000:
        print(
            f"warning: {cfg.n_paths} paths give little statistical power; "
            f"use at least 1000",
            file=sys.stderr,
        )
    rows = run_validation(cfg)
    csv_file = out_dir / "validation.csv"
    # slack is 0.0: nothing is ever short, so the total gets no shortage
    # allowance; the column stays for the file format
    header = "quantity,t,analytical,mc_mean,mc_stderr,slack,abs_diff,limit,status"
    columns = [0.0 if name == "slack" else [r[name] for r in rows] for name in header.split(",")]
    write_csv(csv_file, header, [columns])
    n_fail = 0
    for r in rows:
        print(
            f"{r['quantity']:>20} t={r['t']:<5g} analytical={r['analytical']:<12.4f} "
            f"mc={r['mc_mean']:<12.4f} stderr={r['mc_stderr']:.5f} "
            f"|diff|={r['abs_diff']:.4f} limit={r['limit']:.4f} -> {r['status'].upper()}"
        )
        if r["status"] == "fail":
            n_fail += 1
    print(f"wrote {csv_file}")
    if n_fail:
        print(f"{n_fail}/{len(rows)} comparisons FAILED at 3 standard errors")
        return 1
    print("all comparisons passed at 3 standard errors")
    return 0


def cmd_fpt_diag(cfg, out_dir):
    fpt_raw = cfg.raw["fpt"]
    grid = np.linspace(0.0, fpt_raw["t_end"], fpt_raw["steps"])
    diag_file = out_dir / "fpt_diag.csv"
    ks_file = out_dir / "fpt_ks.csv"
    # two independent batches, each sampled once for every threshold
    ns = np.arange(1, fpt_raw["n_values"] + 1)
    emp_a_all = fpt_empirical_cdf(cfg.process, cfg.policy, ns, grid, cfg.n_paths, cfg.base_seed)
    emp_b_all = fpt_empirical_cdf(
        cfg.process, cfg.policy, ns, grid, cfg.n_paths, cfg.base_seed + cfg.n_paths
    )
    # thresholds per incomplete-gamma call and per block of fpt_diag.csv:
    # one grid, or as many as fill a renewal-series chunk, which bounds
    # the working set
    per_call = max(1, _CHUNK_VALUES // grid.size)
    ks, chart_series = [], []

    def blocks():
        for lo in range(0, ns.size, per_call):
            block = slice(lo, lo + per_call)
            spec = fpt_gamma_spec(cfg.process, cfg.policy, ns[block, None])
            gcdf, lit = gamma_and_literal_cdfs(spec, grid)
            emp = emp_a_all[block]
            ks.extend(np.max(np.abs(gcdf - emp), axis=1).tolist())
            if lo == 0:  # the chart shows the first threshold
                names = ("gamma approx", "literal integrand", "empirical")
                chart_series.extend(zip(names, (gcdf[0], lit[0], emp[0])))
            yield [ns[block, None], spec.shape, spec.rate, grid, gcdf, lit, emp]

    write_csv(diag_file, "n,shape,rate,t,gamma_cdf,literal_integrand,empirical", blocks())
    ks_self = np.max(np.abs(emp_a_all - emp_b_all), axis=1).tolist()
    write_csv(ks_file, "n,ks_gamma_vs_empirical,ks_batch_self", [[ns, ks, ks_self]])
    for n, d, d_self in zip(ns.tolist(), ks, ks_self):
        print(
            f"n={n}: KS(gamma approx, empirical) = {d:.4f}; "
            f"KS between independent batches = {d_self:.4f}"
        )
    line_chart(
        out_dir / "fpt_diag.svg",
        grid,
        chart_series,
        title="First-passage CDF, first threshold",
        xlabel="t",
        ylabel="P(T < t)",
    )
    print(f"wrote {diag_file} and {ks_file}")
    return 0


def cmd_table1(cfg, out_dir):
    rows = run_table_experiment(cfg.experiment)
    csv_file = out_dir / "table1.csv"
    write_table_csv(rows, csv_file)
    print(f"wrote {csv_file} ({len(rows)} rows, {cfg.experiment.n_series} series each)")
    return 0


def cmd_compare(cfg, out_dir):
    periods, cum = cumulative_cost_profile(cfg.experiment)
    exp = cfg.experiment
    times = exp.period_length * np.arange(1, exp.n_sim_periods + 1)
    ana = cost_curve(cfg.process, exp.policy, exp.costs, times, cfg.series).cost.total
    csv_file = out_dir / "compare.csv"
    header = "period,t,analytical_total,forecast_sim_cum_cost"
    write_csv(csv_file, header, [[periods, times, ana, cum]])
    line_chart(
        out_dir / "compare.svg",
        times,
        [("closed form", ana), ("rolling-forecast simulation", cum)],
        title="Expected total cost vs rolling-forecast simulation",
        xlabel="elapsed time",
        ylabel="cumulative cost",
    )
    print(f"wrote {csv_file}")
    return 0


COMMANDS = {
    "expected-cost": cmd_expected_cost,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "fpt-diag": cmd_fpt_diag,
    "table1": cmd_table1,
    "compare": cmd_compare,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="driftinv",
        description="Reorder-point inventory analysis under drifted-Poisson demand",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument("--paths", type=int, default=None, help="override the MC path count")
    parser.add_argument(
        "--mode",
        choices=[m.value for m in OrderingMode],
        default=None,
        help="override the ordering-cost mode",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["mc"] = {"base_seed": args.seed}
        overrides["experiment"] = {"base_seed": args.seed}
    if args.paths is not None:
        overrides.setdefault("mc", {})["n_paths"] = args.paths
    if args.mode is not None:
        overrides.setdefault("costs", {})["ordering_mode"] = args.mode
        overrides.setdefault("experiment", {})["ordering_mode"] = args.mode
    try:
        cfg = load_config(args.config, overrides)
    except (ParameterError, OSError, KeyError, ValueError) as err:
        print(f"bad configuration: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"bad --out directory: {err}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, out_dir)
    except ParameterError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 2
    except SeriesNotConvergedError as err:
        print(
            f"{args.command} failed: series not converged at t={err.t} "
            f"after n={err.n_terms} terms (partial sum {err.partial_sum:.6g})",
            file=sys.stderr,
        )
        return 2
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
