"""Command-line interface.

Subcommands: expected-cost, sweep, simulate, validate, fpt-diag,
table1, compare.  Each is deterministic given its config (seeds live in
the config), writes CSV as the canonical output and SVG as convenience.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .cost import (
    argmax_time,
    cost_curve,
    exact_moments,
    expected_inventory,  # noqa: F401 -- a name perfbench/layers.py traces in this module
    expected_total_cost,
    negative_inventory_times,
    sweep,
    write_curve_csv,
    write_sweep_csv,
)
from .errors import ParameterError, SeriesNotConvergedError
from .forecast import (
    cumulative_cost_profile,
    run_table_experiment,
    write_table_csv,
)
from .mc import (
    mc_summary,
    path_costs,
    path_stats,
    save_summary_json,
    save_trajectory_csv,
    simulate,
)
from .params import OrderingMode
from .renewal import (  # the two gamma-series names: see expected_inventory above
    expected_integrated_renewals,  # noqa: F401
    expected_renewals,  # noqa: F401
    fpt_empirical_cdf,
    fpt_gamma_spec,
    gamma_cdf,
    literal_integrand_cdf,
)
from .svg import line_chart


def cmd_expected_cost(cfg, out_dir):
    curve = cost_curve(cfg.process, cfg.policy, cfg.costs, cfg.grid, cfg.series)
    csv_file = out_dir / "expected_cost.csv"
    write_curve_csv(curve, cfg.policy, cfg.costs, csv_file)
    line_chart(
        out_dir / "expected_cost.svg",
        curve.grid,
        [
            ("total", curve.totals()),
            ("ordering", [p.ordering for p in curve.points]),
            ("holding", [p.holding for p in curve.points]),
        ],
        title="Expected total cost over time",
        xlabel="t",
        ylabel="cost",
    )
    t_star, total_star = argmax_time(curve)
    print(f"argmax: t={t_star!r} total={total_star!r}")
    flagged = negative_inventory_times(cfg.process, cfg.policy, curve)
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
    costs_list = [dataclasses.replace(cfg.costs, c_o=c_o) for c_o in raw["c_o_list"]]
    rows = sweep(cfg.process, costs_list, a_list, q_list, cfg.grid, cfg.series, x0=cfg.policy.x0)
    csv_file = out_dir / "sweep.csv"
    write_sweep_csv(rows, csv_file)

    def curve_for(a, Q, costs):
        return [
            bd.total
            for (ra, rq, rc, _, bd) in rows
            if ra == a and rq == Q and rc is costs
        ]

    base_a, base_q = cfg.policy.a, cfg.policy.Q
    if base_a in a_list and base_q in q_list:
        line_chart(
            out_dir / "sweep_vary_co.svg",
            cfg.grid,
            [(f"c_o={c.c_o:g}", curve_for(base_a, base_q, c)) for c in costs_list],
            title=f"Total cost, a={base_a:g} Q={base_q:g}, ordering cost varied",
            xlabel="t",
            ylabel="total cost",
        )
    if base_q in q_list:
        line_chart(
            out_dir / "sweep_vary_a.svg",
            cfg.grid,
            [(f"a={a:g}", curve_for(a, base_q, costs_list[0])) for a in a_list],
            title=f"Total cost, Q={base_q:g} c_o={costs_list[0].c_o:g}, threshold varied",
            xlabel="t",
            ylabel="total cost",
        )
    if base_a in a_list:
        line_chart(
            out_dir / "sweep_vary_q.svg",
            cfg.grid,
            [(f"Q={q:g}", curve_for(base_a, q, costs_list[0])) for q in q_list],
            title=f"Total cost, a={base_a:g} c_o={costs_list[0].c_o:g}, order quantity varied",
            xlabel="t",
            ylabel="total cost",
        )
    print(f"wrote {csv_file} ({len(rows)} rows)")
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
    process.  Returns a list of row dicts.
    """
    rows = []
    # one batch to the latest time; each time keeps the jumps before it
    stats = path_stats(cfg.process, cfg.policy, cfg.validate_times, cfg.n_paths, cfg.base_seed)
    _, _, shortage, total = path_costs(cfg.costs, cfg.policy.Q, stats)
    for k, t in enumerate(cfg.validate_times):
        mean_shortage = float(np.mean(shortage[k]))
        slack = mean_shortage * (
            1.0 + (cfg.costs.c_h / cfg.costs.c_so if cfg.costs.c_so > 0 else 0.0)
        )
        exact = exact_moments(cfg.process, cfg.policy, cfg.costs, t, cfg.series)
        ana = {
            "expected_orders": exact.orders,
            "expected_inventory": exact.inventory,
            "integrated_orders": exact.integrated_orders,
            "total_cost": exact.cost.total,
        }
        mc = {
            "expected_orders": stats["orders"][k],
            "expected_inventory": stats["inv_end"][k],
            "integrated_orders": stats["int_renewals"][k],
            "total_cost": total[k],
        }
        for name in ("expected_orders", "expected_inventory", "integrated_orders", "total_cost"):
            sample = mc[name]
            mc_mean = float(np.mean(sample))
            stderr = float(np.std(sample, ddof=1) / np.sqrt(sample.size))
            extra = slack if name == "total_cost" else 0.0
            limit = 3.0 * stderr + extra
            diff = abs(ana[name] - mc_mean)
            rows.append(
                {
                    "quantity": name,
                    "t": t,
                    "analytical": float(ana[name]),
                    "mc_mean": mc_mean,
                    "mc_stderr": stderr,
                    "slack": extra,
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
    with open(csv_file, "w") as fh:
        fh.write("quantity,t,analytical,mc_mean,mc_stderr,slack,abs_diff,limit,status\n")
        for r in rows:
            fh.write(
                f"{r['quantity']},{r['t']!r},{r['analytical']!r},{r['mc_mean']!r},"
                f"{r['mc_stderr']!r},{r['slack']!r},{r['abs_diff']!r},{r['limit']!r},"
                f"{r['status']}\n"
            )
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
    ns = list(range(1, fpt_raw["n_values"] + 1))
    emp_a_all = fpt_empirical_cdf(cfg.process, cfg.policy, ns, grid, cfg.n_paths, cfg.base_seed)
    emp_b_all = fpt_empirical_cdf(
        cfg.process, cfg.policy, ns, grid, cfg.n_paths, cfg.base_seed + cfg.n_paths
    )
    chart_series = []
    with open(diag_file, "w") as fh, open(ks_file, "w") as kh:
        fh.write("n,shape,rate,t,gamma_cdf,literal_integrand,empirical\n")
        kh.write("n,ks_gamma_vs_empirical,ks_batch_self\n")
        for n, emp_a, emp_b in zip(ns, emp_a_all, emp_b_all):
            spec = fpt_gamma_spec(cfg.process, cfg.policy, n)
            gcdf = np.array([gamma_cdf(spec, t) for t in grid])
            lit = np.array([literal_integrand_cdf(spec, t) for t in grid])
            ks = float(np.max(np.abs(gcdf - emp_a)))
            ks_self = float(np.max(np.abs(emp_a - emp_b)))
            kh.write(f"{n},{ks!r},{ks_self!r}\n")
            print(
                f"n={n}: KS(gamma approx, empirical) = {ks:.4f}; "
                f"KS between independent batches = {ks_self:.4f}"
            )
            for t, g, l, e in zip(grid.tolist(), gcdf.tolist(), lit.tolist(), emp_a.tolist()):
                fh.write(f"{n},{spec.shape!r},{spec.rate!r},{t!r},{g!r},{l!r},{e!r}\n")
            if n == 1:
                chart_series = [
                    ("gamma approx", gcdf),
                    ("literal integrand", lit),
                    ("empirical", emp_a),
                ]
    if chart_series:
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
    ana = [
        expected_total_cost(cfg.process, exp.policy, exp.costs, float(t), cfg.series).total
        for t in times
    ]
    csv_file = out_dir / "compare.csv"
    with open(csv_file, "w") as fh:
        fh.write("period,t,analytical_total,forecast_sim_cum_cost\n")
        for p, t, a, c in zip(periods, times, ana, cum.tolist()):
            fh.write(f"{int(p)},{float(t)!r},{a!r},{c!r}\n")
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--paths", type=int, default=None, help="override the MC path count")
        p.add_argument(
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


if __name__ == "__main__":
    sys.exit(main())
