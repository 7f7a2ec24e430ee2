"""Layer boundaries of driftinv and the per-layer metrics built from them.

Each boundary names a function as its calling module sees it.  The
hooks of ``BOUNDARIES`` count work from arguments and results only; they
read nothing private and never change a value the program sees.
Counting quadrature integrand evaluations means wrapping the integrand,
which would add its cost to the quadrature's self time, so that hook is
in ``COUNTING`` and runs in a pass of its own that times nothing.
"""

import numpy as np

from spans import Boundary


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _batch_jumps(counters_prefix=None):
    def after(tr, args, kwargs, result):
        n = int(_arg(args, kwargs, 3, "n_paths"))
        jumps = int(np.asarray(result[0]).size)
        tr.counters["demand.generators"] += n
        tr.counters["demand.jumps"] += jumps
        if counters_prefix:
            tr.counters[counters_prefix + ".jumps"] += jumps

    return after


def _sample_path(counters_prefix=None):
    def after(tr, args, kwargs, result):
        jumps = int(result.jump_times.size)
        tr.counters["demand.generators"] += 1
        tr.counters["demand.jumps"] += jumps
        if counters_prefix:
            tr.counters[counters_prefix + ".jumps"] += jumps

    return after


def _path_stats(tr, args, kwargs, result):
    tr.counters["mc.paths"] += int(_arg(args, kwargs, 3, "n_paths"))
    tr.counters["mc.orders"] += int(np.sum(result["orders"]))


def _simulate(tr, args, kwargs, result):
    tr.counters["mc.paths"] += 1
    tr.counters["mc.orders"] += int(result.n_orders)


def _renewal_series(tr, args, kwargs, result):
    n_terms = int(result[2])
    n_max = int(_arg(args, kwargs, 5, "n_max"))
    tr.counters["renewal.series_terms"] += n_terms
    tr.counters["renewal.max_terms_share"] = max(
        tr.counters["renewal.max_terms_share"], n_terms / n_max
    )


def _count_integrand(tr, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    counters = tr.counters

    def counted(s):
        counters["quadrature.integrand_evals"] += 1
        return f(s)

    if "f" in kwargs:
        return args, dict(kwargs, f=counted)
    return (counted,) + tuple(args[1:]), kwargs


def _forecast_window(tr, args, kwargs, result):
    w = np.asarray(_arg(args, kwargs, 0, "w"))
    if result <= 0.0 or result >= w.max():
        tr.counters["forecast.fit.clamped"] += 1


def _fit_candidate(tr, args, kwargs, result):
    if result[0]:
        tr.counters["forecast.fit.candidates_ok"] += 1


def _generate(tr, args, kwargs, result):
    tr.seen.add(("experiment config", repr(_arg(args, kwargs, 0, "cfg"))))


QUADRATURE = "driftinv.renewal.adaptive_simpson"
B = Boundary
BOUNDARIES = [
    B("cli", "driftinv.cli.main"),
    B("config", "driftinv.cli.load_config"),
    # demand: jump-time sampling and per-period increments
    B("demand", "driftinv.mc.batch_jump_times", after=_batch_jumps("mc")),
    B("demand", "driftinv.mc.sample_path", after=_sample_path("mc")),
    B("demand", "driftinv.renewal.batch_jump_times", after=_batch_jumps()),
    B("demand", "driftinv.forecast.sample_path", after=_sample_path()),
    B("demand", "driftinv.forecast.period_increments"),
    # mc: the event kernel and its path functionals
    B("mc", "driftinv.cli.simulate", after=_simulate),
    B("mc", "driftinv.cli.mc_summary"),
    B("mc", "driftinv.cli.path_stats", after=_path_stats),
    B("mc", "driftinv.mc.path_stats", after=_path_stats),
    B("mc", "driftinv.mc.batch_stats"),
    # renewal: the gamma-approximation series and the empirical CDFs
    B("renewal", "driftinv.cli.expected_renewals"),
    B("renewal", "driftinv.cli.expected_integrated_renewals"),
    B("renewal", "driftinv.cli.gamma_cdf"),
    B("renewal", "driftinv.cost.expected_renewals"),
    B("renewal", "driftinv.cost.expected_integrated_renewals"),
    B("renewal", "driftinv.renewal.renewal_series", after=_renewal_series),
    B("renewal.fpt", "driftinv.cli.fpt_empirical_cdf"),
    B("renewal.fpt", "driftinv.renewal.first_passage_times"),
    B("gammainc", "driftinv.renewal.reg_lower_gamma"),
    B("quadrature", "driftinv.cli.literal_integrand_cdf"),
    B("quadrature", QUADRATURE),
    # cost: closed-form expectations and curves
    B("cost", "driftinv.cli.cost_curve"),
    B("cost", "driftinv.cli.sweep"),
    B("cost", "driftinv.cli.expected_total_cost"),
    B("cost", "driftinv.cli.expected_inventory"),
    B("cost", "driftinv.cli.negative_inventory_times"),
    B("cost", "driftinv.cost.expected_total_cost"),
    B("cost", "driftinv.cost.expected_inventory"),
    # forecast: ARIMA fit, experiment build, Croston, discrete replay
    B("forecast.fit", "driftinv.forecast.rolling_forecast"),
    B("forecast.fit", "driftinv.forecast.forecast_window", after=_forecast_window),
    B("forecast.fit", "driftinv.forecast.fit_candidate", after=_fit_candidate),
    B("forecast.generate", "driftinv.forecast._experiment_arrays"),
    B("forecast.generate", "driftinv.forecast.generate_demand_series", after=_generate),
    B("forecast.generate", "driftinv.forecast.experiment_forecasts"),
    B("forecast.croston", "driftinv.forecast.croston_forecast"),
    B("forecast.replay", "driftinv.cli.run_table_experiment"),
    B("forecast.replay", "driftinv.cli.cumulative_cost_profile"),
    B("forecast.replay", "driftinv.forecast.discrete_sim"),
    # io: file writers and charts
    B("io", "driftinv.cli.line_chart"),
    B("io", "driftinv.cli.write_curve_csv"),
    B("io", "driftinv.cli.write_sweep_csv"),
    B("io", "driftinv.cli.save_trajectory_csv"),
    B("io", "driftinv.cli.save_summary_json"),
    B("io", "driftinv.cli.write_table_csv"),
]
COUNTING = [B("quadrature", QUADRATURE, before=_count_integrand)]


def _targets(layer):
    return [b.target for b in BOUNDARIES if b.layer == layer]


def layer_metrics(tr, cycles, traced_wall_s, untraced_wall_s, io_bytes, io_files,
                  integrand_evals):
    """Per-layer metrics per workload cycle from one tracer, in the order
    they are printed.

    Times and counts are totals divided by ``cycles``; ratios and the
    headroom are taken over the whole run.  ``integrand_evals`` comes
    from one ``COUNTING`` pass over a cycle.
    """
    c = tr.counters

    def per(x):
        return x / cycles

    def self_s(layer):
        return per(tr.self_time(_targets(layer)))

    series_calls = tr.calls(["driftinv.renewal.renewal_series"])
    points = tr.calls(["driftinv.cost.expected_total_cost", "driftinv.cli.expected_total_cost"])
    tried = tr.calls(["driftinv.forecast.fit_candidate"])
    # distinct configs of one cycle: every traced cycle repeats cycle 0
    configs = sum(1 for label, _ in tr.seen if label == "experiment config")
    builds = tr.calls(["driftinv.forecast.generate_demand_series"])
    cli_self = tr.self_time(_targets("cli"))
    return {
        "demand.self_s": self_s("demand"),
        "demand.generators": per(c["demand.generators"]),
        "demand.jumps": per(c["demand.jumps"]),
        "mc.self_s": self_s("mc"),
        "mc.paths": per(c["mc.paths"]),
        "mc.events": per(c["mc.jumps"] + c["mc.orders"]),
        "renewal.self_s": self_s("renewal"),
        "renewal.series_calls": per(series_calls),
        "renewal.series_terms": per(c["renewal.series_terms"]),
        "renewal.terms_headroom": float(c["renewal.max_terms_share"]),
        "renewal.series_per_point": series_calls / points if points else 0.0,
        "renewal.fpt_self_s": self_s("renewal.fpt"),
        "gammainc.evals": per(tr.calls(_targets("gammainc"))),
        "gammainc.self_s": self_s("gammainc"),
        "quadrature.calls": per(tr.calls([QUADRATURE])),
        "quadrature.integrand_evals": float(integrand_evals),
        "quadrature.self_s": self_s("quadrature"),
        "cost.points": per(points),
        "cost.self_s": self_s("cost"),
        "forecast.fit.self_s": self_s("forecast.fit"),
        "forecast.fit.windows": per(tr.calls(["driftinv.forecast.forecast_window"])),
        "forecast.fit.candidates_tried": per(tried),
        "forecast.fit.candidates_ok_ratio": c["forecast.fit.candidates_ok"] / tried if tried else 0.0,
        "forecast.fit.clamped": per(c["forecast.fit.clamped"]),
        "forecast.generate.self_s": self_s("forecast.generate"),
        "forecast.experiment_builds": per(builds) / configs if configs else 0.0,
        "forecast.replay.self_s": self_s("forecast.replay"),
        "forecast.replay.sims": per(tr.calls(["driftinv.forecast.discrete_sim"])),
        "forecast.croston.self_s": self_s("forecast.croston"),
        "cli.self_s": per(cli_self),
        "config.self_s": self_s("config"),
        "io.self_s": self_s("io"),
        "io.bytes": per(io_bytes),
        "io.files": per(io_files),
        "trace.overhead_s": per(traced_wall_s - untraced_wall_s),
        "trace.coverage": (tr.root_s - cli_self) / traced_wall_s if traced_wall_s > 0 else 0.0,
        "trace.missing_boundaries": float(len(tr.missing)),
    }
