"""Closed-form cost engine: breakdowns, curves, sweeps."""

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from driftinv import (
    CostParams,
    OrderingMode,
    ParameterError,
    PolicyParams,
    ProcessParams,
    RenewalSeriesConfig,
    SeriesNotConvergedError,
    argmax_time,
    cost_curve,
    exact_moments,
    expected_inventory,
    expected_renewals,
    expected_total_cost,
    long_run_rate,
    sweep,
)
import driftinv.renewal
from driftinv.cli import cmd_expected_cost
from driftinv.config import load_config
from driftinv.cost import CostBreakdown, CostCurve, negative_inventory_times, write_sweep_csv

from conftest import exact_expected_orders

# (process, policy) pairs: the reference, a high-intensity process with
# the same mean rate and thresholds off the jump lattice, and a
# jump-dominated one with a small order quantity
EXACT_CASES = [
    (ProcessParams(mu=5.0, alpha=10.0, lam=1.0), PolicyParams(x0=100.0, a=50.0, Q=50.0)),
    (ProcessParams(mu=5.0, alpha=2.5, lam=4.0), PolicyParams(x0=100.0, a=49.3, Q=51.7)),
    (ProcessParams(mu=0.3, alpha=7.0, lam=2.2), PolicyParams(x0=30.0, a=12.0, Q=9.0)),
]


def test_policy_validation():
    with pytest.raises(ParameterError):
        PolicyParams(x0=0.0, a=1.0, Q=1.0)
    with pytest.raises(ParameterError):
        PolicyParams(x0=100.0, a=0.0, Q=1.0)
    with pytest.raises(ParameterError):
        PolicyParams(x0=100.0, a=150.0, Q=1.0)
    with pytest.raises(ParameterError):
        PolicyParams(x0=100.0, a=50.0, Q=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "record, fields",
    [
        (ProcessParams, dict(mu=5.0, alpha=10.0, lam=1.0)),
        (PolicyParams, dict(x0=100.0, a=50.0, Q=50.0)),
        (CostParams, dict(c_o=5.0, c_h=1.0, c_so=10.0)),
    ],
)
def test_parameter_records_refuse_non_finite(record, fields, bad):
    for name in fields:
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            record(**dict(fields, **{name: bad}))


def test_cost_params_soft_warning():
    with pytest.warns(UserWarning):
        CostParams(c_o=5.0, c_h=6.0, c_so=10.0)
    with pytest.raises(ParameterError):
        CostParams(c_o=-1.0, c_h=1.0, c_so=1.0)


def test_inventory_at_zero(ref_process, ref_policy, series_cfg):
    assert expected_inventory(ref_process, ref_policy, 0.0, series_cfg) == 100.0


def test_inventory_early_linear(ref_process, ref_policy, series_cfg):
    # before the first threshold is plausibly reachable, E[X_t] ~ 100 - 15 t
    t = 0.2
    got = expected_inventory(ref_process, ref_policy, t, series_cfg)
    assert got == pytest.approx(100.0 - 15.0 * t, abs=0.01)


def test_total_cost_at_zero(ref_process, ref_policy, ref_costs, series_cfg):
    bd = expected_total_cost(ref_process, ref_policy, ref_costs, 0.0, series_cfg)
    assert (bd.ordering, bd.holding, bd.shortage, bd.total) == (0.0, 0.0, 0.0, 0.0)


def test_only_ordering_when_holding_free(ref_process, ref_policy, series_cfg):
    costs = CostParams(c_o=5.0, c_h=0.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    t = 4.0
    bd = expected_total_cost(ref_process, ref_policy, costs, t, series_cfg)
    want = 5.0 * expected_renewals(ref_process, ref_policy, t, series_cfg)
    assert bd.total == pytest.approx(want, rel=1e-12)
    assert bd.holding == 0.0 and bd.shortage == 0.0


def test_component_identity(ref_process, ref_policy, ref_costs, series_cfg):
    for t in np.linspace(0.0, 10.0, 21):
        bd = expected_total_cost(ref_process, ref_policy, ref_costs, float(t), series_cfg)
        assert bd.total == bd.ordering + bd.holding + bd.shortage
        assert bd.shortage == 0.0


def test_ordering_mode_relation(ref_process, ref_policy, series_cfg):
    per_unit = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_UNIT_TIMES_Q)
    per_order = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    t = 6.0
    a = expected_total_cost(ref_process, ref_policy, per_unit, t, series_cfg)
    b = expected_total_cost(ref_process, ref_policy, per_order, t, series_cfg)
    assert a.ordering == ref_policy.Q * b.ordering
    assert a.holding == b.holding


def test_holding_decomposition(ref_process, ref_policy, ref_costs, series_cfg):
    # holding == c_h * integral of expected inventory over [0, t]
    t = 8.0
    bd = expected_total_cost(ref_process, ref_policy, ref_costs, t, series_cfg)
    want, _ = scipy.integrate.quad(
        lambda s: expected_inventory(ref_process, ref_policy, s, series_cfg),
        0.0,
        t,
        limit=200,
    )
    assert bd.holding == pytest.approx(ref_costs.c_h * want, abs=1e-6)


def test_curve_single_zero_point(ref_process, ref_policy, ref_costs, series_cfg):
    curve = cost_curve(ref_process, ref_policy, ref_costs, [0.0], series_cfg)
    assert curve.points[0].total == 0.0
    assert argmax_time(curve) == (0.0, 0.0)


def test_curve_continuity(ref_process, ref_policy, ref_costs, series_cfg):
    grid = np.linspace(0.0, 10.0, 201)
    curve = cost_curve(ref_process, ref_policy, ref_costs, grid, series_cfg)
    dt = grid[1] - grid[0]
    diffs = np.abs(np.diff(curve.totals()))
    # slope bound: C_o Q sum of densities + C_h (x + Q E[R_t]) stays
    # modest on this range; 2000 is a generous envelope
    assert np.max(diffs) <= 2000.0 * dt


def test_curve_grid_validation(ref_process, ref_policy, ref_costs, series_cfg):
    with pytest.raises(ParameterError):
        cost_curve(ref_process, ref_policy, ref_costs, [0.0, 0.0, 1.0], series_cfg)


def test_default_curve_is_increasing_argmax_at_end(
    ref_process, ref_policy, ref_costs, series_cfg
):
    # with the corrected CDF and tail-tolerance truncation the renewal
    # series keeps saturating, so the curve rises on the whole grid and
    # the argmax is the last grid point
    grid = np.linspace(0.0, 12.0, 121)
    curve = cost_curve(ref_process, ref_policy, ref_costs, grid, series_cfg)
    totals = curve.totals()
    assert np.all(np.diff(totals) > 0)
    t_star, total_star = argmax_time(curve)
    assert t_star == grid[-1]
    assert total_star == totals[-1]


def test_argmax_tie_breaks_to_earliest():
    flat = CostCurve(
        grid=np.array([0.0, 1.0, 2.0]),
        points=[CostBreakdown(0.0, 5.0, 0.0, 5.0, t) for t in (0.0, 1.0, 2.0)],
    )
    assert argmax_time(flat) == (0.0, 5.0)


def test_argmax_single_and_empty():
    single = CostCurve(grid=np.array([3.0]), points=[CostBreakdown(1.0, 2.0, 0.0, 3.0, 3.0)])
    assert argmax_time(single) == (3.0, 3.0)
    empty = CostCurve(grid=np.array([]), points=[])
    with pytest.raises(ParameterError):
        argmax_time(empty)


def test_negative_inventory_flagging(series_cfg):
    # drift-dominated process: expected inventory goes negative past x0/mu
    p = ProcessParams(mu=100.0, alpha=0.001, lam=0.001)
    pol = PolicyParams(x0=100.0, a=50.0, Q=10.0)
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0)
    curve = cost_curve(p, pol, costs, [0.5, 0.9, 1.5, 3.0], series_cfg)
    flagged = negative_inventory_times(p, pol, curve)
    assert flagged == [1.5, 3.0]
    # nothing to flag with the reference setup
    ref_p = ProcessParams(mu=5.0, alpha=10.0, lam=1.0)
    ref_pol = PolicyParams(x0=100.0, a=50.0, Q=50.0)
    ref_curve = cost_curve(ref_p, ref_pol, costs, np.linspace(0, 12, 25), series_cfg)
    assert negative_inventory_times(ref_p, ref_pol, ref_curve) == []


def test_curve_orders_are_expected_renewals(ref_process, ref_policy, ref_costs, series_cfg):
    grid = np.linspace(0.0, 12.0, 13)
    curve = cost_curve(ref_process, ref_policy, ref_costs, grid, series_cfg)
    want = [expected_renewals(ref_process, ref_policy, float(t), series_cfg) for t in grid]
    assert curve.orders.tolist() == want
    # a hand-built curve has no order counts to flag from
    bare = CostCurve(grid=curve.grid, points=curve.points)
    with pytest.raises(ParameterError):
        negative_inventory_times(ref_process, ref_policy, bare)
    with pytest.raises(ParameterError):
        CostCurve(grid=curve.grid, points=curve.points, orders=want[:-1])


def test_sweep_singletons_match_single_eval(ref_process, ref_policy, ref_costs, series_cfg):
    rows = sweep(
        ref_process, [ref_costs], [ref_policy.a], [ref_policy.Q], [4.0], series_cfg,
        x0=ref_policy.x0,
    )
    assert len(rows) == 1
    a, Q, costs, t, bd = rows[0]
    want = expected_total_cost(ref_process, ref_policy, ref_costs, 4.0, series_cfg)
    assert bd == want


def test_sweep_monotone_in_ordering_cost(ref_process, ref_policy, series_cfg):
    costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0) for c in (5.0, 7.5, 10.0)]
    rows = sweep(ref_process, costs_list, [50.0], [50.0], [6.0], series_cfg)
    totals = [bd.total for (_, _, _, _, bd) in rows]
    assert totals == sorted(totals)


def test_sweep_ordering_component_falls_with_a(ref_process, series_cfg):
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0)
    rows = sweep(ref_process, [costs], [40.0, 50.0, 60.0], [50.0], [6.0], series_cfg)
    ordering = [bd.ordering for (_, _, _, _, bd) in rows]
    assert ordering[0] >= ordering[1] >= ordering[2]


def test_sweep_row_order_and_csv(tmp_path, ref_process, series_cfg):
    costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0) for c in (5.0, 10.0)]
    rows = sweep(ref_process, costs_list, [40.0, 50.0], [50.0, 60.0], [2.0, 4.0], series_cfg)
    keys = [(a, Q, costs.c_o, t) for (a, Q, costs, t, _) in rows]
    assert keys == sorted(keys)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,Q,c_h,c_o,c_so,mode,t,ordering,holding,shortage,total"
    assert len(lines) == 1 + len(rows)


@pytest.mark.parametrize("mode", list(OrderingMode))
def test_sweep_rows_equal_pointwise_cost(ref_process, series_cfg, mode):
    # one series per (a, Q, t) shared by every costs entry must give the
    # same bits as a full evaluation per row
    costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0, ordering_mode=mode) for c in (2.5, 7.0)]
    a_list, q_list, grid = [40.0, 55.5], [45.0, 60.0], [0.0, 1.7, 6.0]
    rows = sweep(ref_process, costs_list, a_list, q_list, grid, series_cfg, x0=100.0)
    assert len(rows) == len(a_list) * len(q_list) * len(costs_list) * len(grid)
    keys = [(a, Q, c, t) for a in a_list for Q in q_list for c in costs_list for t in grid]
    assert [(a, Q, c, t) for (a, Q, c, t, _) in rows] == keys
    for a, Q, costs, t, bd in rows:
        policy = PolicyParams(x0=100.0, a=a, Q=Q)
        assert bd == expected_total_cost(ref_process, policy, costs, t, series_cfg)


@pytest.fixture()
def series_calls(monkeypatch):
    """Counts the renewal series summed while a test runs."""
    calls = []
    original = driftinv.renewal.renewal_series

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(driftinv.renewal, "renewal_series", counted)
    return calls


def test_sweep_sums_one_series_per_a_q_t(ref_process, series_cfg, series_calls):
    costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0) for c in (5.0, 7.5, 10.0)]
    a_list, q_list, grid = [40.0, 50.0, 60.0], [50.0, 60.0], np.linspace(0.0, 6.0, 7)
    sweep(ref_process, costs_list, a_list, q_list, grid, series_cfg)
    assert len(series_calls) == len(a_list) * len(q_list) * grid.size


def test_expected_cost_sums_one_series_per_grid_time(tmp_path, series_calls):
    cfg = load_config(overrides={"grid": {"t_start": 0.0, "t_end": 6.0, "steps": 13}})
    assert cmd_expected_cost(cfg, tmp_path) == 0
    assert len(series_calls) == cfg.grid.size


def test_sweep_empty_lists_rejected(ref_process, ref_costs, series_cfg):
    with pytest.raises(ParameterError):
        sweep(ref_process, [], [50.0], [50.0], [1.0], series_cfg)


def test_super_linear_early_window(ref_process, ref_policy, ref_costs, series_cfg):
    for t in (1.0, 3.0, 5.0):
        small = expected_total_cost(ref_process, ref_policy, ref_costs, t, series_cfg).total
        large = expected_total_cost(ref_process, ref_policy, ref_costs, 2 * t, series_cfg).total
        assert large > 2 * small


def _integrated_orders_double_sum(process, policy, t, kmax=200, nmax=200):
    """sum_n sum_k (P(k+1, lam t) - P(k+1, lam s_k)) / lam over every k
    with s_k = max((L_n - alpha k)/mu, 0) < t, using scipy's gammainc."""
    ks = np.arange(kmax)
    x = process.lam * t
    total = 0.0
    for n in range(1, nmax + 1):
        s_k = np.maximum((policy.threshold(n) - process.alpha * ks) / process.mu, 0.0)
        terms = scipy.special.gammainc(ks + 1, x) - scipy.special.gammainc(ks + 1, process.lam * s_k)
        total += float(terms[s_k < t].sum()) / process.lam
    return total


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
@pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 5.0, 10.0, 13.3])
def test_exact_moments_match_poisson_law(case, t, ref_costs, series_cfg):
    process, policy = EXACT_CASES[case]
    m = exact_moments(process, policy, ref_costs, t, series_cfg)
    want_orders = exact_expected_orders(process, policy, t)
    assert m.orders == pytest.approx(want_orders, rel=1e-9, abs=1e-11)
    want_int = _integrated_orders_double_sum(process, policy, t)
    assert m.integrated_orders == pytest.approx(want_int, rel=1e-9, abs=1e-11)
    assert m.inventory == pytest.approx(
        policy.x0 - process.demand_rate * t + policy.Q * want_orders, rel=1e-12
    )


def test_exact_drift_only_limit(ref_costs, series_cfg):
    # with almost no jumps demand is 5t: orders at t = 10, 20, 30, so by
    # t = 30 three orders and int_0^30 R = 20 + 10 + 0; each jump brings
    # each order forward by at most 2, and E[N_30] = 30 lam
    process = ProcessParams(mu=5.0, alpha=10.0, lam=1e-9)
    policy = PolicyParams(x0=100.0, a=50.0, Q=50.0)
    m = exact_moments(process, policy, ref_costs, 30.0, series_cfg)
    assert m.orders == 3.0
    assert 30.0 <= m.integrated_orders <= 30.0 + 3 * 2.0 * 30 * process.lam


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_exact_inventory_bounds_and_no_shortage(case, ref_costs, series_cfg):
    # X_t = x0 - D_t in (x0 - a, x0] before D_t reaches a and lies in
    # (x0 - a, x0 - a + Q] after, so its mean does too and nothing is short
    process, policy = EXACT_CASES[case]
    lo = policy.x0 - policy.a
    hi = max(policy.x0, policy.x0 - policy.a + policy.Q)
    for t in np.linspace(0.0, 15.0, 31):
        m = exact_moments(process, policy, ref_costs, float(t), series_cfg)
        assert lo < m.inventory <= hi
        assert m.cost.shortage == 0.0
        assert m.cost.total == m.cost.ordering + m.cost.holding


def test_exact_holding_decomposition(ref_process, ref_policy, ref_costs, series_cfg):
    # holding == c_h * integral of the exact E[X_s] over [0, t]
    t = 8.0
    m = exact_moments(ref_process, ref_policy, ref_costs, t, series_cfg)
    want, _ = scipy.integrate.quad(
        lambda s: exact_moments(ref_process, ref_policy, ref_costs, s, series_cfg).inventory,
        0.0,
        t,
        points=[2.0, 4.0, 6.0],
        limit=400,
    )
    assert m.cost.holding == pytest.approx(ref_costs.c_h * want, rel=1e-7)


def test_exact_form_independent_of_time_unit(ref_process, ref_policy, ref_costs, series_cfg):
    # the same process in half time units: rates halve, times double;
    # order counts agree and time integrals double
    half = ProcessParams(mu=ref_process.mu / 2, alpha=ref_process.alpha, lam=ref_process.lam / 2)
    for t in (2.0, 5.0, 10.0):
        a = exact_moments(ref_process, ref_policy, ref_costs, t, series_cfg)
        b = exact_moments(half, ref_policy, ref_costs, 2 * t, series_cfg)
        assert b.orders == pytest.approx(a.orders, rel=1e-12)
        assert b.integrated_orders == pytest.approx(2 * a.integrated_orders, rel=1e-12)
        assert b.inventory == pytest.approx(a.inventory, rel=1e-12)


def test_exact_cost_rate_tends_to_long_run_rate(ref_process, ref_policy, ref_costs, series_cfg):
    # renewal-reward rate 250*15/50 + 1*(50 + 25) = 150 at the defaults;
    # total/t approaches it from below and total(2t)/total(t) tends to 2
    rate = long_run_rate(ref_process, ref_policy, ref_costs)
    assert rate == 150.0
    total = {
        t: exact_moments(ref_process, ref_policy, ref_costs, t, series_cfg).cost.total
        for t in (10.0, 20.0, 40.0, 80.0, 160.0)
    }
    gaps = [abs(total[t] / t - rate) for t in sorted(total)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 0.01 * rate
    ratios = [total[2 * t] / total[t] - 2.0 for t in (10.0, 20.0, 40.0, 80.0)]
    assert all(r > 0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 0.01


def test_exact_series_cap(ref_process, ref_policy, ref_costs):
    cfg = RenewalSeriesConfig(n_max=2)
    with pytest.raises(SeriesNotConvergedError) as info:
        exact_moments(ref_process, ref_policy, ref_costs, 10.0, cfg)
    assert info.value.n_terms == 2
    assert info.value.t == 10.0
    assert info.value.last_term >= cfg.tail_tol
