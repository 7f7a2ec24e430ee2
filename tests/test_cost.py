"""Closed-form cost engine: breakdowns, curves, sweeps."""

import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftinv import (
    CostParams,
    DomainError,
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
import driftinv.cost
import driftinv.gammainc
import driftinv.renewal
from driftinv.cli import cmd_expected_cost, write_curve_csv, write_sweep_csv
from driftinv.config import load_config
from driftinv.cost import (
    CostBreakdown, CostCurve, _poisson_pmf, _poisson_windows, exact_policy_sums,
    exact_renewal_sums, negative_inventory_times,
)

from conftest import exact_expected_orders

# (process, policy) pairs: the reference, a high-intensity process with
# the same mean rate and thresholds off the jump lattice, and a
# jump-dominated one with a small order quantity
EXACT_CASES = [
    (ProcessParams(mu=5.0, alpha=10.0, lam=1.0), PolicyParams(x0=100.0, a=50.0, Q=50.0)),
    (ProcessParams(mu=5.0, alpha=2.5, lam=4.0), PolicyParams(x0=100.0, a=49.3, Q=51.7)),
    (ProcessParams(mu=0.3, alpha=7.0, lam=2.2), PolicyParams(x0=30.0, a=12.0, Q=9.0)),
]


def point(cost, index):
    """The scalar breakdown at ``index`` of an array-valued one."""
    return CostBreakdown(*(float(x[index]) for x in (cost.ordering, cost.holding, cost.total)))


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
    assert (bd.ordering, bd.holding, bd.total) == (0.0, 0.0, 0.0)


def test_only_ordering_when_holding_free(ref_process, ref_policy, series_cfg):
    costs = CostParams(c_o=5.0, c_h=0.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    t = 4.0
    bd = expected_total_cost(ref_process, ref_policy, costs, t, series_cfg)
    want = 5.0 * expected_renewals(ref_process, ref_policy, t, series_cfg)
    assert bd.total == pytest.approx(want, rel=1e-12)
    assert bd.holding == 0.0


def test_component_identity(ref_process, ref_policy, ref_costs, series_cfg):
    # nothing is ever short, so the breakdown has no shortage component
    assert [f.name for f in dataclasses.fields(CostBreakdown)] == ["ordering", "holding", "total"]
    for t in np.linspace(0.0, 10.0, 21):
        bd = expected_total_cost(ref_process, ref_policy, ref_costs, float(t), series_cfg)
        assert bd.total == bd.ordering + bd.holding


def _gamma_form(process, policy, costs, t, cfg):
    return expected_total_cost(process, policy, costs, t, cfg), expected_renewals(
        process, policy, t, cfg
    )


def _exact_form(process, policy, costs, t, cfg):
    m = exact_moments(process, policy, costs, t, cfg)
    return m.cost, m.orders


@pytest.mark.parametrize("form", [_gamma_form, _exact_form], ids=["gamma", "exact"])
@pytest.mark.parametrize("t", [0.5, 2.0, 6.0, 12.0])
def test_ordering_mode_relation(form, t, ref_process, ref_policy, series_cfg):
    # the modes differ only in the price of one order, c_o*Q or c_o, which
    # multiplies the same E[R_t]; the holding cost does not see the mode
    c_o = 5.0
    per_unit = CostParams(c_o=c_o, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_UNIT_TIMES_Q)
    per_order = CostParams(c_o=c_o, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    a, er = form(ref_process, ref_policy, per_unit, t, series_cfg)
    b, _ = form(ref_process, ref_policy, per_order, t, series_cfg)
    assert a.ordering == (c_o * ref_policy.Q) * er
    assert b.ordering == c_o * er
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
    assert curve.cost.total.tolist() == [0.0]
    assert argmax_time(curve) == (0.0, 0.0)


def test_curve_continuity(ref_process, ref_policy, ref_costs, series_cfg):
    grid = np.linspace(0.0, 10.0, 201)
    curve = cost_curve(ref_process, ref_policy, ref_costs, grid, series_cfg)
    dt = grid[1] - grid[0]
    diffs = np.abs(np.diff(curve.cost.total))
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
    totals = curve.cost.total
    assert np.all(np.diff(totals) > 0)
    t_star, total_star = argmax_time(curve)
    assert t_star == grid[-1]
    assert total_star == totals[-1]



# Points of the shipped outputs whose values the incomplete-gamma
# recurrence in the renewal series moved most; the values are the same
# gamma series summed by mpmath at 40 digits.
@pytest.mark.parametrize(
    "process, policy, costs, t, field, want",
    [
        # compare.csv at t = 29: the experiment's per-order policy
        (
            ProcessParams(mu=5.0, alpha=10.0, lam=1.0),
            PolicyParams(x0=100.0, a=50.0, Q=50.0),
            CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER),
            29.0,
            "total",
            17111.87499999999210558212,
        ),
        # sweep.csv at a = 60, Q = 50, c_o = 5, t = 8.3
        (
            ProcessParams(mu=5.0, alpha=10.0, lam=1.0),
            PolicyParams(x0=100.0, a=60.0, Q=50.0),
            CostParams(c_o=5.0, c_h=1.0, c_so=10.0),
            8.3,
            "holding",
            1775.95000031402242378079,
        ),
        # expected_cost.csv of mu=5, alpha=2.5, lam=4, a=49.3, Q=51.7 at t = 11.5
        (
            ProcessParams(mu=5.0, alpha=2.5, lam=4.0),
            PolicyParams(x0=100.0, a=49.3, Q=51.7),
            CostParams(c_o=5.0, c_h=1.0, c_so=10.0),
            11.5,
            "holding",
            3226.679950003201723280035,
        ),
    ],
    ids=["compare", "sweep", "expected-cost"],
)
def test_worst_moving_points_match_mpmath(process, policy, costs, t, field, want, series_cfg):
    got = getattr(expected_total_cost(process, policy, costs, t, series_cfg), field)
    assert got == pytest.approx(want, rel=5e-15, abs=0.0)


def test_gamma_curve_falls_when_drift_dominates(ref_costs, series_cfg):
    # alpha*lam = 0.1 is the gamma rate, but drift alone reaches a = 50 at
    # t = 10: by t = 20 the exact order count is 2 and the gamma one 4.6e-5
    p = ProcessParams(mu=5.0, alpha=0.1, lam=1.0)
    pol = PolicyParams(x0=100.0, a=50.0, Q=50.0)
    grid = np.linspace(0.0, 40.0, 41)
    curve = cost_curve(p, pol, ref_costs, grid, series_cfg)
    assert argmax_time(curve)[0] == 20.0
    assert curve.cost.total[-1] < 0
    assert curve.orders[20] == pytest.approx(4.6e-5, rel=0.02)
    assert exact_moments(p, pol, ref_costs, 20.0, series_cfg).orders == pytest.approx(2.0)
    # and the series has converged: at most two terms reach tail_tol anywhere
    terms = [
        driftinv.renewal.renewal_series(10.0, 10.0, 0.1, float(t), 1e-12, 10_000)
        for t in grid
    ]
    assert all(converged and n_terms <= 2 for _, _, n_terms, _, converged in terms)


def hand_curve(grid, ordering, holding):
    """A ``CostCurve`` built by hand on ``grid``: no orders, zero inventory
    and the given cost components."""
    grid = np.asarray(grid, dtype=np.float64)
    ordering = np.asarray(ordering, dtype=np.float64)
    holding = np.asarray(holding, dtype=np.float64)
    zeros = np.zeros(grid.shape)
    cost = CostBreakdown(ordering, holding, ordering + holding)
    return CostCurve(grid, zeros, zeros, zeros, cost)


def test_argmax_tie_breaks_to_earliest():
    flat = hand_curve([0.0, 1.0, 2.0], np.zeros(3), np.full(3, 5.0))
    assert argmax_time(flat) == (0.0, 5.0)
    # the record does not order its times: a tie goes to the first one
    unsorted = hand_curve([2.0, 0.0, 1.0], np.zeros(3), np.full(3, 5.0))
    assert argmax_time(unsorted) == (2.0, 5.0)


def test_argmax_single_and_empty():
    single = hand_curve([3.0], [1.0], [2.0])
    assert argmax_time(single) == (3.0, 3.0)
    empty = hand_curve([], [], [])
    with pytest.raises(ParameterError):
        argmax_time(empty)


def test_argmax_of_a_scalar_time_curve_is_a_parameter_error(
    ref_process, ref_policy, ref_costs, series_cfg
):
    curve = exact_moments(ref_process, ref_policy, ref_costs, 2.0, series_cfg)
    want = r"argmax_time needs a curve on a one-dimensional grid of times, got times of shape \(\)"
    with pytest.raises(ParameterError, match=want):
        argmax_time(curve)


def test_negative_inventory_of_a_scalar_time_curve_is_a_parameter_error(
    ref_process, ref_policy, ref_costs, series_cfg
):
    curve = exact_moments(ref_process, ref_policy, ref_costs, 2.0, series_cfg)
    want = r"negative_inventory_times needs a curve on a one-dimensional grid"
    with pytest.raises(ParameterError, match=want):
        negative_inventory_times(curve)


def test_cost_curve_on_a_scalar_time_is_a_parameter_error(
    ref_process, ref_policy, ref_costs, series_cfg
):
    want = r"curve grid must be a one-dimensional array of times, got shape \(\)"
    with pytest.raises(ParameterError, match=want):
        cost_curve(ref_process, ref_policy, ref_costs, 2.0, series_cfg)


def test_negative_inventory_flagging(series_cfg):
    # drift-dominated process: expected inventory goes negative past x0/mu
    p = ProcessParams(mu=100.0, alpha=0.001, lam=0.001)
    pol = PolicyParams(x0=100.0, a=50.0, Q=10.0)
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0)
    curve = cost_curve(p, pol, costs, [0.5, 0.9, 1.5, 3.0], series_cfg)
    flagged = negative_inventory_times(curve)
    assert flagged == [1.5, 3.0]
    # nothing to flag with the reference setup
    ref_p = ProcessParams(mu=5.0, alpha=10.0, lam=1.0)
    ref_pol = PolicyParams(x0=100.0, a=50.0, Q=50.0)
    ref_curve = cost_curve(ref_p, ref_pol, costs, np.linspace(0, 12, 25), series_cfg)
    assert negative_inventory_times(ref_curve) == []


@pytest.mark.parametrize(
    "process, policy, grid",
    [
        (
            ProcessParams(mu=100.0, alpha=0.001, lam=0.001),
            PolicyParams(x0=100.0, a=50.0, Q=10.0),
            [0.5, 0.9, 1.5, 3.0],
        ),
        # the drift-dominated gamma curve that expected-cost warns about
        (
            ProcessParams(mu=5.0, alpha=0.1, lam=1.0),
            PolicyParams(x0=100.0, a=50.0, Q=50.0),
            np.linspace(0.0, 40.0, 41),
        ),
        (*EXACT_CASES[0], np.linspace(0.0, 12.0, 25)),
    ],
    ids=["drift", "gamma-undercount", "reference"],
)
def test_negative_inventory_times_match_inventory_oracle(
    process, policy, grid, ref_costs, series_cfg
):
    # the flagged times are those where x0 - (mu + alpha*lam) t + Q E[R_t] < 0
    curve = cost_curve(process, policy, ref_costs, grid, series_cfg)
    t = np.asarray(grid, dtype=np.float64)
    rate = process.mu + process.alpha * process.lam
    want = t[policy.x0 - rate * t + policy.Q * curve.orders < 0].tolist()
    assert negative_inventory_times(curve) == want


def test_curve_orders_are_expected_renewals(ref_process, ref_policy, ref_costs, series_cfg):
    # and the curve's breakdown has at every time the bits of the scalar one
    grid = np.linspace(0.0, 12.0, 13)
    curve = cost_curve(ref_process, ref_policy, ref_costs, grid, series_cfg)
    want = [expected_renewals(ref_process, ref_policy, float(t), series_cfg) for t in grid]
    assert curve.orders.tolist() == want
    assert [point(curve.cost, n) for n in range(grid.size)] == [
        expected_total_cost(ref_process, ref_policy, ref_costs, t, series_cfg)
        for t in grid.tolist()
    ]
    with pytest.raises(ParameterError, match="order counts of shape"):
        dataclasses.replace(curve, orders=want[:-1])
    short = dataclasses.replace(curve.cost, holding=curve.cost.holding[:-1])
    with pytest.raises(ParameterError, match=r"holding of shape \(12,\) for 13 grid times"):
        dataclasses.replace(curve, cost=short)


@pytest.mark.parametrize(
    "field, name",
    [("orders", "order counts"), ("integrated_orders", "integrated order counts"),
     ("inventory", "inventory")],
)
def test_curve_checks_the_shape_of_every_field(field, name, ref_costs, series_cfg):
    process, policy = EXACT_CASES[0]
    curve = exact_moments(process, policy, ref_costs, [1.0, 2.0, 3.0], series_cfg)
    message = rf"^curve has {name} of shape \(2,\) for 3 grid times$"
    with pytest.raises(ParameterError, match=message):
        dataclasses.replace(curve, **{field: getattr(curve, field)[:-1]})
    # a scalar time takes scalar fields
    one = exact_moments(process, policy, ref_costs, 2.0, series_cfg)
    message = rf"^curve has {name} of shape \(1,\) for 1 grid times$"
    with pytest.raises(ParameterError, match=message):
        dataclasses.replace(one, **{field: np.array([getattr(one, field)])})


def curve_fields(curve):
    """Every field of a ``CostCurve``, the breakdown's spread out."""
    return [
        curve.grid, curve.orders, curve.integrated_orders, curve.inventory,
        curve.cost.ordering, curve.cost.holding, curve.cost.total,
    ]


@pytest.mark.parametrize("t", [7, 7.0, np.float64(7.0), np.array(7.0)], ids=repr)
def test_exact_moments_at_a_scalar_time_are_floats(
    t, ref_process, ref_policy, ref_costs, series_cfg
):
    one = exact_moments(ref_process, ref_policy, ref_costs, t, series_cfg)
    assert isinstance(one, CostCurve)
    assert [type(v) for v in curve_fields(one)] == [float] * 7
    assert one.grid == 7.0


def test_both_forms_return_grid_shaped_curves(ref_process, ref_policy, ref_costs, series_cfg):
    grid = np.linspace(0.0, 12.0, 25)
    for form in (cost_curve, exact_moments):
        curve = form(ref_process, ref_policy, ref_costs, grid, series_cfg)
        assert type(curve) is CostCurve
        assert all(type(v) is np.ndarray and v.shape == grid.shape for v in curve_fields(curve))
        assert curve.grid.tolist() == grid.tolist()
        # E[X_t] is the curve's own: x0 - (mu + alpha*lam) t + Q E[R_t]
        assert curve.inventory.tolist() == (
            ref_policy.x0 - ref_process.demand_rate * grid + ref_policy.Q * curve.orders
        ).tolist()


@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_exact_moments_on_unsorted_repeated_times_match_per_time_calls(
    case, ref_costs, series_cfg
):
    process, policy = EXACT_CASES[case]
    times = [10.0, 2.0, 5.0, 5.0]
    curve = exact_moments(process, policy, ref_costs, times, series_cfg)
    assert curve.grid.tolist() == times
    for n, t in enumerate(times):
        one = exact_moments(process, policy, ref_costs, t, series_cfg)
        assert [v[n] for v in curve_fields(curve)] == curve_fields(one)
    # the gamma form takes only a strictly increasing grid, after its series
    with pytest.raises(ParameterError, match="^curve grid must be strictly increasing$"):
        cost_curve(process, policy, ref_costs, times, series_cfg)
    with pytest.raises(DomainError):
        cost_curve(process, policy, ref_costs, [10.0, -1.0], series_cfg)


def test_sweep_singletons_match_single_eval(ref_process, ref_policy, ref_costs, series_cfg):
    cost = sweep(
        ref_process, [ref_costs], [ref_policy.a], [ref_policy.Q], [4.0], series_cfg,
        x0=ref_policy.x0,
    )
    assert cost.ordering.shape == cost.holding.shape == cost.total.shape == (1, 1, 1)
    want = expected_total_cost(ref_process, ref_policy, ref_costs, 4.0, series_cfg)
    assert point(cost, (0, 0, 0)) == want


def test_sweep_monotone_in_ordering_cost(ref_process, ref_policy, series_cfg):
    costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0) for c in (5.0, 7.5, 10.0)]
    cost = sweep(ref_process, costs_list, [50.0], [50.0], [6.0], series_cfg)
    totals = cost.total[0, :, 0].tolist()
    assert totals == sorted(totals)


def test_sweep_ordering_component_falls_with_a(ref_process, series_cfg):
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0)
    cost = sweep(ref_process, [costs], [40.0, 50.0, 60.0], [50.0], [6.0], series_cfg)
    ordering = cost.ordering[:, 0, 0].tolist()
    assert ordering[0] >= ordering[1] >= ordering[2]


def test_sweep_row_order_and_csv(tmp_path, ref_process, series_cfg):
    costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0) for c in (5.0, 10.0)]
    a_list, q_list, grid = [40.0, 50.0], [50.0, 60.0], [2.0, 4.0]
    cost = sweep(ref_process, costs_list, a_list, q_list, grid, series_cfg)
    assert cost.total.shape == (4, 2, 2)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(cost, costs_list, a_list, q_list, grid, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,Q,c_h,c_o,c_so,mode,t,ordering,holding,shortage,total"
    assert len(lines) == 1 + cost.total.size
    rows = [line.split(",") for line in lines[1:]]
    keys = [(float(r[0]), float(r[1]), float(r[3]), float(r[6])) for r in rows]
    assert keys == sorted(keys)


def csv_line(policy, costs, t, bd):
    """Oracle: one cost CSV row, built from a scalar breakdown."""
    return (
        f"{policy.a!r},{policy.Q!r},{costs.c_h!r},{costs.c_o!r},{costs.c_so!r},"
        f"{costs.ordering_mode.value},{t!r},{bd.ordering!r},{bd.holding!r},0.0,{bd.total!r}"
    )


@pytest.mark.parametrize("mode", list(OrderingMode))
def test_sweep_rows_equal_pointwise_cost(tmp_path, ref_process, series_cfg, mode):
    # one series per (a, Q, t) shared by every costs entry must give the
    # same bits as a full evaluation per row, and so must the sweep's and
    # each curve's CSV rows, also with repeated list entries
    q_list, grid = [45.0, 60.0], [0.0, 1.7, 6.0]
    for a_list, c_o_list in (([40.0, 55.5], [2.5, 7.0]), ([55.5, 40.0, 55.5], [7.0, 2.5, 7.0])):
        costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0, ordering_mode=mode) for c in c_o_list]
        cost = sweep(ref_process, costs_list, a_list, q_list, grid, series_cfg, x0=100.0)
        policies = [PolicyParams(x0=100.0, a=a, Q=Q) for a in a_list for Q in q_list]
        assert cost.total.shape == (len(policies), len(costs_list), len(grid))
        want_lines = []
        for i, policy in enumerate(policies):
            for k, costs in enumerate(costs_list):
                want = [
                    expected_total_cost(ref_process, policy, costs, t, series_cfg) for t in grid
                ]
                assert [point(cost, (i, k, n)) for n in range(len(grid))] == want
                curve_lines = [csv_line(policy, costs, t, bd) for t, bd in zip(grid, want)]
                curve = cost_curve(ref_process, policy, costs, grid, series_cfg)
                write_curve_csv(curve, policy, costs, tmp_path / "curve.csv")
                assert (tmp_path / "curve.csv").read_text().splitlines()[1:] == curve_lines
                want_lines += curve_lines
        write_sweep_csv(cost, costs_list, a_list, q_list, grid, tmp_path / "sweep.csv")
        text = (tmp_path / "sweep.csv").read_text()
        assert "np.float64(" not in text
        assert text.splitlines()[1:] == want_lines


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


def test_sweep_sums_one_series_per_a_q(ref_process, series_cfg, series_calls):
    # one series over the whole grid for the whole sweep, with a row of
    # shapes per (a, Q) curve in the sweep's order, which every costs
    # entry then shares
    costs_list = [CostParams(c_o=c, c_h=1.0, c_so=10.0) for c in (5.0, 7.5, 10.0)]
    a_list, q_list, grid = [40.0, 50.0, 60.0], [50.0, 60.0], np.linspace(0.0, 6.0, 7)
    sweep(ref_process, costs_list, a_list, q_list, grid, series_cfg)
    assert len(series_calls) == 1
    shape0, dshape, rate, t = series_calls[0][:4]
    pairs = [(a, Q) for a in a_list for Q in q_list]
    assert shape0.shape == dshape.shape == (len(pairs), 1)
    assert shape0[:, 0].tolist() == [a / ref_process.mu for a, _ in pairs]
    assert dshape[:, 0].tolist() == [Q / ref_process.mu for _, Q in pairs]
    assert rate == ref_process.alpha * ref_process.lam
    assert np.array_equal(t, grid)


def first_per_curve_error(process, policies, grid, cfg):
    """The SeriesNotConvergedError a loop of one series per policy raises
    first, or None."""
    for policy in policies:
        try:
            driftinv.renewal.expected_renewal_sums(process, policy, np.array(grid), cfg)
        except SeriesNotConvergedError as err:
            return err
    return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    mu=st.floats(1.0, 10.0),
    alpha=st.floats(0.5, 10.0),
    lam=st.floats(0.05, 2.0),
    a_list=st.lists(st.floats(1.0, 80.0), min_size=1, max_size=3),
    q_list=st.lists(st.floats(10.0, 80.0), min_size=1, max_size=3),
    times=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=12),
    repeat=st.integers(0, 20),
    n_max=st.sampled_from([1, 2, 3, 5]),
)
# the grid is [0, 1, 0.5, 1]; the curves (79, 10) and (79, 20) converge,
# and (5, 10) and then (5, 20) hit the cap with other partial sums, each
# at t = 1 and 0.5
@example(
    mu=5.0, alpha=1.0, lam=1.0, a_list=[79.0, 5.0], q_list=[10.0, 20.0], times=[0.5, 1.0],
    repeat=1, n_max=2,
)
def test_batched_sweep_matches_one_series_per_curve(
    mu, alpha, lam, a_list, q_list, times, repeat, n_max
):
    # one series over every (a, Q) and an unsorted grid with t = 0 and a
    # repeated time gives each curve the bits of a series of its own, also
    # cut into at least 3 chunks of _CHUNK_VALUES, and the cap error of
    # the first curve and time a loop of one series per curve stops at
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0)
    cfg = RenewalSeriesConfig()
    grid = [0.0, *times]
    grid.insert(repeat % (len(grid) + 1), grid[-1])
    policies = [PolicyParams(x0=100.0, a=a, Q=Q) for a in a_list for Q in q_list]
    cost = sweep(process, [costs], a_list, q_list, grid, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driftinv.renewal, "_CHUNK_VALUES", len(policies) * len(grid) // 3)
        er, ei = driftinv.renewal.policy_renewal_sums(process, policies, grid, cfg)
        capped = RenewalSeriesConfig(n_max=n_max)
        want_error = first_per_curve_error(process, policies, grid, capped)
        if want_error is not None:
            with pytest.raises(SeriesNotConvergedError) as exc:
                sweep(process, [costs], a_list, q_list, grid, capped)
            got, want = exc.value, want_error
            assert str(got) == str(want)
            assert (got.t, got.partial_sum, got.n_terms, got.last_term) == (
                want.t, want.partial_sum, want.n_terms, want.last_term
            )
    assert er.shape == ei.shape == (len(policies), len(grid))
    assert cost.total.shape == (len(policies), 1, len(grid))
    for i, policy in enumerate(policies):
        want_er, want_ei = driftinv.renewal.expected_renewal_sums(process, policy, grid, cfg)
        assert er[i].tolist() == want_er.tolist()
        assert ei[i].tolist() == want_ei.tolist()
        assert [point(cost, (i, 0, n)) for n in range(len(grid))] == [
            driftinv.cost._curve(process, policy, costs, t, (r, s)).cost
            for t, r, s in zip(grid, want_er.tolist(), want_ei.tolist())
        ]


def test_expected_cost_sums_one_series_per_curve(tmp_path, series_calls):
    cfg = load_config(overrides={"grid": {"t_start": 0.0, "t_end": 6.0, "steps": 13}})
    assert cmd_expected_cost(cfg, tmp_path) == 0
    assert len(series_calls) == 1
    assert np.array_equal(series_calls[0][3], cfg.grid)


def scalar_min_jumps(level, drift, alpha):
    """Oracle: the smallest k >= 0 with drift + alpha*k >= level, the
    comparison the Monte Carlo makes when it fires an order."""
    k = max(math.ceil((level - drift) / alpha), 0)
    while k > 0 and drift + alpha * (k - 1) >= level:
        k -= 1
    while drift + alpha * k < level:
        k += 1
    return k


@functools.cache  # a breakpoint's tail recurs at every time of a grid
def scalar_poisson_tail(k, y, tail_tol):
    """Oracle: P(N >= k), N ~ Poisson(y), as the exact form's table sums
    it, one pmf value at a time over the window [lo, hi] of y
    (``cost._poisson_windows``): 1 less the pmf added from lo up to
    k - 1 where k is at most the mode floor(y), and the pmf added from
    hi down to k above it, so 1 below the window and 0 past it."""
    lo, hi = (int(v[0]) for v in _poisson_windows(np.array([y]), tail_tol))
    below = k <= math.floor(y)
    order = np.arange(lo, k) if below else np.arange(hi, k - 1, -1)
    acc = 0.0
    for term in _poisson_pmf(order.astype(np.float64), y).tolist():
        acc += term
    return 1.0 - acc if below else acc


def scalar_exact_terms(process, policy, t, cfg):
    """Oracle: the terms P(D_t >= L_n) = P(N_t >= j_n) of E[R_t], threshold
    by threshold up to the first below ``cfg.tail_tol`` (which is not
    summed) or to ``cfg.n_max`` terms, with their (L_n, j_n)."""
    terms = []
    for n in range(1, cfg.n_max + 1):
        level = policy.threshold(n)
        j = scalar_min_jumps(level, process.mu * t, process.alpha)
        p = scalar_poisson_tail(j, process.lam * t, cfg.tail_tol)
        terms.append((p, level, j))
        if p < cfg.tail_tol:
            break
    return terms


def scalar_exact_series(process, policy, t, cfg):
    """Oracle: (E[R_t], E[int_0^t R]) threshold by threshold, one scalar
    tail per value; a k term with k + 1 past the window of lam*t adds
    nothing, as there the tail is 0."""
    mu, alpha, lam = process.mu, process.alpha, process.lam
    x = lam * t
    lo, hi = (int(v[0]) for v in _poisson_windows(np.array([x]), cfg.tail_tol))

    def tail(k):
        return scalar_poisson_tail(k, x, cfg.tail_tol)

    terms = scalar_exact_terms(process, policy, t, cfg)
    if not terms[-1][0] < cfg.tail_tol:
        raise AssertionError("the oracle reached n_max")
    total_r = 0.0
    total_int = 0.0
    for p, level, j in terms[:-1]:
        m = scalar_min_jumps(level, 0.0, alpha)
        pmf = float(_poisson_pmf(float(m - 1), x)) if lo <= m - 1 <= hi else 0.0
        acc = (x - m) * tail(m) + x * pmf
        for k in range(j, min(m, hi)):
            acc += tail(k + 1) - scalar_poisson_tail(
                k + 1, lam * (level - alpha * k) / mu, cfg.tail_tol
            )
        total_r += p
        total_int += acc / lam
    return total_r, total_int


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mu=st.one_of(st.floats(0.2, 10.0), st.integers(1, 10).map(float)),
    alpha=st.one_of(st.floats(0.5, 20.0), st.integers(1, 20).map(float)),
    lam=st.floats(0.05, 8.0),
    a=st.floats(1.0, 80.0),
    q=st.floats(1.0, 80.0),
    times=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=4),
    repeat=st.integers(0, 10),
)
def test_exact_series_matches_threshold_by_threshold_oracle(
    mu, alpha, lam, a, q, times, repeat, ref_costs
):
    # one call over an unsorted grid with t = 0 and a repeated time gives
    # at every time the bits of the one-value-at-a-time series
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    policy = PolicyParams(x0=100.0, a=a, Q=q)
    cfg = RenewalSeriesConfig()
    grid = [0.0, *times]
    grid.insert(repeat % (len(grid) + 1), grid[-1])
    m = exact_moments(process, policy, ref_costs, grid, cfg)
    assert m.orders.shape == m.integrated_orders.shape == m.inventory.shape == (len(grid),)
    for t, er, ei in zip(grid, m.orders.tolist(), m.integrated_orders.tolist()):
        assert (er, ei) == scalar_exact_series(process, policy, t, cfg)
    # a scalar t gives floats, and the same bits
    one = exact_moments(process, policy, ref_costs, grid[-1], cfg)
    values = (one.orders, one.integrated_orders, one.inventory, one.cost.total)
    assert all(type(v) is float for v in values)
    assert (one.orders, one.integrated_orders) == (m.orders[-1], m.integrated_orders[-1])


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
    # (x0 - a, x0 - a + Q] after, so its mean does too and nothing is
    # short: the total is ordering plus holding, with no shortage term
    process, policy = EXACT_CASES[case]
    lo = policy.x0 - policy.a
    hi = max(policy.x0, policy.x0 - policy.a + policy.Q)
    grid = np.linspace(0.0, 15.0, 31)
    m = exact_moments(process, policy, ref_costs, grid, series_cfg)
    assert np.all((lo < m.inventory) & (m.inventory <= hi))
    assert m.cost.total.shape == grid.shape
    assert np.array_equal(m.cost.total, m.cost.ordering + m.cost.holding)
    for n, t in enumerate(grid.tolist()):
        one = exact_moments(process, policy, ref_costs, t, series_cfg)
        assert point(m.cost, n) == one.cost


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


def test_exact_inventory_keeps_a_sawtooth_at_the_defaults(
    ref_process, ref_policy, ref_costs, series_cfg
):
    # alpha/Q = 10/50 is rational: at a fixed t, D_t mod Q takes values
    # g = gcd(10, 50) = 10 apart, so E[X_t] does not settle at the mean
    # x0 - a + Q/2 = 75 of the uniform law on (50, 100].  It keeps a
    # sawtooth of period g/mu = 2 and height g; only its time average is 75
    t = np.array([300.0, 300.5, 301.0, 301.5])
    inventory = exact_moments(ref_process, ref_policy, ref_costs, t, series_cfg).inventory
    assert inventory.tolist() == pytest.approx([80.0, 77.5, 75.0, 72.5], abs=1e-8)


def test_exact_series_cap(ref_process, ref_policy, ref_costs):
    cfg = RenewalSeriesConfig(n_max=2)
    with pytest.raises(SeriesNotConvergedError) as info:
        exact_moments(ref_process, ref_policy, ref_costs, 10.0, cfg)
    assert info.value.n_terms == 2
    assert info.value.t == 10.0
    assert info.value.last_term >= cfg.tail_tol


def test_exact_grid_hitting_n_max_names_its_first_time(ref_process, ref_policy, ref_costs):
    # as the gamma series: 0.0 and 0.05 converge within two terms, 10.0
    # and then 2.0 reach the cap, and the error names 10.0
    cfg = RenewalSeriesConfig(tail_tol=1e-12, n_max=2)
    with pytest.raises(SeriesNotConvergedError) as exc:
        exact_moments(ref_process, ref_policy, ref_costs, np.array([0.0, 0.05, 10.0, 2.0]), cfg)
    for t, converged in ((0.0, True), (0.05, True), (10.0, False), (2.0, False)):
        terms = scalar_exact_terms(ref_process, ref_policy, t, cfg)
        assert (terms[-1][0] < cfg.tail_tol) == converged
    terms = [p for p, _, _ in scalar_exact_terms(ref_process, ref_policy, 10.0, cfg)]
    err = exc.value
    assert (err.t, err.partial_sum, err.n_terms, err.last_term) == (10.0, sum(terms), 2, terms[-1])
    assert str(err) == (
        f"exact series hit the cap n_max=2 at t=10.0 with the last term {terms[-1]:.3e} "
        f"still >= tail_tol={1e-12:.3e}"
    )


def mp_exact_sums(process, policy, t, tail_tol):
    """Oracle: (E[R_t], E[int_0^t R]) at 30 digits by mpmath, every float
    input taken exactly, threshold by threshold as the exact form sums
    them (it stops at the first P(N_t >= j_n) below tail_tol), with each
    P(k, x) from mpmath's regularized incomplete gamma."""
    with mpmath.workdps(30):
        mu, alpha, lam, t = (mpmath.mpf(v) for v in (process.mu, process.alpha, process.lam, t))
        x = lam * t
        cdf = lambda k, v: mpmath.gammainc(k, 0, v, regularized=True) if k > 0 else mpmath.mpf(1)
        total_r = total_int = mpmath.mpf(0)
        for n in range(1, 10_000):
            level = mpmath.mpf(policy.threshold(n))
            j = max(int(mpmath.ceil((level - mu * t) / alpha)), 0)
            if cdf(j, x) < tail_tol:
                return total_r, total_int
            m = int(mpmath.ceil(level / alpha))
            pmf = mpmath.exp(-x) * x ** (m - 1) / mpmath.factorial(m - 1) if m > 0 else 0
            acc = (x - m) * cdf(m, x) + x * pmf
            for k in range(j, m):
                acc += cdf(k + 1, x) - cdf(k + 1, lam * (level - alpha * k) / mu)
            total_r += cdf(j, x)
            total_int += acc / lam
    raise AssertionError("the oracle reached 10,000 thresholds")


# the largest relative error of the exact form's E[R_t] and E[int R]
# against mpmath, fixed before the first run of the test
EXACT_REL_ERROR = 1e-12


@pytest.mark.parametrize(
    "mu, alpha, lam", [(5.0, 10.0, 1.0), (5.0, 2.5, 4.0), (1.0, 10.0, 0.2), (20.0, 1.0, 1.0),
                       (0.5, 10.0, 1.0)],
)
def test_exact_sums_match_mpmath(mu, alpha, lam, series_cfg):
    # five processes, from drift-dominated to jump-dominated, at times
    # from 2 to 10 and a policy off the jump lattice, so no threshold ties
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    policy = PolicyParams(x0=100.0, a=48.7, Q=51.3)
    er, ei = exact_renewal_sums(process, policy, np.array([2.0, 5.0, 10.0]), series_cfg)
    for t, got_r, got_int in zip((2.0, 5.0, 10.0), er.tolist(), ei.tolist()):
        want_r, want_int = mp_exact_sums(process, policy, t, series_cfg.tail_tol)
        assert abs(got_r - want_r) <= EXACT_REL_ERROR * want_r, t
        assert abs(got_int - want_int) <= EXACT_REL_ERROR * want_int, t


@pytest.mark.parametrize("s", [4.0, 0.5])
@pytest.mark.parametrize("mode", list(OrderingMode))
@pytest.mark.parametrize("case", range(len(EXACT_CASES)))
def test_exact_form_independent_of_demand_unit(case, mode, s, series_cfg):
    # demand in units s times smaller: mu, alpha, x0, a and Q times s, c_h
    # (and c_o per unit) over s.  Every count j_n, m_n and every lam*s_k is
    # the same, and a power of two scales exactly, so E[R_t], E[int R] and
    # the total keep their bits and the inventory is s times as large
    process, policy = EXACT_CASES[case]
    per_unit = mode is OrderingMode.PER_UNIT_TIMES_Q
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=mode)
    scaled = CostParams(c_o=5.0 / s if per_unit else 5.0, c_h=1.0 / s, c_so=10.0, ordering_mode=mode)
    grid = np.array([0.0, 0.5, 2.0, 4.0, 7.0, 10.0, 13.3])
    base = exact_moments(process, policy, costs, grid, series_cfg)
    other = exact_moments(
        ProcessParams(mu=s * process.mu, alpha=s * process.alpha, lam=process.lam),
        PolicyParams(x0=s * policy.x0, a=s * policy.a, Q=s * policy.Q),
        scaled,
        grid,
        series_cfg,
    )
    assert np.array_equal(other.orders, base.orders)
    assert np.array_equal(other.integrated_orders, base.integrated_orders)
    assert np.array_equal(other.cost.total, base.cost.total)
    assert np.array_equal(other.inventory, s * base.inventory)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.5, 8.0),
    alpha=st.one_of(st.floats(0.5, 15.0), st.integers(1, 15).map(float)),
    lam=st.floats(0.1, 5.0),
    policies=st.lists(st.tuples(st.floats(1.0, 80.0), st.floats(1.0, 80.0)), min_size=1, max_size=4),
    times=st.lists(st.floats(0.0, 15.0), min_size=1, max_size=3),
)
def test_exact_policy_rows_match_one_policy_calls(mu, alpha, lam, policies, times, series_cfg):
    # one table for every policy gives each the bits of its own call
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    policies = [PolicyParams(x0=100.0, a=a, Q=q) for a, q in policies]
    er, ei = exact_policy_sums(process, policies, times, series_cfg)
    assert er.shape == ei.shape == (len(policies), len(times))
    for i, policy in enumerate(policies):
        want_r, want_int = exact_renewal_sums(process, policy, times, series_cfg)
        assert er[i].tolist() == want_r.tolist()
        assert ei[i].tolist() == want_int.tolist()


# the largest relative error of the exact form's Poisson pmf over its
# windows against mpmath, for lam*t up to 1000, fixed before the first run
PMF_REL_ERROR = 1e-13


@pytest.mark.parametrize("y", [1e-3, 0.5, 3.7, 10.0, 41.3, 250.0, 1000.0])
def test_exact_pmf_and_windows_match_mpmath(y):
    # the window leaves out at most 2^-53 tail_tol of the law on each side,
    # and the pmf over it keeps its digits
    tail_tol = 1e-12
    lo, hi = (int(v[0]) for v in _poisson_windows(np.array([y]), tail_tol))
    i = np.arange(lo, hi + 1)
    got = _poisson_pmf(i.astype(np.float64), y)
    with mpmath.workdps(30):
        my = mpmath.mpf(y)
        want = [mpmath.exp(k * mpmath.log(my) - my - mpmath.loggamma(k + 1)) for k in i.tolist()]
        assert max(abs(g - w) / w for g, w in zip(got.tolist(), want)) <= PMF_REL_ERROR
        below = mpmath.gammainc(lo, my, mpmath.inf, regularized=True) if lo else 0
        above = mpmath.gammainc(hi + 1, 0, my, regularized=True)
        assert below <= 2.0**-53 * tail_tol and above <= 2.0**-53 * tail_tol


@pytest.mark.parametrize(
    "t, message",
    [
        ([1e13], r"Poisson window at lam\*t = 1e\+13 reaches 1e\+13 jumps, more than the budget"),
        # 500 windows about 72,000 wide
        (np.full(500, 1e7), r"Poisson tail table would hold 3.59e\+07 values, more than the budget"),
    ],
)
def test_exact_tail_table_is_refused_past_the_budget(
    t, message, ref_process, ref_policy, ref_costs, series_cfg
):
    # the table of Poisson tails is sized from each time's window, about
    # 23 sqrt(lam*t) wide, and checked before it is allocated
    with pytest.raises(ParameterError, match=message):
        exact_moments(ref_process, ref_policy, ref_costs, t, series_cfg)


def test_exact_grid_with_a_negative_time_names_it(ref_process, ref_policy, ref_costs, series_cfg):
    with pytest.raises(DomainError, match=r"got -0\.5$"):
        exact_moments(ref_process, ref_policy, ref_costs, [1.0, -0.5, 2.0, -3.0], series_cfg)


def test_exact_series_evaluation_count_does_not_grow_with_the_grid(
    monkeypatch, ref_process, ref_policy, ref_costs, series_cfg
):
    # one tail table for the times and one for the breakpoints, whose
    # P(k+1, lam*s_k) do not depend on t, so a 121-point grid builds as
    # many tables, with as many pmf calls, as a 3-point one with the same
    # last time; and no incomplete-gamma kernel runs at all
    calls = []

    def counting(fn):
        def counted(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return counted

    def no_kernel(*args):
        raise AssertionError("the exact form ran the incomplete-gamma kernel")

    names = ("_tail_table", "_breakpoint_tails", "_poisson_pmf")
    for name in names:
        monkeypatch.setattr(driftinv.cost, name, counting(getattr(driftinv.cost, name)))
    monkeypatch.setattr(driftinv.gammainc, "_pair", no_kernel)
    counts = []
    for grid in ([2.0, 7.0, 12.0], np.linspace(0.0, 12.0, 121)):
        calls.clear()
        exact_moments(ref_process, ref_policy, ref_costs, grid, series_cfg)
        counts.append([calls.count(name) for name in names])
    assert counts[0] == counts[1] == [1, 1, 2]
