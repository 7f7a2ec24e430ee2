"""Event-driven Monte Carlo: pathwise identities and exact-law checks."""

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from driftinv import (
    CostParams,
    OrderingMode,
    ParameterError,
    PolicyParams,
    ProcessParams,
    demand_at,
    mc_summary,
    realized_cost,
    simulate,
)
from driftinv.demand import SamplePath
from driftinv.mc import path_stats, save_summary_json, save_trajectory_csv, trajectory_from_path

from conftest import exact_expected_orders


def exact_expected_inventory(process, policy, t):
    return (
        policy.x0
        - process.demand_rate * t
        + policy.Q * exact_expected_orders(process, policy, t)
    )


def test_drift_only_orders_every_ten_units():
    p = ProcessParams(mu=5.0, alpha=10.0, lam=1e-9)
    pol = PolicyParams(x0=100.0, a=50.0, Q=50.0)
    traj = simulate(p, pol, 30.0, seed=0)
    order_times = traj.times[traj.kinds == 1]
    assert np.allclose(order_times, [10.0, 20.0, 30.0])


def test_order_exactly_at_horizon_included():
    p = ProcessParams(mu=5.0, alpha=10.0, lam=1e-9)
    pol = PolicyParams(x0=100.0, a=50.0, Q=50.0)
    traj = simulate(p, pol, 10.0, seed=0)
    assert traj.n_orders == 1
    assert traj.times[-1] == 10.0


def test_pathwise_identity(ref_process, ref_policy):
    # inventory_after == x0 - demand(t) + Q * orders placed so far
    for seed in range(5):
        traj = simulate(ref_process, ref_policy, 10.0, seed=seed)
        path = SamplePath(
            params=ref_process,
            jump_times=traj.times[traj.kinds == 0],
            horizon=10.0,
            seed=seed,
        )
        orders = 0
        for t, kind, inv in traj.events:
            if kind == "order":
                orders += 1
            want = ref_policy.x0 - demand_at(path, t) + ref_policy.Q * orders
            assert inv == pytest.approx(want, abs=1e-9)


def test_inventory_slope_between_events(ref_process, ref_policy):
    # between consecutive events the level falls at exactly the drift rate
    traj = simulate(ref_process, ref_policy, 10.0, seed=23)
    for i in range(1, traj.times.size):
        dt = traj.times[i] - traj.times[i - 1]
        if dt == 0:
            continue
        before_event = traj.inventory_after[i - 1] - ref_process.mu * dt
        delta = traj.inventory_after[i] - before_event
        if traj.kinds[i] == 0:
            assert delta == pytest.approx(-ref_process.alpha, abs=1e-9)
        else:
            assert delta == pytest.approx(ref_policy.Q, abs=1e-9)


def test_order_count_equals_thresholds_below_final_demand(ref_process, ref_policy):
    for seed in range(5):
        traj = simulate(ref_process, ref_policy, 10.0, seed=100 + seed)
        jumps = traj.times[traj.kinds == 0]
        final_demand = ref_process.mu * 10.0 + ref_process.alpha * jumps.size
        crossed = int(
            np.floor((final_demand - ref_policy.a) / ref_policy.Q) + 1
        ) if final_demand >= ref_policy.a else 0
        assert traj.n_orders == crossed


def test_multi_threshold_jump_fires_multiple_orders():
    # one jump of 10 clears several thresholds spaced Q=4 apart
    p = ProcessParams(mu=1.0, alpha=10.0, lam=1.0)
    pol = PolicyParams(x0=50.0, a=5.0, Q=4.0)
    path = SamplePath(params=p, jump_times=np.array([1.0]), horizon=2.0, seed=0)
    traj = trajectory_from_path(path, pol)
    same_instant = traj.times[(traj.kinds == 1) & (traj.times == 1.0)]
    assert same_instant.size == 2  # demand 11 crosses thresholds 5 and 9
    # inventory never drops by more than the jump before replenishment
    assert traj.inventory_after.min() >= pol.x0 - 11.0


def test_zero_event_holding_formula(ref_costs):
    p = ProcessParams(mu=5.0, alpha=10.0, lam=1e-9)
    pol = PolicyParams(x0=100.0, a=90.0, Q=50.0)
    traj = simulate(p, pol, 4.0, seed=1)
    assert traj.times.size == 0
    bd = realized_cost(traj, ref_costs)
    assert bd.holding == pytest.approx(100.0 * 4.0 - 2.5 * 16.0, abs=1e-12)
    assert bd.ordering == 0.0 and bd.shortage == 0.0


def test_shortage_zero_when_jump_smaller_than_order(ref_process, ref_policy, ref_costs):
    # with alpha < Q and instant replenishment, inventory >= x0 - a - alpha
    stats = path_stats(ref_process, ref_policy, 10.0, 2000, base_seed=3)
    assert stats["min_inv"].min() >= ref_policy.x0 - ref_policy.a - ref_process.alpha
    assert np.all(stats["neg_integral"] == 0.0)


def test_instant_replenishment_keeps_inventory_above_reorder_point():
    # even when one jump clears many thresholds, the netted inventory
    # never drops below x0 - a: stockouts are structurally impossible
    # with zero lead time
    p = ProcessParams(mu=1.0, alpha=30.0, lam=1.0)
    pol = PolicyParams(x0=40.0, a=25.0, Q=5.0)
    stats = path_stats(p, pol, 10.0, 500, base_seed=11)
    assert stats["min_inv"].min() >= pol.x0 - pol.a - 1e-9
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0)
    summary = mc_summary(p, pol, costs, 10.0, 500, base_seed=11)
    assert summary.mean_shortage == 0.0
    assert summary.shortage_fraction == 0.0
    assert summary.mean_holding_signed == summary.mean_holding


def test_realized_cost_splits_negative_segments(ref_costs):
    # a hand-built event log that runs through zero exercises the
    # positive/negative split of the trapezoid integrals
    from driftinv.mc import Trajectory

    p = ProcessParams(mu=5.0, alpha=10.0, lam=1.0)
    pol = PolicyParams(x0=10.0, a=5.0, Q=5.0)
    traj = Trajectory(
        params=p,
        policy=pol,
        horizon=4.0,
        seed=0,
        times=np.empty(0),
        kinds=np.empty(0, dtype=np.int8),
        inventory_after=np.empty(0),
    )
    bd = realized_cost(traj, ref_costs)
    # inventory 10 - 5t crosses zero at t=2: triangles of area 10 each
    assert bd.holding == pytest.approx(10.0, abs=1e-12)
    assert bd.shortage == pytest.approx(100.0, abs=1e-12)


def test_mc_summary_replay_determinism(ref_process, ref_policy, ref_costs):
    a = mc_summary(ref_process, ref_policy, ref_costs, 5.0, 300, base_seed=9)
    b = mc_summary(ref_process, ref_policy, ref_costs, 5.0, 300, base_seed=9)
    assert a == b


def test_mc_summary_forced_identical_seeds(ref_process, ref_policy, ref_costs):
    summary = mc_summary(ref_process, ref_policy, ref_costs, 5.0, 2, base_seed=9, seed_stride=0)
    assert summary.stderr_total == 0.0


def test_mc_summary_requires_two_paths(ref_process, ref_policy, ref_costs):
    with pytest.raises(ParameterError):
        mc_summary(ref_process, ref_policy, ref_costs, 5.0, 1, base_seed=9)


def test_mean_orders_matches_trajectories(ref_process, ref_policy, ref_costs):
    n = 50
    summary = mc_summary(ref_process, ref_policy, ref_costs, 8.0, n, base_seed=17)
    counts = [simulate(ref_process, ref_policy, 8.0, seed=17 + i).n_orders for i in range(n)]
    assert summary.mean_orders == pytest.approx(np.mean(counts), abs=1e-12)


@pytest.mark.parametrize("t", [2.0, 5.0, 10.0])
def test_order_count_matches_exact_law(ref_process, ref_policy, t):
    # the demand path is monotone, so E[R_t] has a closed Poisson form;
    # this validates the simulator itself
    n = 60_000
    stats = path_stats(ref_process, ref_policy, t, n, base_seed=1234)
    want = exact_expected_orders(ref_process, ref_policy, t)
    got = stats["orders"].mean()
    stderr = stats["orders"].std(ddof=1) / np.sqrt(n)
    assert abs(got - want) <= 3 * stderr


def test_inventory_matches_exact_law(ref_process, ref_policy):
    t = 5.0
    n = 60_000
    stats = path_stats(ref_process, ref_policy, t, n, base_seed=4321)
    want = exact_expected_inventory(ref_process, ref_policy, t)
    stderr = stats["inv_end"].std(ddof=1) / np.sqrt(n)
    assert abs(stats["inv_end"].mean() - want) <= 3 * stderr


def test_integrated_orders_matches_exact_law(ref_process, ref_policy):
    # E[int_0^t R_s ds] = int_0^t E[R_s] ds with the exact Poisson law
    t = 5.0
    n = 60_000
    stats = path_stats(ref_process, ref_policy, t, n, base_seed=999)
    want, _ = scipy.integrate.quad(
        lambda s: exact_expected_orders(ref_process, ref_policy, s), 0.0, t, limit=300
    )
    got = stats["int_renewals"].mean()
    stderr = stats["int_renewals"].std(ddof=1) / np.sqrt(n)
    assert abs(got - want) <= 3 * stderr


def test_positive_part_integral_matches_exact_law(ref_process, ref_policy):
    # inventory never goes negative here, so E[int X+ ds] = int E[X_s] ds
    t = 5.0
    n = 60_000
    stats = path_stats(ref_process, ref_policy, t, n, base_seed=777)
    want, _ = scipy.integrate.quad(
        lambda s: exact_expected_inventory(ref_process, ref_policy, s), 0.0, t, limit=300
    )
    got = stats["pos_integral"].mean()
    stderr = stats["pos_integral"].std(ddof=1) / np.sqrt(n)
    assert abs(got - want) <= 3 * stderr


def test_realized_cost_modes(ref_process, ref_policy):
    traj = simulate(ref_process, ref_policy, 10.0, seed=5)
    per_unit = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_UNIT_TIMES_Q)
    per_order = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    a = realized_cost(traj, per_unit)
    b = realized_cost(traj, per_order)
    assert a.ordering == pytest.approx(ref_policy.Q * b.ordering)
    assert a.holding == b.holding
    assert a.total == a.ordering + a.holding + a.shortage


def test_trajectory_csv_and_summary_json(tmp_path, ref_process, ref_policy, ref_costs):
    traj = simulate(ref_process, ref_policy, 10.0, seed=5)
    f = tmp_path / "traj.csv"
    save_trajectory_csv(traj, f)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "t,kind,inventory"
    assert len(lines) == 1 + traj.times.size
    assert all(line.split(",")[1] in ("jump", "order") for line in lines[1:])
    summary = mc_summary(ref_process, ref_policy, ref_costs, 10.0, 200, base_seed=5)
    g = tmp_path / "summary.json"
    save_summary_json(summary, g)
    import json

    data = json.loads(g.read_text())
    assert set(data) == {
        "n_paths",
        "mean_total",
        "stderr_total",
        "mean_ordering",
        "mean_holding",
        "mean_shortage",
        "mean_holding_signed",
        "mean_orders",
        "shortage_fraction",
    }
    assert data["n_paths"] == 200


# float tolerance of the inventory bounds: 4 ulps of x0 + Q*orders, the
# largest magnitude in x0 - D + Q*R.  The left limit at a drift crossing
# is x0 - a in exact arithmetic and lands within about 2 ulps of it.
BOUND_ULPS = 4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.05, 20.0),
    alpha=st.floats(0.05, 30.0),
    lam=st.floats(0.01, 5.0),
    x0=st.floats(1.0, 200.0),
    a_share=st.floats(0.01, 0.99),
    Q=st.floats(0.1, 100.0),
    horizon=st.floats(0.01, 20.0),
    seed=st.integers(0, 2**31),
)
def test_path_inventory_bounds(mu, alpha, lam, x0, a_share, Q, horizon, seed):
    # with zero lead time X_t = x0 - D_t + Q R_t and R_t counts the
    # thresholds a + (n-1)Q that D_t has reached, so the inventory never
    # falls below x0 - a and ends in (x0 - a, x0 - a + Q] once an order
    # has been placed, in (x0 - a, x0] before
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    policy = PolicyParams(x0=x0, a=a_share * x0, Q=Q)
    stats = path_stats(process, policy, horizon, 8, seed)
    orders = stats["orders"]
    tol = BOUND_ULPS * np.spacing(x0 + Q * orders)
    low = x0 - policy.a
    high = np.where(orders > 0, low + Q, x0)
    assert np.all(stats["min_inv"] >= low - tol)
    assert np.all(stats["inv_end"] > low - tol)
    assert np.all(stats["inv_end"] <= high + tol)
