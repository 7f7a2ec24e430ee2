"""Event-driven Monte Carlo: pathwise identities and exact-law checks."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import driftinv.mc
from driftinv import (
    CostParams,
    OrderingMode,
    ParameterError,
    PolicyParams,
    ProcessParams,
    mc_summary,
    simulate,
)
from driftinv.cli import save_summary_json, save_trajectory_csv
from driftinv.demand import SamplePath, batch_jump_times
from driftinv.mc import (
    KIND_ORDER,
    batch_stats,
    path_costs,
    path_stats,
    simulate_events,
    trajectory_from_path,
)

from conftest import demand_at, exact_expected_orders, pack, truncate_batch


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
        for t, kind, inv in zip(traj.times.tolist(), traj.kinds.tolist(), traj.inventory_after.tolist()):
            if kind == KIND_ORDER:
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


def test_zero_event_holding_formula():
    p = ProcessParams(mu=5.0, alpha=10.0, lam=1e-9)
    pol = PolicyParams(x0=100.0, a=90.0, Q=50.0)
    traj = simulate(p, pol, 4.0, seed=1)
    assert traj.times.size == 0
    pos, neg, _, orders, _, _ = cost_integrals(
        traj.times, traj.kinds, traj.inventory_after, 0, p.mu, pol.x0, 4.0
    )
    assert pos == pytest.approx(100.0 * 4.0 - 2.5 * 16.0, abs=1e-12)
    assert orders == 0 and neg == 0.0


def test_shortage_zero_when_jump_smaller_than_order(ref_process, ref_policy, ref_costs):
    # with alpha < Q and instant replenishment, inventory >= x0 - a - alpha
    stats = path_stats(ref_process, ref_policy, 10.0, 2000, base_seed=3)
    assert stats["min_inv"].min() >= ref_policy.x0 - ref_policy.a - ref_process.alpha
    assert stats["min_inv"].min() > 0.0  # never short: no shortage integral


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


def test_realized_cost_splits_negative_segments():
    # an event log that runs through zero exercises the positive/negative
    # split of the trapezoid integrals: no events, x0 = 10, mu = 5, to t = 4
    empty = np.empty(0)
    pos, neg = cost_integrals(empty, empty, empty, 0, 5.0, 10.0, 4.0)[:2]
    # inventory 10 - 5t crosses zero at t=2: triangles of area 10 each
    assert pos == pytest.approx(10.0, abs=1e-12)
    assert neg == pytest.approx(10.0, abs=1e-12)


def test_mc_summary_replay_determinism(ref_process, ref_policy, ref_costs):
    a = mc_summary(ref_process, ref_policy, ref_costs, 5.0, 300, base_seed=9)
    b = mc_summary(ref_process, ref_policy, ref_costs, 5.0, 300, base_seed=9)
    assert a == b


def test_mc_summary_forced_identical_seeds(ref_process, ref_policy, ref_costs, monkeypatch):
    # every path replays the path of one seed
    def one_path_n_times(params, horizon, base_seed, n_paths):
        flat, offsets = batch_jump_times(params, horizon, base_seed, 1)
        return np.tile(flat, n_paths), offsets[1] * np.arange(n_paths + 1)

    monkeypatch.setattr(driftinv.mc, "batch_jump_times", one_path_n_times)
    summary = mc_summary(ref_process, ref_policy, ref_costs, 5.0, 2, base_seed=9)
    assert summary.stderr_total == 0.0


def test_mc_summary_requires_two_paths(ref_process, ref_policy, ref_costs):
    with pytest.raises(ParameterError):
        mc_summary(ref_process, ref_policy, ref_costs, 5.0, 1, base_seed=9)


def test_mean_orders_matches_trajectories(ref_process, ref_policy, ref_costs):
    n = 50
    summary = mc_summary(ref_process, ref_policy, ref_costs, 8.0, n, base_seed=17)
    # each path of the batch keyed 17, replayed alone by the event kernel
    flat, offsets = batch_jump_times(ref_process, 8.0, 17, n)
    counts = [
        trajectory_from_path(
            SamplePath(ref_process, flat[offsets[i] : offsets[i + 1]], 8.0, 17), ref_policy
        ).n_orders
        for i in range(n)
    ]
    assert summary.mean_orders == pytest.approx(np.mean(counts), abs=1e-12)
    # simulate's path is path 0 of its summary batch
    assert simulate(ref_process, ref_policy, 8.0, seed=17).n_orders == counts[0]


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
    # per_unit_times_Q charges Q times what per_order charges for the
    # same orders; the holding cost does not see the mode
    per_unit = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_UNIT_TIMES_Q)
    per_order = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    a = mc_summary(ref_process, ref_policy, per_unit, 10.0, 200, base_seed=5)
    b = mc_summary(ref_process, ref_policy, per_order, 10.0, 200, base_seed=5)
    assert b.mean_orders > 0
    assert a.mean_ordering == pytest.approx(ref_policy.Q * b.mean_ordering)
    assert a.mean_holding == b.mean_holding
    assert a.mean_total == pytest.approx(a.mean_ordering + a.mean_holding + a.mean_shortage)


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


def cost_integrals(times, kinds, inv, n_events, mu, x0, horizon):
    """Exact path functionals on [0, horizon].

    Returns (integral of max(X,0), integral of max(-X,0), integral of
    the order count, order count, final inventory, minimum inventory).
    """
    t0 = 0.0
    v0 = x0
    pos = 0.0
    neg = 0.0
    int_r = 0.0
    orders = 0
    min_inv = x0
    for e in range(n_events + 1):
        t1 = times[e] if e < n_events else horizon
        dt = t1 - t0
        v1 = v0 - mu * dt
        # only values held over positive time (or as left limits) count;
        # zero-duration values between simultaneous events are artifacts
        # of the event ordering, not states of the process
        if dt > 0.0:
            if v1 >= 0.0:
                pos += 0.5 * (v0 + v1) * dt
            elif v0 <= 0.0:
                neg += -0.5 * (v0 + v1) * dt
            else:
                tc = v0 / mu
                pos += 0.5 * v0 * tc
                neg += 0.5 * (-v1) * (dt - tc)
            min_inv = min(min_inv, v0, v1)
        if e == n_events:
            return pos, neg, int_r, orders, v1, min(min_inv, v1)
        if kinds[e] == KIND_ORDER:
            orders += 1
            int_r += horizon - t1
        t0 = t1
        v0 = inv[e]


def event_kernel_stats(jumps, mu, alpha, x0, a, Q, horizon):
    """Scalar reference for one path: the functionals of the event log
    that ``simulate_events`` returns, in the column order of
    ``batch_stats``, then the integral of max(-X, 0), which
    ``batch_stats`` does not compute because it is always 0.

    ``cost_integrals`` adds its terms in sequence, which after thousands
    of orders is off by hundreds of ulps; the two integrals here sum the
    same terms exactly (``math.fsum``), so only the kernel is compared.
    """
    log = simulate_events(jumps, mu, alpha, x0, a, Q, horizon)
    times, kinds, inv = np.array(log, dtype=np.float64).reshape(-1, 3).T
    _, neg, _, orders, v_end, min_inv = cost_integrals(times, kinds, inv, len(log), mu, x0, horizon)
    ends = np.append(times, horizon)
    starts = np.append(0.0, times)
    values = np.append(x0, inv)
    pos = math.fsum(
        0.5 * (v0 + (v0 - mu * (t1 - t0))) * (t1 - t0)
        for t0, t1, v0 in zip(starts.tolist(), ends.tolist(), values.tolist())
        if t1 > t0
    )
    int_r = math.fsum(horizon - t for t in times[kinds == KIND_ORDER].tolist())
    return orders, v_end, int_r, pos, min_inv, neg


def assert_matches_event_kernel(flat, offsets, mu, alpha, x0, a, Q, horizon):
    got = batch_stats(flat, offsets, mu, alpha, x0, a, Q, horizon)
    for i, row in enumerate(got):
        jumps = flat[offsets[i] : offsets[i + 1]]
        orders, v_end, int_r, pos, min_inv, neg = event_kernel_stats(
            jumps, mu, alpha, x0, a, Q, horizon
        )
        assert neg == 0.0  # the event walk is never short
        assert row[0] == orders
        ulp = np.spacing(x0 + Q * orders)
        assert abs(row[1] - v_end) <= BOUND_ULPS * ulp
        assert abs(row[4] - min_inv) <= BOUND_ULPS * ulp
        # an order time (a + Q*k - jsum)/mu carries the rounding of its
        # threshold over mu; the integrals may err by that once per order
        t_ulp = ulp / mu + np.spacing(horizon)
        n = max(orders, 1)
        assert abs(row[2] - int_r) <= BOUND_ULPS * n * t_ulp
        assert abs(row[3] - pos) <= BOUND_ULPS * (horizon * ulp + Q * n * t_ulp)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.05, 20.0),
    alpha=st.floats(0.05, 30.0),
    lam=st.floats(0.01, 5.0),
    x0=st.floats(1.0, 200.0),
    a_share=st.floats(0.01, 0.99),
    Q=st.one_of(st.floats(0.1, 100.0), st.floats(0.01, 0.5)),
    horizon=st.floats(0.01, 20.0),
    seed=st.integers(0, 2**31),
)
def test_batch_stats_matches_event_kernel(mu, alpha, lam, x0, a_share, Q, horizon, seed):
    # sampled paths, with many orders per jump when Q << alpha
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    flat, offsets = batch_jump_times(process, horizon, seed, 6)
    assert_matches_event_kernel(flat, offsets, mu, alpha, x0, a_share * x0, Q, horizon)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    mu=st.integers(1, 6),
    alpha=st.integers(1, 25),
    x0=st.integers(2, 120),
    a_share=st.floats(0.0, 1.0),
    Q=st.integers(1, 40),
    horizon=st.integers(1, 20),
    steps=st.lists(st.lists(st.integers(0, 79), unique=True, max_size=12), min_size=1, max_size=4),
)
def test_batch_stats_matches_event_kernel_on_lattice(mu, alpha, x0, a_share, Q, horizon, steps):
    # integer a, Q, mu and alpha with jumps on a quarter-unit lattice: demand
    # is exact, so crossings fall exactly on jumps and on the horizon
    a = min(max(round(a_share * x0), 1), x0 - 1)
    flat, offsets = pack([sorted(k / 4.0 for k in ks if k < 4 * horizon) for ks in steps])
    assert_matches_event_kernel(
        flat, offsets, float(mu), float(alpha), float(x0), float(a), float(Q), float(horizon)
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.05, 20.0),
    alpha=st.floats(0.05, 30.0),
    x0=st.floats(1.0, 200.0),
    a_share=st.floats(0.01, 0.99),
    Q=st.floats(0.01, 50.0),
    picks=st.lists(st.tuples(st.sampled_from([0, 0, 1, 2]), st.floats(0.01, 1.0)), max_size=15),
)
def test_batch_stats_matches_event_kernel_at_float_ties(mu, alpha, x0, a_share, Q, picks):
    # jumps, and the horizon, put exactly on the next drift crossing
    # (a + Q*k - jsum)/mu as the kernel rounds it (tie 1), or where the
    # jump itself lifts demand onto a threshold (tie 2); there a floor
    # estimate of the order count misses by one and the exact predicates
    # decide, and a crossing may round onto the jump before it
    a = a_share * x0

    def next_crossing(t, jsum):
        k = max(math.floor((mu * t + jsum - a) / Q) + 1, 0)
        return (a + Q * k - jsum) / mu

    times, t, jsum = [], 0.0, 0.0
    for tie, gap in picks:
        t_next = t + gap
        if tie:
            t_tie = next_crossing(t, jsum + alpha * (tie - 1))
            t_next = t_tie if t_tie > t else t_next
        if t_next > t:
            times.append(t_next)
            t, jsum = t_next, jsum + alpha
    tie = next_crossing(t, jsum)
    horizon = tie if tie > t else t + 1.0
    flat = np.array(times)
    assert_matches_event_kernel(flat, np.array([0, flat.size]), mu, alpha, x0, a, Q, horizon)


def path_orders(flat, offsets, mu, alpha, x0, a, Q, horizon):
    """(demand at the horizon, batch_stats orders, event-kernel orders) per path."""
    batch = batch_stats(flat, offsets, mu, alpha, x0, a, Q, horizon)[:, 0]
    for i in range(offsets.size - 1):
        jumps = flat[offsets[i] : offsets[i + 1]]
        jsum = 0.0
        for _ in jumps:
            jsum += alpha
        event = event_kernel_stats(jumps, mu, alpha, x0, a, Q, horizon)[0]
        yield mu * horizon + jsum, batch[i], event


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    mu=st.integers(1, 6),
    alpha=st.integers(1, 25),
    x0=st.integers(2, 120),
    Q=st.integers(1, 40),
    horizon4=st.integers(1, 80),
    steps=st.lists(st.lists(st.integers(0, 80), unique=True, max_size=12), min_size=1, max_size=4),
    a_share=st.floats(0.0, 1.0),
    tie=st.integers(-1, 4),
)
def test_order_count_formula_on_lattice(mu, alpha, x0, Q, horizon4, steps, a_share, tie):
    # R_t = max(floor((D_t - a)/Q) + 1, 0): on a quarter-unit lattice the
    # floor is exact; with tie >= 0 the first path's D_t lands exactly on
    # the threshold a + tie*Q, jumps may sit at the horizon itself
    horizon = horizon4 / 4.0
    paths = [sorted(k / 4.0 for k in ks if k <= horizon4) for ks in steps]
    flat, offsets = pack(paths)
    a = float(min(max(round(a_share * x0), 1), x0 - 1))
    if tie >= 0 and 0 < mu * horizon + alpha * len(paths[0]) - tie * Q < x0:
        a = mu * horizon + alpha * len(paths[0]) - tie * Q
    for demand, batch, event in path_orders(
        flat, offsets, float(mu), float(alpha), float(x0), a, float(Q), horizon
    ):
        assert batch == event == max(math.floor((demand - a) / Q) + 1, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.05, 20.0),
    alpha=st.floats(0.05, 30.0),
    lam=st.floats(0.01, 5.0),
    x0=st.floats(1.0, 200.0),
    a_share=st.floats(0.01, 0.99),
    Q=st.one_of(st.floats(0.1, 100.0), st.floats(0.01, 0.5)),
    horizon=st.floats(0.01, 20.0),
    seed=st.integers(0, 2**31),
)
def test_order_count_is_thresholds_reached(mu, alpha, lam, x0, a_share, Q, horizon, seed):
    # off the lattice the floor rounds; R_t counts the thresholds
    # a + (n-1)Q, n >= 1, that D_t has reached, computed as the kernels
    # compute them
    a = a_share * x0
    flat, offsets = batch_jump_times(ProcessParams(mu=mu, alpha=alpha, lam=lam), horizon, seed, 6)
    for demand, batch, event in path_orders(flat, offsets, mu, alpha, x0, a, Q, horizon):
        reached = 0
        while a + Q * reached <= demand:
            reached += 1
        assert batch == event == reached


def test_batch_stats_ties_at_jump_and_horizon():
    # thresholds 5, 10, 15, 20: drift reaches 5 exactly at the jump at
    # t=1, the jump lifts demand to 15 and clears 10 and 15, and drift
    # reaches 20 exactly at the horizon
    flat = np.array([1.0])
    offsets = np.array([0, 1])
    row = batch_stats(flat, offsets, 5.0, 10.0, 20.0, 5.0, 5.0, 2.0)[0]
    *want, neg = event_kernel_stats(flat, 5.0, 10.0, 20.0, 5.0, 5.0, 2.0)
    assert row[0] == want[0] == 4
    assert neg == 0.0
    assert row.tolist() == pytest.approx(list(want), abs=1e-12)


@pytest.mark.parametrize(
    "mu, alpha, x0, a, Q, horizon, jumps, k",
    [
        # the only jump lifts demand to just below a, so no order fires
        # at it, but the drift crossing of a rounds onto the jump time:
        # that order is held over no time and the inventory never rests
        # at x0 - a
        (
            10.92027297676691, 17.4864491818054, 129.4644372012411,
            55.197578789679675, 8.104458905834363, 3.6968774172569034,
            [3.453313821742865], 0,
        ),
        # the same at the third jump with a + 4Q, but the crossing of
        # a + 5Q at t = 7.635 does leave the inventory at x0 - a
        (
            14.57418049483272, 7.026708533379493, 108.31290563172361,
            104.23585536410452, 5.624711280011589, 8.02042531548375,
            [6.669956287778278, 6.9596956681942705, 7.2494350486102626], 4,
        ),
    ],
    ids=["never-rests", "rests-later"],
)
def test_batch_stats_crossing_rounded_onto_a_jump(mu, alpha, x0, a, Q, horizon, jumps, k):
    flat = np.array(jumps)
    jsum = 0.0
    for _ in jumps:
        jsum += alpha
    assert (a + Q * k - jsum) / mu == flat[-1]
    assert_matches_event_kernel(flat, np.array([0, flat.size]), mu, alpha, x0, a, Q, horizon)


def test_stats_from_longest_horizon_equal_fresh_batches(ref_process, ref_policy):
    # one batch to the latest time, cut at each earlier one, gives the
    # bits of a batch sampled to that time
    times = [2.0, 10.0, 5.0]
    shared = path_stats(ref_process, ref_policy, times, 3000, base_seed=61)
    for k, t in enumerate(times):
        fresh = path_stats(ref_process, ref_policy, t, 3000, base_seed=61)
        for key, values in fresh.items():
            assert np.array_equal(shared[key][k], values), (key, t)


def cut_batch_stats(flat, offsets, mu, alpha, x0, a, Q, horizons):
    """Oracle for the one walk: each horizon's own single-horizon call, on
    the whole batch at the longest horizon and on the batch cut by
    ``truncate_batch`` at each shorter one."""
    longest = max(horizons)
    return [
        batch_stats(
            *((flat, offsets) if h == longest else truncate_batch(flat, offsets, h)),
            mu, alpha, x0, a, Q, h,
        )
        for h in horizons
    ]


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    mu=st.sampled_from([1, 2, 4, 3, 5]),
    alpha=st.integers(1, 25),
    x0=st.integers(2, 120),
    a_share=st.floats(0.0, 1.0),
    Q=st.integers(1, 40),
    horizons4=st.lists(st.integers(1, 80), min_size=1, max_size=5),
    steps=st.lists(st.lists(st.integers(0, 80), unique=True, max_size=12), min_size=1, max_size=5),
)
def test_one_walk_gives_each_horizon_the_bits_of_its_cut_batch_on_lattice(
    mu, alpha, x0, a_share, Q, horizons4, steps
):
    # quarter-unit lattice with integer a, Q and alpha, and mu in 1, 2, 4
    # for most examples: demand is exact and drift crossings fall on the
    # lattice, so jumps land exactly on shorter horizons, on crossings and
    # at the batch's own (longest) horizon, where every packed jump counts;
    # the horizons come unsorted and repeated
    horizons = [k / 4.0 for k in horizons4]
    longest = max(horizons4)
    a = float(min(max(round(a_share * x0), 1), x0 - 1))
    flat, offsets = pack([sorted(k / 4.0 for k in ks if k <= longest) for ks in steps])
    args = (float(mu), float(alpha), float(x0), a, float(Q))
    got = batch_stats(flat, offsets, *args, horizons)
    for row, want in zip(got, cut_batch_stats(flat, offsets, *args, horizons)):
        assert_bits_equal(row, want)
    assert_bits_equal(batch_stats(flat, offsets, *args, longest / 4.0), got[horizons4.index(longest)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.05, 20.0),
    alpha=st.floats(0.05, 30.0),
    lam=st.floats(0.01, 5.0),
    x0=st.floats(1.0, 200.0),
    a_share=st.floats(0.01, 0.99),
    Q=st.one_of(st.floats(0.1, 100.0), st.floats(0.01, 0.5)),
    horizons=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4),
    on_jumps=st.lists(st.integers(0, 2**31), max_size=2),
    seed=st.integers(0, 2**31),
)
def test_one_walk_equals_fresh_batches(
    mu, alpha, lam, x0, a_share, Q, horizons, on_jumps, seed
):
    # sampled paths, with shorter horizons also placed exactly on jumps of
    # the batch: each row has the bits of a batch sampled to its horizon
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    flat, offsets = batch_jump_times(process, max(horizons), seed, 24)
    horizons = horizons + [float(flat[i % flat.size]) for i in on_jumps if flat.size]
    args = (mu, alpha, x0, a_share * x0, Q)
    got = batch_stats(flat, offsets, *args, horizons)
    cut = cut_batch_stats(flat, offsets, *args, horizons)
    for row, h, want in zip(got, horizons, cut):
        assert_bits_equal(row, want)
        assert_bits_equal(row, batch_stats(*batch_jump_times(process, h, seed, 24), *args, h))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.05, 20.0),
    alpha=st.floats(0.05, 30.0),
    x0=st.floats(1.0, 200.0),
    a_share=st.floats(0.01, 0.99),
    Q=st.floats(0.01, 50.0),
    picks=st.lists(st.tuples(st.sampled_from([0, 1, 2]), st.floats(0.01, 1.0)), max_size=15),
    cuts=st.lists(st.tuples(st.sampled_from([0, 1, 2, 3]), st.floats(0.0, 1.0)), min_size=1, max_size=4),
)
def test_one_walk_at_float_ties_equals_cut_batches(mu, alpha, x0, a_share, Q, picks, cuts):
    # jumps on drift crossings as the kernel rounds them (tie 1) or where
    # the jump lifts demand onto a threshold (tie 2), as in
    # test_batch_stats_matches_event_kernel_at_float_ties; the shorter
    # horizons fall on a jump (tie 1), on the next crossing after one
    # (tie 2), an ulp past one (tie 3: a crossing there rounds onto the
    # jump, so the inventory just before the jump can be the minimum) or
    # between jumps (tie 0)
    a = a_share * x0

    def next_crossing(t, jsum):
        k = max(math.floor((mu * t + jsum - a) / Q) + 1, 0)
        return (a + Q * k - jsum) / mu

    times, sums, t, jsum = [], [], 0.0, 0.0
    for tie, gap in picks:
        t_next = t + gap
        if tie:
            t_tie = next_crossing(t, jsum + alpha * (tie - 1))
            t_next = t_tie if t_tie > t else t_next
        if t_next > t:
            times.append(t_next)
            t, jsum = t_next, jsum + alpha
            sums.append(jsum)
    longest = t + 1.0
    horizons = [longest]
    for tie, share in cuts:
        i = min(int(share * len(times)), len(times) - 1)
        if tie == 1 and times:
            horizons.append(times[i])
        elif tie == 2 and times:
            h = next_crossing(times[i], sums[i])
            horizons.append(h if 0.0 < h < longest else times[i])
        elif tie == 3 and times:
            horizons.append(float(np.nextafter(times[i], np.inf)))
        else:
            horizons.append(max(share * longest, 1e-3))
    flat = np.array(times)
    offsets = np.array([0, flat.size])
    args = (mu, alpha, x0, a, Q)
    got = batch_stats(flat, offsets, *args, horizons)
    for row, want in zip(got, cut_batch_stats(flat, offsets, *args, horizons)):
        assert_bits_equal(row, want)


def test_one_walk_takes_a_scalar_or_a_sequence(ref_process, ref_policy):
    flat, offsets = batch_jump_times(ref_process, 10.0, 7, 50)
    args = (ref_process.mu, ref_process.alpha, ref_policy.x0, ref_policy.a, ref_policy.Q)
    one = batch_stats(flat, offsets, *args, 10.0)
    assert one.shape == (50, 5)
    rows = batch_stats(flat, offsets, *args, [10.0, 3.0, 10.0, 3.0])
    assert rows.shape == (4, 50, 5)
    assert_bits_equal(rows[0], one)
    assert_bits_equal(rows[2], one)
    assert_bits_equal(rows[1], rows[3])
    assert_bits_equal(rows[1], batch_stats(*truncate_batch(flat, offsets, 3.0), *args, 3.0))


def test_one_walk_keeps_the_stretch_end_before_a_crossing_rounded_onto_a_jump():
    # the first jump lifts demand to just below a, and the drift crossing
    # of a rounds onto it, so the order comes in the next segment and is
    # held over no time: the minimum is the inventory just before that
    # jump, x0 - mu*t, which no order-placing segment holds; the horizon
    # lies an ulp past the second jump
    mu, alpha, x0, a, Q = (
        12.333953836705613, 3.7350004439300637, 75.43759382858383,
        25.8349953739672, 39.015608690864916,
    )
    flat = np.array([1.7918013333460003, 2.395020714137256, 4.349424640571755])
    offsets = np.array([0, flat.size])
    assert (a - alpha) / mu == flat[0] and mu * flat[0] + alpha < a
    h = float(np.nextafter(flat[1], np.inf))
    got = batch_stats(flat, offsets, mu, alpha, x0, a, Q, [5.0, h])
    assert_bits_equal(got[1], batch_stats(flat[:2], np.array([0, 2]), mu, alpha, x0, a, Q, h))
    assert got[1, 0, 0] == 1
    assert got[1, 0, 4] == x0 - mu * flat[0]


def scaled_costs(c_o, c_h, c_so, mode):
    """CostParams of a changed unit; c_so scaled down can fall below a
    per-order c_o, which the record warns of."""
    if c_o <= c_so:
        return CostParams(c_o=c_o, c_h=c_h, c_so=c_so, ordering_mode=mode)
    with pytest.warns(UserWarning, match="cost ordering"):
        return CostParams(c_o=c_o, c_h=c_h, c_so=c_so, ordering_mode=mode)


@pytest.mark.parametrize("s", [4.0, 0.5])
@pytest.mark.parametrize("mode", list(OrderingMode))
@pytest.mark.parametrize("unit", ["time", "demand"])
def test_paths_independent_of_unit(unit, mode, s, ref_process, ref_policy):
    # the same paths in a time unit s times shorter (mu, lam times s,
    # horizons over s, c_h and c_so per unit of time times s) or a demand
    # unit s times smaller (mu, alpha, x0, a, Q times s, c_h and c_so over
    # s, and c_o per unit over s): each path's gaps are its exponentials
    # over lam, so a power of two s scales every jump time, level and
    # integral exactly, and every order count and cost keeps its bits
    p, pol = ref_process, ref_policy
    horizons = np.array([4.0, 7.0, 10.0])
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=mode)
    per_unit = mode is OrderingMode.PER_UNIT_TIMES_Q
    if unit == "time":
        process, policy = ProcessParams(mu=s * p.mu, alpha=p.alpha, lam=s * p.lam), pol
        scaled = scaled_costs(5.0, s * 1.0, s * 10.0, mode)
        times = horizons / s
    else:
        process = ProcessParams(mu=s * p.mu, alpha=s * p.alpha, lam=p.lam)
        policy = PolicyParams(x0=s * pol.x0, a=s * pol.a, Q=s * pol.Q)
        scaled = scaled_costs(5.0 / s if per_unit else 5.0, 1.0 / s, 10.0 / s, mode)
        times = horizons
    base = path_stats(p, pol, horizons, 300, base_seed=5)
    other = path_stats(process, policy, times, 300, base_seed=5)
    assert np.array_equal(other["orders"], base["orders"])
    assert base["orders"].min() < base["orders"].max()
    for got, want in zip(path_costs(scaled, policy.Q, other), path_costs(costs, pol.Q, base)):
        assert_bits_equal(got, want)
