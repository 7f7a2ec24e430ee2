"""Event-driven Monte Carlo of the controlled inventory process.

Between jumps the inventory falls at the drift rate, so threshold
crossing times solve in closed form and no time grid is involved.  An
order of Q arrives the instant cumulative demand reaches the next
threshold a + (n-1)Q; one jump may fire several orders when it clears
several thresholds.  Per-segment integrals of the positive and negative
inventory parts are exact trapezoids, so realized costs carry no
quadrature error.  This module is the brute-force oracle for every
closed-form quantity and the only measurement of the shortage term.
"""

import json
from dataclasses import dataclass

import numpy as np

from .cost import CostBreakdown
from .demand import SamplePath, batch_jump_times, sample_path
from .errors import ParameterError
from .params import CostParams, PolicyParams, ProcessParams

KIND_JUMP = 0
KIND_ORDER = 1
KIND_LABELS = ("jump", "order")


def simulate_events(jumps, mu, alpha, x0, a, Q, horizon, times, kinds, inv):
    """Fill event arrays (time, kind, inventory after) and return the count.

    Drift crossings are t = (threshold - alpha*jumps_so_far) / mu; a
    crossing exactly at the horizon still fires.  The next threshold is
    a + Q*orders from the order count, not a running sum of Q: a running
    sum drifts by an ulp or so per order, and the left-limit inventory
    x0 - threshold + Q*(orders before) would drift below x0 - a with it.
    """
    nj = jumps.shape[0]
    thr = a
    jsum = 0.0
    orders = 0
    m = 0
    for i in range(nj + 1):
        t_next = jumps[i] if i < nj else horizon
        while True:
            t_cross = (thr - jsum) / mu
            if t_cross > t_next:
                break
            orders += 1
            thr = a + Q * orders
            times[m] = t_cross
            kinds[m] = KIND_ORDER
            inv[m] = x0 - (mu * t_cross + jsum) + Q * orders
            m += 1
        if i >= nj:
            break
        tj = t_next
        jsum += alpha
        d = mu * tj + jsum
        times[m] = tj
        kinds[m] = KIND_JUMP
        inv[m] = x0 - d + Q * orders
        m += 1
        while d >= thr:
            orders += 1
            thr = a + Q * orders
            times[m] = tj
            kinds[m] = KIND_ORDER
            inv[m] = x0 - d + Q * orders
            m += 1
    return m


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
    for e in range(n_events):
        t1 = times[e]
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
            if v0 < min_inv:
                min_inv = v0
            if v1 < min_inv:
                min_inv = v1
        if kinds[e] == KIND_ORDER:
            orders += 1
            int_r += horizon - t1
        t0 = t1
        v0 = inv[e]
    dt = horizon - t0
    v1 = v0 - mu * dt
    if dt > 0.0:
        if v1 >= 0.0:
            pos += 0.5 * (v0 + v1) * dt
        elif v0 <= 0.0:
            neg += -0.5 * (v0 + v1) * dt
        else:
            tc = v0 / mu
            pos += 0.5 * v0 * tc
            neg += 0.5 * (-v1) * (dt - tc)
        if v0 < min_inv:
            min_inv = v0
    if v1 < min_inv:
        min_inv = v1
    return pos, neg, int_r, orders, v1, min_inv


def batch_stats(flat, offsets, mu, alpha, x0, a, Q, horizon, times, kinds, inv, out):
    n_paths = offsets.shape[0] - 1
    for i in range(n_paths):
        jumps = flat[offsets[i] : offsets[i + 1]]
        m = simulate_events(jumps, mu, alpha, x0, a, Q, horizon, times, kinds, inv)
        pos, neg, int_r, orders, v_end, min_inv = cost_integrals(
            times, kinds, inv, m, mu, x0, horizon
        )
        out[i, 0] = orders
        out[i, 1] = v_end
        out[i, 2] = int_r
        out[i, 3] = pos
        out[i, 4] = neg
        out[i, 5] = min_inv


def _event_capacity(n_jumps, params, policy, horizon):
    max_demand = params.mu * horizon + params.alpha * n_jumps
    max_orders = int(max((max_demand - policy.a) / policy.Q, 0.0)) + 2
    return n_jumps + max_orders + 4


@dataclass(frozen=True)
class Trajectory:
    """Event log of one simulated path: jumps and the orders they trigger."""

    params: ProcessParams
    policy: PolicyParams
    horizon: float
    seed: int
    times: np.ndarray
    kinds: np.ndarray
    inventory_after: np.ndarray

    @property
    def events(self):
        return [
            (float(t), KIND_LABELS[int(k)], float(v))
            for t, k, v in zip(self.times, self.kinds, self.inventory_after)
        ]

    @property
    def n_orders(self) -> int:
        return int(np.sum(self.kinds == KIND_ORDER))


def simulate(params: ProcessParams, policy: PolicyParams, horizon: float, seed: int) -> Trajectory:
    """Simulate one path exactly and return its event log."""
    path = sample_path(params, horizon, seed)
    return trajectory_from_path(path, policy)


def trajectory_from_path(path: SamplePath, policy: PolicyParams) -> Trajectory:
    cap = _event_capacity(path.jump_times.size, path.params, policy, path.horizon)
    times = np.empty(cap)
    kinds = np.empty(cap, dtype=np.int8)
    inv = np.empty(cap)
    m = simulate_events(
        path.jump_times,
        path.params.mu,
        path.params.alpha,
        policy.x0,
        policy.a,
        policy.Q,
        path.horizon,
        times,
        kinds,
        inv,
    )
    return Trajectory(
        params=path.params,
        policy=policy,
        horizon=path.horizon,
        seed=path.seed,
        times=times[:m].copy(),
        kinds=kinds[:m].copy(),
        inventory_after=inv[:m].copy(),
    )


def realized_cost(traj: Trajectory, costs: CostParams) -> CostBreakdown:
    """Costs realized on one path: holding on the positive inventory
    part, shortage on the backordered part, ordering per mode."""
    pos, neg, _, orders, _, _ = cost_integrals(
        traj.times,
        traj.kinds,
        traj.inventory_after,
        traj.times.size,
        traj.params.mu,
        traj.policy.x0,
        traj.horizon,
    )
    ordering = costs.order_cost(traj.policy.Q) * orders
    holding = costs.c_h * pos
    shortage = costs.c_so * neg
    return CostBreakdown(
        ordering=ordering,
        holding=holding,
        shortage=shortage,
        total=ordering + holding + shortage,
        t=traj.horizon,
    )


def path_stats(
    params: ProcessParams,
    policy: PolicyParams,
    horizon: float,
    n_paths: int,
    base_seed: int,
    seed_stride: int = 1,
) -> dict:
    """Per-path functionals for n_paths paths seeded base_seed + i*stride.

    Keys: orders, inv_end, int_renewals, pos_integral, neg_integral,
    min_inv (each an array of length n_paths).
    """
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    if seed_stride == 1:
        flat, offsets = batch_jump_times(params, horizon, base_seed, n_paths)
    else:
        # test hook: stride 0 replays one seed n_paths times
        chunks = [
            batch_jump_times(params, horizon, base_seed + i * seed_stride, 1)[0]
            for i in range(n_paths)
        ]
        offsets = np.zeros(n_paths + 1, dtype=np.int64)
        for i, c in enumerate(chunks):
            offsets[i + 1] = offsets[i] + c.size
        flat = np.concatenate(chunks)
    max_jumps = int(np.max(np.diff(offsets))) if n_paths else 0
    cap = _event_capacity(max_jumps, params, policy, horizon)
    times = np.empty(cap)
    kinds = np.empty(cap, dtype=np.int8)
    inv = np.empty(cap)
    out = np.empty((n_paths, 6))
    batch_stats(
        flat,
        offsets,
        params.mu,
        params.alpha,
        policy.x0,
        policy.a,
        policy.Q,
        horizon,
        times,
        kinds,
        inv,
        out,
    )
    return {
        "orders": out[:, 0],
        "inv_end": out[:, 1],
        "int_renewals": out[:, 2],
        "pos_integral": out[:, 3],
        "neg_integral": out[:, 4],
        "min_inv": out[:, 5],
    }


@dataclass(frozen=True)
class SimSummary:
    """Aggregate path statistics; holding is on the positive inventory
    part, with the signed-inventory variant kept alongside so the
    difference (the shortage approximation error) stays visible."""

    n_paths: int
    mean_total: float
    stderr_total: float
    mean_ordering: float
    mean_holding: float
    mean_shortage: float
    mean_holding_signed: float
    mean_orders: float
    shortage_fraction: float


def mc_summary(
    params: ProcessParams,
    policy: PolicyParams,
    costs: CostParams,
    horizon: float,
    n_paths: int,
    base_seed: int,
    seed_stride: int = 1,
) -> SimSummary:
    if n_paths < 2:
        raise ParameterError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    stats = path_stats(params, policy, horizon, n_paths, base_seed, seed_stride)
    ordering = costs.order_cost(policy.Q) * stats["orders"]
    holding = costs.c_h * stats["pos_integral"]
    shortage = costs.c_so * stats["neg_integral"]
    total = ordering + holding + shortage
    holding_signed = costs.c_h * (stats["pos_integral"] - stats["neg_integral"])
    return SimSummary(
        n_paths=n_paths,
        mean_total=float(np.mean(total)),
        stderr_total=float(np.std(total, ddof=1) / np.sqrt(n_paths)),
        mean_ordering=float(np.mean(ordering)),
        mean_holding=float(np.mean(holding)),
        mean_shortage=float(np.mean(shortage)),
        mean_holding_signed=float(np.mean(holding_signed)),
        mean_orders=float(np.mean(stats["orders"])),
        shortage_fraction=float(np.mean(stats["min_inv"] < 0)),
    )


def save_trajectory_csv(traj: Trajectory, file) -> None:
    with open(file, "w") as fh:
        fh.write("t,kind,inventory\n")
        for t, kind, v in traj.events:
            fh.write(f"{t!r},{kind},{v!r}\n")


def save_summary_json(summary: SimSummary, file) -> None:
    with open(file, "w") as fh:
        json.dump(summary.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
