"""Exact Monte Carlo of the controlled inventory process.

Between jumps the inventory falls at the drift rate, so threshold
crossing times solve in closed form and no time grid is involved.  An
order of Q arrives the instant cumulative demand reaches the next
threshold a + (n-1)Q; one jump may fire several orders when it clears
several thresholds.  ``simulate_events`` walks one path event by event
and returns its log.  ``batch_stats`` computes the path functionals of a
whole batch with array operations over its jumps: demand is monotone,
so the orders of each stretch between two jumps are a run of
consecutive thresholds, the integral of the order count is a sum of
arithmetic series, and X = x0 - D + Q*R gives the inventory integral,
all without quadrature error.  This module is the brute-force oracle
for every closed-form quantity.  It does not measure the shortage
term: since 0 < a < x0 the inventory never falls below x0 - a > 0, so
``batch_stats`` writes the negative-part integral as 0.0.  Only the
minimum inventory, which gives ``shortage_fraction``, is observed.
"""

import json
from dataclasses import dataclass

import numpy as np

from .demand import SamplePath, batch_jump_times, path_segments, sample_path, truncate_batch
from .errors import ParameterError
from .params import CostParams, PolicyParams, ProcessParams

KIND_JUMP = 0
KIND_ORDER = 1
KIND_LABELS = ("jump", "order")


def simulate_events(jumps, mu, alpha, x0, a, Q, horizon):
    """Walk one path event by event; returns its log, a list of
    (time, kind, inventory after) in time order.

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
    log = []
    for i in range(nj + 1):
        t_next = jumps[i] if i < nj else horizon
        while True:
            t_cross = (thr - jsum) / mu
            if t_cross > t_next:
                break
            orders += 1
            thr = a + Q * orders
            log.append((t_cross, KIND_ORDER, x0 - (mu * t_cross + jsum) + Q * orders))
        if i >= nj:
            break
        tj = t_next
        jsum += alpha
        d = mu * tj + jsum
        log.append((tj, KIND_JUMP, x0 - d + Q * orders))
        while d >= thr:
            orders += 1
            thr = a + Q * orders
            log.append((tj, KIND_ORDER, x0 - d + Q * orders))
    return log


def _first_true(pred, x):
    """Smallest k >= 0 with pred(k), for pred monotone in k: start at
    floor(x) + 1, which only a rounding can put off, and step to it."""
    k = np.maximum(np.floor(x) + 1.0, 0.0).astype(np.int64)
    while True:
        up = ~pred(k)
        if not up.any():
            break
        k += up
    while True:
        down = (k > 0) & pred(k - 1)
        if not down.any():
            break
        k -= down
    return k


def batch_stats(flat, offsets, mu, alpha, x0, a, Q, horizon):
    """Exact path functionals on [0, horizon] of each packed jump path.

    Returns an (n_paths, 6) array with the columns of ``path_stats``:
    orders, final inventory, integral of the order count, of max(X, 0)
    and of max(-X, 0), and the minimum inventory.

    Demand is monotone, so the orders placed in each segment between two
    jumps are a run of consecutive thresholds.  The orders standing after
    the segment's drift and after its jump are the smallest k with
    (a + Q*k - jsum)/mu > t_end and with a + Q*k > demand, the predicates
    ``simulate_events`` stops on, so the counts match it exactly.  The
    drift run adds an arithmetic series to the integral of R, and the
    inventory integral is x0*T - (integral of D) + Q*(integral of R).
    Since 0 < a < x0 the inventory never falls below x0 - a > 0, so the
    negative-part integral is 0.  Paths go through in chunks of about
    ``CHUNK_SEGMENTS`` segments (see ``demand.path_segments``).
    """
    out = np.empty((offsets.shape[0] - 1, 6))
    for seg in path_segments(flat, offsets, alpha, horizon):
        t_end, s_before = seg.t_end, seg.s_before
        drift = _first_true(
            lambda k: (a + Q * k - s_before) / mu > t_end, (mu * t_end + s_before - a) / Q
        )
        demand = mu * t_end[seg.is_jump] + seg.s_after[seg.is_jump]
        jump = np.zeros_like(drift)
        jump[seg.is_jump] = _first_true(lambda k: a + Q * k > demand, (demand - a) / Q)
        # orders standing after each segment: a running maximum per path
        shift = seg.path * (int(max(drift.max(), jump.max())) + 1)
        after = np.maximum.accumulate(np.maximum(drift, jump) + shift) - shift
        before = np.empty_like(after)
        before[1:] = after[:-1]
        before[seg.start] = 0
        t_prev = np.empty_like(t_end)
        t_prev[1:] = t_end[:-1]
        t_prev[seg.start] = 0.0
        drifted = np.maximum(before, drift)
        n_drift = drifted - before
        t_first = (a + Q * before - s_before) / mu
        # each order adds horizon - (its time) to the integral of R
        order_ages = (
            n_drift * (horizon - t_first)
            - (Q / mu) * (n_drift * (n_drift - 1) // 2)
            + (after - drifted) * (horizon - t_end)
        )
        int_r = np.bincount(seg.path, order_ages, minlength=seg.start.size)
        jump_ages = np.bincount(
            seg.path[seg.is_jump], horizon - t_end[seg.is_jump], minlength=seg.start.size
        )
        # inventory just before each jump and at the horizon; a drift
        # crossing held over positive time leaves x0 - a as its left limit,
        # and the run has one unless it rounded onto the event before it
        inv = x0 - (mu * t_end + s_before) + Q * drifted
        t_last = (a + Q * (drifted - 1) - s_before) / mu
        low = np.where((n_drift > 0) & (t_last > t_prev), np.minimum(inv, x0 - a), inv)
        rows = out[seg.first : seg.first + seg.start.size]
        rows[:, 0] = after[seg.last]
        rows[:, 1] = inv[seg.last]
        rows[:, 2] = int_r
        rows[:, 3] = x0 * horizon - (0.5 * mu * horizon * horizon + alpha * jump_ages) + Q * int_r
        rows[:, 4] = 0.0
        rows[:, 5] = np.minimum(np.minimum.reduceat(low, seg.start), x0)
    return out


@dataclass(frozen=True)
class Trajectory:
    """Event log of one simulated path: jumps and the orders they trigger."""

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
    """Simulate one path exactly and return its event log; the path is
    path 0 of the batch keyed ``seed``, the one ``path_stats`` sees first."""
    path = sample_path(params, horizon, seed)
    return trajectory_from_path(path, policy)


def trajectory_from_path(path: SamplePath, policy: PolicyParams) -> Trajectory:
    log = simulate_events(
        path.jump_times,
        path.params.mu,
        path.params.alpha,
        policy.x0,
        policy.a,
        policy.Q,
        path.horizon,
    )
    times, kinds, inv = np.array(log, dtype=np.float64).reshape(-1, 3).T.copy()
    return Trajectory(times=times, kinds=kinds.astype(np.int8), inventory_after=inv)


def path_stats(
    params: ProcessParams,
    policy: PolicyParams,
    horizon,
    n_paths: int,
    base_seed: int,
) -> dict:
    """Per-path functionals of paths 0 .. n_paths - 1 of the batch keyed
    ``base_seed`` (``demand.batch_jump_times``).

    Keys: orders, inv_end, int_renewals, pos_integral, neg_integral,
    min_inv (each an array of length n_paths).  ``horizon`` may also be
    a sequence: one batch is then sampled to the longest horizon, each
    shorter one keeps its jumps before it (the batch it would sample
    itself), and every array has one row per horizon.
    """
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    horizons = np.atleast_1d(np.asarray(horizon, dtype=np.float64))
    if horizons.size == 0 or not np.all(horizons > 0):
        raise ParameterError(f"horizons must be positive, got {horizon}")
    longest = float(horizons.max())
    flat, offsets = batch_jump_times(params, longest, base_seed, n_paths)
    out = np.empty((horizons.size, n_paths, 6))
    for row, h in zip(out, horizons.tolist()):
        jumps = (flat, offsets) if h == longest else truncate_batch(flat, offsets, h)
        row[...] = batch_stats(
            *jumps, params.mu, params.alpha, policy.x0, policy.a, policy.Q, h
        )
    if np.ndim(horizon) == 0:
        out = out[0]
    return {
        "orders": out[..., 0],
        "inv_end": out[..., 1],
        "int_renewals": out[..., 2],
        "pos_integral": out[..., 3],
        "neg_integral": out[..., 4],
        "min_inv": out[..., 5],
    }


def path_costs(costs: CostParams, Q: float, stats: dict):
    """Per-path (ordering, holding, shortage, total) cost of ``path_stats``
    output: c_o(Q)*orders, c_h*int X+ and c_so*int X-, elementwise, so
    each horizon row costs what its own batch would."""
    ordering = costs.order_cost(Q) * stats["orders"]
    holding = costs.c_h * stats["pos_integral"]
    shortage = costs.c_so * stats["neg_integral"]
    return ordering, holding, shortage, ordering + holding + shortage


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
) -> SimSummary:
    if n_paths < 2:
        raise ParameterError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    stats = path_stats(params, policy, horizon, n_paths, base_seed)
    ordering, holding, shortage, total = path_costs(costs, policy.Q, stats)
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
