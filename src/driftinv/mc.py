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
all without quadrature error.  It walks a batch once for all its
horizons: the order counts are taken once per segment, and a horizon
short of the batch's own adds only the segments that place orders, the
one before each and a closing segment per path.  Each count is
floor((D - a)/Q) + 1 unless D lies within a stated rounding bound of a
threshold, where the exact predicates decide
(``demand.first_true_near_ties``).  This module is the brute-force oracle
for every closed-form quantity.  It has no shortage term: since
0 < a < x0 the inventory never falls below x0 - a > 0, so the integral
of max(-X, 0) is identically zero and no function computes it.  Only
the minimum inventory, which gives ``shortage_fraction``, is observed.
"""

from dataclasses import dataclass

import numpy as np

from .demand import (
    JUMP_BUDGET, SamplePath, batch_jump_times, first_true_near_ties, path_segments, sample_path,
)
from .errors import ParameterError
from .params import CostParams, PolicyParams, ProcessParams, _require_no_overflow

KIND_JUMP = 0
KIND_ORDER = 1


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


def batch_stats(flat, offsets, mu, alpha, x0, a, Q, horizon):
    """Exact path functionals on [0, h] of each packed jump path, for each
    horizon h of ``horizon``.

    Returns an (n_paths, 5) array for a scalar horizon, and an
    (n_horizons, n_paths, 5) array for a sequence (in any order, with
    repeats), with the columns of ``path_stats``: orders, final inventory,
    integral of the order count and of X, and the minimum inventory.  The
    longest horizon is the batch's own, where every packed jump counts;
    a shorter one keeps the jumps before it, as a batch sampled to it
    would (see the seeding contract in ``demand``).

    Demand is monotone, so the orders placed in each segment between two
    jumps are a run of consecutive thresholds, order n at the time min over
    segments of max(t_start, (L_n - s_before)/mu) (``demand.Segments``;
    ``t_start`` is the jump before a segment, or 0.0).  The orders standing
    after the segment's drift and after its jump are the smallest k with
    (a + Q*k - jsum)/mu > t_end and with a + Q*k > demand, the predicates
    ``simulate_events`` stops on, so the counts match it exactly; they are
    floor((demand - a)/Q) + 1 away from ties (``first_true_near_ties``).
    The drift run adds an arithmetic series to the integral of R, and the
    inventory integral is x0*T - (integral of D) + Q*(integral of R).

    One walk over the segments to the longest horizon serves every
    horizon.  The order counts, the running order count and the inventory
    before each jump do not depend on the horizon, so each is taken once
    per segment, and the longest horizon sums them as a walk to it would.
    A shorter horizon h closes each path with a segment of its own, from
    its last jump before h to h.  Of the segments before that close, only
    those that place an order enter its integral of R, since every other
    adds (+-0.0) * (h - time) to a sum that starts at +0.0.  Only those and
    the segment before each of them enter its minimum: with no order the
    inventory only falls, so a stretch between orders is lowest at its
    end.  The stretch before the close needs no more, since the close
    places drift orders only where the longer segment it cuts does, and
    otherwise its own inventory is the lower.  Each sum adds its terms in
    the order of a walk to h, so every horizon gets the bits of a batch
    cut at it.  Paths go through in chunks of about ``CHUNK_SEGMENTS``
    segments (see ``demand.path_segments``).
    """
    horizons = np.atleast_1d(np.asarray(horizon, dtype=np.float64))
    longest = float(horizons.max())
    whole = np.flatnonzero(horizons == longest)
    cut = np.flatnonzero(horizons < longest)  # the horizons that cut the batch
    h_cut = horizons[cut][:, None]
    out = np.empty((horizons.size, offsets.shape[0] - 1, 5))
    for seg in path_segments(flat, offsets, alpha, longest):
        n = seg.start.size
        cols = slice(seg.first, seg.first + n)
        t_end, s_before = seg.t_end, seg.s_before
        drive = mu * t_end
        level = drive + s_before  # demand just before the jump, or at the horizon
        drift = first_true_near_ties(
            lambda k, i: (a + Q * k - s_before[i]) / mu > t_end[i], (level - a) / Q, a / Q
        )
        demand = drive + (s_before + alpha)
        jump = first_true_near_ties(lambda k, i: a + Q * k > demand[i], (demand - a) / Q, a / Q)
        jump[seg.last] = 0  # a closing segment ends in no jump
        # orders standing after each segment: a running maximum per path
        shift = seg.path * (int(max(drift.max(), jump.max())) + 1)
        after = np.maximum.accumulate(np.maximum(drift, jump) + shift) - shift
        before = np.empty_like(after)
        before[1:] = after[:-1]
        before[seg.start] = 0
        drifted = np.maximum(before, drift)
        n_drift = drifted - before
        by_jump = after - drifted
        t_first = (a + Q * before - s_before) / mu
        run = (Q / mu) * (n_drift * (n_drift - 1) // 2)
        # each order adds h - (its time) to the integral of R, and each
        # jump h - (its time) to that of D less mu*h*h/2; at h itself, a
        # closing segment adds 0.0
        wait = longest - t_end
        order_ages = n_drift * (longest - t_first) - run + by_jump * wait
        int_r = np.bincount(seg.path, order_ages, minlength=n)
        jump_ages = np.bincount(seg.path, wait, minlength=n)
        # inventory just before each jump and at the horizon; a drift
        # crossing held over positive time leaves x0 - a as its left limit,
        # and the run has one unless it rounded onto the event before it
        inv = x0 - level + Q * drifted
        t_last = (a + Q * (drifted - 1) - s_before) / mu
        low = np.where((n_drift > 0) & (t_last > seg.t_start), np.minimum(inv, x0 - a), inv)
        block = out[whole[0], cols]
        block[:, 0] = after[seg.last]
        block[:, 1] = inv[seg.last]
        block[:, 2] = int_r
        block[:, 3] = x0 * longest - (0.5 * mu * longest * longest + alpha * jump_ages) + Q * int_r
        block[:, 4] = np.minimum(np.minimum.reduceat(low, seg.start), x0)
        out[whole[1:], cols] = block
        if not cut.size:
            continue

        # a horizon h that cuts the batch closes each path with a segment
        # of its own, in place of its first segment that ends at or past h
        m = cut.size * n
        jumps = t_end < h_cut
        close = seg.start + np.add.reduceat(jumps, seg.start, axis=1, dtype=np.int64)
        h_close = np.repeat(h_cut, n)
        s_close, before_close = s_before[close].ravel(), before[close].ravel()
        drift_close = first_true_near_ties(
            lambda k, i: (a + Q * k - s_close[i]) / mu > h_close[i],
            (mu * h_close + s_close - a) / Q,
            a / Q,
        )
        after_close = np.maximum(before_close, drift_close)
        n_close = after_close - before_close
        # the jumps before h that place orders or come just before one, as
        # (row, segment) in walk order
        ends = after > before
        ends[:-1] |= ends[1:]
        row, picked = np.divmod(np.flatnonzero(jumps & ends), t_end.size)
        h_pick = h_cut[row, 0]
        keys = row * n + seg.path[picked]
        order_ages = (
            n_drift[picked] * (h_pick - t_first[picked])
            - run[picked]
            + by_jump[picked] * (h_pick - t_end[picked])
        )
        close_ages = (
            n_close * (h_close - (a + Q * before_close - s_close) / mu)
            - (Q / mu) * (n_close * (n_close - 1) // 2)
        )
        int_r = np.bincount(
            np.concatenate((keys, np.arange(m))),
            np.concatenate((order_ages, close_ages)),
            minlength=m,
        )
        jump_ages = np.bincount(
            (np.arange(0, m, n)[:, None] + seg.path).ravel(),
            np.maximum(h_cut - t_end, 0.0).ravel(),
            minlength=m,
        )
        inv_close = x0 - (mu * h_close + s_close) + Q * after_close
        t_last = (a + Q * (after_close - 1) - s_close) / mu
        lowest = np.where(
            (n_close > 0) & (t_last > seg.t_start[close].ravel()),
            np.minimum(inv_close, x0 - a),
            inv_close,
        )
        np.minimum.at(lowest, keys, low[picked])
        block = np.empty((m, 5))
        block[:, 0] = after_close
        block[:, 1] = inv_close
        block[:, 2] = int_r
        block[:, 3] = x0 * h_close - (0.5 * mu * h_close * h_close + alpha * jump_ages) + Q * int_r
        block[:, 4] = np.minimum(lowest, x0)
        out[cut, cols] = block.reshape(cut.size, n, 5)
    return out if np.ndim(horizon) else out[0]


@dataclass(frozen=True)
class Trajectory:
    """Event log of one simulated path: jumps and the orders they trigger."""

    times: np.ndarray
    kinds: np.ndarray
    inventory_after: np.ndarray

    @property
    def n_orders(self) -> int:
        return int(np.sum(self.kinds == KIND_ORDER))


def _check_order_budget(params: ProcessParams, policy: PolicyParams, horizon: float) -> None:
    """ParameterError when a path to ``horizon`` places more than JUMP_BUDGET orders."""
    expected = params.demand_rate * horizon / policy.Q
    if not expected <= JUMP_BUDGET:
        raise ParameterError(
            f"a path to horizon {horizon:g} at order quantity Q={policy.Q:g} places about "
            f"{expected:.3g} orders, more than the budget of {JUMP_BUDGET}; use a larger Q"
        )


def simulate(params: ProcessParams, policy: PolicyParams, horizon: float, seed: int) -> Trajectory:
    """Simulate one path exactly and return its event log; the path is
    path 0 of the batch keyed ``seed``, the one ``path_stats`` sees first."""
    _check_order_budget(params, policy, horizon)
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

    Keys: orders, inv_end, int_renewals, pos_integral (the integral of
    X, which never falls below x0 - a > 0) and min_inv, each an array
    of length n_paths.  ``horizon`` may also be a sequence: one batch is
    then sampled to the longest horizon, each shorter one keeps its
    jumps before it (the batch it would sample itself), and every array
    has one row per horizon.
    """
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    horizons = np.atleast_1d(np.asarray(horizon, dtype=np.float64))
    if horizons.size == 0 or not np.all(horizons > 0):
        raise ParameterError(f"horizons must be positive, got {horizon}")
    longest = float(horizons.max())
    _check_order_budget(params, policy, longest)
    flat, offsets = batch_jump_times(params, longest, base_seed, n_paths)
    out = batch_stats(
        flat, offsets, params.mu, params.alpha, policy.x0, policy.a, policy.Q, horizons
    )
    if np.ndim(horizon) == 0:
        out = out[0]
    return {
        "orders": out[..., 0],
        "inv_end": out[..., 1],
        "int_renewals": out[..., 2],
        "pos_integral": out[..., 3],
        "min_inv": out[..., 4],
    }


def path_costs(costs: CostParams, Q: float, stats: dict):
    """Per-path (ordering, holding, total) cost of ``path_stats`` output:
    c_o(Q)*orders and c_h*int X, elementwise, so each horizon row costs
    what its own batch would.  Nothing is ever short, so there is no
    shortage cost."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        ordering = costs.order_cost(Q) * stats["orders"]
        holding = costs.c_h * stats["pos_integral"]
        total = ordering + holding
    return _require_no_overflow(ordering, holding, total)


def sample_summary(sample):
    """Mean of a sample over paths and the standard error of that mean."""
    return float(np.mean(sample)), float(np.std(sample, ddof=1) / np.sqrt(sample.size))


def cost_summary(ordering, holding, total):
    """(mean ordering, mean holding, ``sample_summary`` of the total) of
    per-path costs, or a ParameterError naming the cost: a mean's sum or
    the standard error's squares can overflow where no path's cost does."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        return _require_no_overflow(
            float(np.mean(ordering)), float(np.mean(holding)), sample_summary(total)
        )


@dataclass(frozen=True)
class SimSummary:
    """Aggregate path statistics.  The inventory never falls below
    x0 - a > 0, so ``mean_shortage`` is 0.0 and ``mean_holding_signed``
    (holding on the signed inventory) equals ``mean_holding``; both stay
    in summary.json, whose format readers rely on."""

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
    mean_ordering, mean_holding, (mean_total, stderr_total) = cost_summary(
        *path_costs(costs, policy.Q, stats)
    )
    return SimSummary(
        n_paths=n_paths,
        mean_total=mean_total,
        stderr_total=stderr_total,
        mean_ordering=mean_ordering,
        mean_holding=mean_holding,
        mean_shortage=0.0,
        mean_holding_signed=mean_holding,
        mean_orders=float(np.mean(stats["orders"])),
        shortage_fraction=float(np.mean(stats["min_inv"] < 0)),
    )
