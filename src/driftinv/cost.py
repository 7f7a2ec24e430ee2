"""Closed-form expected inventory and expected total cost.

Expected inventory is x0 - (mu + alpha*lam) t + Q E[R_t], with R_t the
order count; the expected total cost is its ordering plus its holding
component, from E[R_t] and E[int_0^t R].  Two closed forms give that
pair under one contract: a scalar time gives floats and a grid arrays of
its shape, the series is summed once over the whole grid, and the first
bad time of the grid is named in a DomainError or, from the one cap
check (``renewal.check_converged``), a SeriesNotConvergedError.

- ``expected_renewal_sums``: the paper's gamma first-passage series
  (``renewal.py``), behind ``cost_curve`` and ``expected_total_cost``;
  ``sweep`` sums its many-policy form, ``policy_renewal_sums``, once;
- ``exact_renewal_sums``: the exact Poisson-law form, behind
  ``exact_moments``.  With zero lead time D_t = mu*t + alpha*N_t is
  monotone, so R_t = max(floor((D_t - a)/Q) + 1, 0) and both sums are
  series over the Poisson law of N_t.

``cost_curve`` and ``exact_moments`` turn their pair into one
``CostCurve`` through one builder and differ only in the sums function
and in ``cost_curve``'s check that its grid is strictly increasing.

The same identity puts the inventory in (x0 - a, x0 - a + Q] once D_t
reaches a and above x0 - a before, so nothing is ever short: the
breakdown has no shortage field, the cost CSVs write their shortage
column as 0.0, and the Monte Carlo has no shortage term either.
"""

import math
from dataclasses import dataclass

import numpy as np

from .demand import first_true
from .errors import ParameterError
from .gammainc import poisson_pmf, reg_lower_gamma
from .params import CostParams, PolicyParams, ProcessParams, _require_no_overflow
from .renewal import (  # expected_integrated_renewals: a name perfbench/layers.py traces here
    RenewalSeriesConfig,
    as_times,
    check_converged,
    expected_integrated_renewals,  # noqa: F401
    expected_renewal_sums,
    expected_renewals,
    policy_renewal_sums,
)

@dataclass(frozen=True)
class CostBreakdown:
    """Expected ordering, holding and total cost: floats at a scalar time,
    arrays of one shape over a grid or a sweep."""

    ordering: float | np.ndarray
    holding: float | np.ndarray
    total: float | np.ndarray


@dataclass(frozen=True)
class CostCurve:
    """Times, E[R_t], E[int_0^t R], E[X_t] and the cost breakdown of one
    policy: floats at a scalar time, arrays of the grid's shape otherwise."""

    grid: float | np.ndarray
    orders: float | np.ndarray  # E[R_t]
    integrated_orders: float | np.ndarray  # E[int_0^t R_s ds]
    inventory: float | np.ndarray  # E[X_t]
    cost: CostBreakdown

    def __post_init__(self):
        fields = {
            "order counts": self.orders,
            "integrated order counts": self.integrated_orders,
            "inventory": self.inventory,
            **vars(self.cost),
        }
        for name, values in fields.items():
            if np.shape(values) != np.shape(self.grid):
                raise ParameterError(
                    f"curve has {name} of shape {np.shape(values)} "
                    f"for {np.size(self.grid)} grid times"
                )


def _inventory(params: ProcessParams, policy: PolicyParams, t, orders):
    """x0 - (mu + alpha*lam) t + Q * orders elementwise, ``orders`` = E[R_t]."""
    return policy.x0 - params.demand_rate * t + policy.Q * orders


def _breakdown(params: ProcessParams, x0, Q, charge, c_h, t, orders, integrated) -> CostBreakdown:
    """Cost components from E[R_t] and E[int_0^t R], elementwise and
    broadcast, with ``charge`` the price of one order of size Q; holding is
    c_h E[int_0^t X] = c_h (x0 t - (mu + alpha*lam) t^2 / 2 + Q E[int_0^t R])."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        ordering = charge * orders
        holding = c_h * (x0 * t - 0.5 * t * t * params.demand_rate + Q * integrated)
        total = ordering + holding
    return CostBreakdown(*_require_no_overflow(ordering, holding, total))


def _curve(params: ProcessParams, policy: PolicyParams, costs: CostParams, t, sums) -> CostCurve:
    """The record of one policy at t from either form's (E[R_t], E[int_0^t R])
    pair ``sums``: floats at a scalar t, arrays of t's shape otherwise."""
    orders, integrated = sums
    t = np.asarray(t, dtype=np.float64) if np.ndim(t) else float(t)
    charge = costs.order_cost(policy.Q)
    return CostCurve(
        grid=t,
        orders=orders,
        integrated_orders=integrated,
        inventory=_inventory(params, policy, t, orders),
        cost=_breakdown(params, policy.x0, policy.Q, charge, costs.c_h, t, orders, integrated),
    )


def expected_inventory(
    params: ProcessParams,
    policy: PolicyParams,
    t: float,
    cfg: RenewalSeriesConfig,
) -> float:
    """E[inventory at t] = x0 - (mu + alpha*lam) t + Q E[orders by t]
    (gamma-series form)."""
    return _inventory(params, policy, t, expected_renewals(params, policy, t, cfg))


def expected_total_cost(
    params: ProcessParams,
    policy: PolicyParams,
    costs: CostParams,
    t: float,
    cfg: RenewalSeriesConfig,
) -> CostBreakdown:
    """Expected cost breakdown at t (gamma-series form)."""
    return _curve(params, policy, costs, t, expected_renewal_sums(params, policy, t, cfg)).cost


def _poisson_tails(tails, x, k):
    """``tails`` (row i: P(N_t >= k), k = 0, 1, ..., at lam*t = x[i]) widened
    in one call to k + 1 columns or twice its width, if k is past its end."""
    width = tails.shape[1]
    if k < width:
        return tails
    new = np.arange(width, max(k + 1, 2 * width))
    return np.hstack((tails, reg_lower_gamma(new, x[:, None])))


def exact_renewal_sums(
    params: ProcessParams, policy: PolicyParams, t, cfg: RenewalSeriesConfig
):
    """(E[R_t], E[int_0^t R]) under the exact Poisson law, with the
    contract of ``expected_renewal_sums``.

    R_t counts the thresholds L_n = a + (n-1)Q that D_t has reached, so
    E[R_t] = sum_n P(N_t >= j_n), with j_n(t) the fewest jumps that take
    mu*t + alpha*j_n to L_n, and E[int_0^t R] is
    sum_n sum_k (P(k+1, lam*t) - P(k+1, lam*s_k)) / lam, P the regularized
    lower incomplete gamma, where drift carries k jumps' worth of demand
    to L_n at s_k = max((L_n - alpha*k)/mu, 0).  From m_n, the fewest jumps
    with alpha*m_n >= L_n, on s_k = 0 and the terms sum to the Poisson loss
    (x - m) P(N_t >= m) + x P(N_t = m - 1), x = lam*t.  A time stops at its
    first P(N_t >= j_n) below ``tail_tol``.

    The loop over n steps all times still summing.  The tails P(N_t >= k)
    are one (time x k) matrix, widened when a k outruns it, and every
    P(k+1, lam*s_k) (free of t) and P(N_t = m_n - 1) comes from one call.
    A time adds its terms in the order of n, and within n the loss, then
    the k terms in order (a sequential cumsum; k < j_n(t) adds 0.0).
    """
    times = as_times(t)
    mu, alpha, lam = params.mu, params.alpha, params.lam
    x = lam * times.ravel()
    drift = mu * times.ravel()
    # first k < x + 8 sqrt(x) + 16 at the latest time, where the tail is
    # far below the usual tail_tol
    x_max = float(x.max(initial=0.0))
    tails = _poisson_tails(np.ones((x.size, 1)), x, int(x_max + 8.0 * math.sqrt(x_max)) + 15)
    total_r, last = np.zeros(x.size), np.zeros(x.size)
    active = np.arange(x.size)
    summed = []  # (L_n, the times that sum threshold n, their j_n)
    for n in range(1, cfg.n_max + 1):
        if not active.size:
            break
        level = policy.threshold(n)
        d = drift[active]
        j = first_true(lambda k: d + alpha * k >= level, (level - d) / alpha)
        tails = _poisson_tails(tails, x, int(j.max()))
        p = tails[active, j]
        last[active] = p
        keep = ~(p < cfg.tail_tol)
        active, j = active[keep], j[keep]
        if active.size:
            total_r[active] += p[keep]
            summed.append((level, active, j))
    check_converged("exact", cfg, times, total_r.reshape(times.shape), last.reshape(times.shape))
    levels = np.array([level for level, _, _ in summed])
    ms = first_true(lambda k: alpha * k >= levels, levels / alpha)
    tails = _poisson_tails(tails, x, int(ms.max(initial=0)))
    # P(k+1, lam*s_k) for every threshold n and k from its least j_n(t) to m_n - 1
    ranges = [range(int(j.min()), m) for (_, _, j), m in zip(summed, ms.tolist())]
    ks = np.array([k for r in ranges for k in r], dtype=np.float64)
    levels_k = np.repeat(levels, [len(r) for r in ranges])
    at_s = reg_lower_gamma(ks + 1.0, lam * (levels_k - alpha * ks) / mu)
    pmfs = poisson_pmf(ms - 1, x[:, None])
    total_int = np.zeros(x.size)
    for col, ((_, rows, j), m, r) in enumerate(zip(summed, ms.tolist(), ranges)):
        k = np.arange(r.start, r.stop)
        s, at_s = at_s[: k.size], at_s[k.size :]
        xr = x[rows]
        terms = np.empty((rows.size, k.size + 1))
        terms[:, 0] = (xr - m) * tails[rows, m] + xr * pmfs[rows, col]
        terms[:, 1:] = np.where(k >= j[:, None], tails[rows[:, None], k + 1] - s, 0.0)
        total_int[rows] += np.cumsum(terms, axis=1)[:, -1] / lam
    er, ei = total_r.reshape(times.shape), total_int.reshape(times.shape)
    if times.ndim == 0:
        return float(er), float(ei)
    return er, ei


def exact_moments(
    params: ProcessParams, policy: PolicyParams, costs: CostParams, t, cfg: RenewalSeriesConfig
) -> CostCurve:
    """Exact E[R_t], E[int_0^t R], E[X_t] and expected cost breakdown at t,
    under the contract of ``exact_renewal_sums``: t may be a scalar or a
    grid in any order, with repeated times."""
    return _curve(params, policy, costs, t, exact_renewal_sums(params, policy, t, cfg))


def long_run_rate(params: ProcessParams, policy: PolicyParams, costs: CostParams) -> float:
    """Long-run expected cost per unit time, lim total(t)/t.

    The renewal-reward rate of the (r, Q) policy: orders arrive at rate
    (mu + alpha*lam)/Q, and the inventory's time average is x0 - a + Q/2,
    the mean of the uniform law on (x0 - a, x0 - a + Q] (Hadley & Whitin
    1963; Zipkin 2000, ch. 6).  Its law at a fixed t tends to that uniform
    law only when alpha/Q is irrational: when alpha/Q is rational, D_t
    mod Q takes values g apart (g = gcd(alpha, Q) for integers), and
    E[X_t] keeps a sawtooth of period g/mu and height g around the mean
    (80.0, 77.5, 75.0 and 72.5 at t = 300, 300.5, 301 and 301.5 at the
    defaults).  Nothing is ever short, so the rate is
    c_o(Q)*(mu + alpha*lam)/Q + c_h*(x0 - a + Q/2)."""
    return costs.order_cost(policy.Q) * params.demand_rate / policy.Q + costs.c_h * (
        policy.x0 - policy.a + policy.Q / 2
    )


def cost_curve(
    params: ProcessParams,
    policy: PolicyParams,
    costs: CostParams,
    grid,
    cfg: RenewalSeriesConfig,
) -> CostCurve:
    """The gamma-series record on ``grid``, a strictly increasing array of
    times, from one renewal series summed over the whole grid."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ParameterError(
            f"curve grid must be a one-dimensional array of times, got shape {grid.shape}"
        )
    sums = expected_renewal_sums(params, policy, grid, cfg)
    if grid.size and np.any(np.diff(grid) <= 0):
        raise ParameterError("curve grid must be strictly increasing")
    return _curve(params, policy, costs, grid, sums)


def _check_grid(curve: CostCurve, name: str) -> None:
    """ParameterError unless ``curve`` lies on a one-dimensional grid of
    times (a scalar-time record has no grid to search)."""
    if np.ndim(curve.grid) != 1:
        raise ParameterError(
            f"{name} needs a curve on a one-dimensional grid of times, got times of shape "
            f"{np.shape(curve.grid)}"
        )


def argmax_time(curve: CostCurve):
    """Grid time with the largest total; ties go to the first grid time,
    which is the earliest on a ``cost_curve`` grid."""
    _check_grid(curve, "argmax_time")
    if curve.grid.size == 0:
        raise ParameterError("cannot take the argmax of an empty curve")
    totals = curve.cost.total
    idx = int(np.argmax(totals))  # np.argmax returns the first maximizer
    return float(curve.grid[idx]), float(totals[idx])


def negative_inventory_times(curve: CostCurve) -> list:
    """Grid times of ``curve`` where its expected inventory is negative.

    Late times of a ``cost_curve`` can go negative when the gamma
    first-passage approximation undercounts orders: its rate alpha*lam
    ignores the drift mu.  With mu=5, alpha=0.1, lam=1 the series
    converges in at most two terms on [0, 40], yet E[R_20] is 4.6e-5
    against the exact 2.0.  Flagged so reports can mark them."""
    _check_grid(curve, "negative_inventory_times")
    return curve.grid[curve.inventory < 0].tolist()


def sweep(
    params: ProcessParams,
    costs_list,
    a_list,
    Q_list,
    grid,
    cfg: RenewalSeriesConfig,
    x0: float = 100.0,
) -> CostBreakdown:
    """Expected cost breakdown over (a, Q, costs, t), as arrays of shape
    (len(a_list) * len(Q_list), len(costs_list), grid size) with the
    policies in (a, Q) order; read in C order, the rows are in that
    lexicographic order.

    The renewal series does not depend on the costs, so it is summed
    once, over every (a, Q) and the whole grid, and one ``_breakdown``
    call broadcasts it over every entry of ``costs_list``."""
    if not (len(costs_list) and len(a_list) and len(Q_list)):
        raise ParameterError("sweep lists must be non-empty")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ParameterError("sweep grid must be non-empty")
    policies = [PolicyParams(x0=x0, a=a, Q=Q) for a in a_list for Q in Q_list]
    er, ei = policy_renewal_sums(params, policies, grid, cfg)
    Q = np.array([[[p.Q]] for p in policies])
    charges = np.array([[[c.order_cost(p.Q)] for c in costs_list] for p in policies])
    c_h = np.array([[c.c_h] for c in costs_list])
    return _breakdown(params, x0, Q, charges, c_h, grid, er[:, None], ei[:, None])
