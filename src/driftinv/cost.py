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
  ``exact_moments``, and the one-policy case of ``exact_policy_sums``.
  With zero lead time D_t = mu*t + alpha*N_t is monotone, so
  R_t = max(floor((D_t - a)/Q) + 1, 0) and both sums are series over
  the Poisson law of N_t, whose tails come from one table of Poisson
  pmf values over each time's own window (``_tail_table``), shared by
  every policy, sized by the window and checked against
  ``demand.JUMP_BUDGET`` before it is allocated.

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

from .demand import check_budget, first_true
from .errors import ParameterError
from .gammainc import _STIRLING, _TEMME_A, _horner
from .params import CostParams, PolicyParams, ProcessParams, _require_no_overflow
from .renewal import (  # expected_integrated_renewals: a name perfbench/layers.py traces here
    RenewalSeriesConfig,
    _chernoff_root,
    as_times,
    check_converged,
    expected_integrated_renewals,  # noqa: F401
    expected_renewal_sums,
    expected_renewals,
    policy_renewal_sums,
)

# the refusal of a table of the exact form that would hold more values
# than ``demand.JUMP_BUDGET``, named by ``what``
_TABLE_BUDGET = (
    "the exact form's {what} would hold {count:.3g} values, more than the budget "
    "of {budget}; use fewer or shorter times, or a larger order quantity Q"
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


# theta(i) = ln(i!) - (i ln i - i + ln(2 pi i) / 2), Stirling's remainder,
# for i = 1, ..., _TEMME_A; past it the series _STIRLING gives it
_THETA = np.array(
    [0.0]
    + [
        math.lgamma(i + 1.0) - (i * math.log(i) - i + 0.5 * math.log(2.0 * math.pi * i))
        for i in range(1, int(_TEMME_A) + 1)
    ]
)


def _poisson_pmf(i, y):
    """P(N = i) for N ~ Poisson(y), elementwise over whole-number floats
    i >= 0 and y >= 0: e^-y at i = 0, and otherwise

        e^-(D + theta(i)) / sqrt(2 pi i),  D = i ln(i/y) - (i - y)

    (Loader 2000), with D taken as i log1p((i - y)/y) - (i - y), so that
    no term as large as i ln(y) or ln(i!) rounds away its last digits.
    The logs and exponentials are numpy's, applied element by element."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.maximum(i, 1.0)
        gap = k - y
        deviance = k * np.log1p(gap / y) - gap
        inv = 1.0 / k
        theta = np.where(
            k > _TEMME_A,
            inv * _horner(_STIRLING, inv * inv),
            _THETA[np.minimum(k, _TEMME_A).astype(np.int64)],
        )
        pmf = np.exp(-(deviance + theta)) / np.sqrt(2.0 * math.pi * k)
        return np.where(i == 0.0, np.exp(-y), pmf)


def _poisson_windows(y, tail_tol):
    """(lo, hi), whole-number floats of y's shape, so that P(N < lo) and
    P(N > hi), N ~ Poisson(y), are each at most 2^-53 tail_tol: the roots
    of the Chernoff exponent g(k) = L = -ln(2^-53 tail_tol), rounded
    outwards, from starts outside them (y - sqrt(2 L y), as
    g(k) >= (y - k)^2 / (2y) below y, and ``renewal._stop_bound``'s)."""
    big = 53.0 * math.log(2.0) - math.log(tail_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(big * (big + 2.0 * y))
        starts = np.stack((y - np.sqrt(2.0 * big * y), y + big + root))
        lower, upper = _chernoff_root(y, big, starts)
        return np.floor(np.maximum(lower, 0.0)), np.where(y > 0.0, np.ceil(upper), 0.0)


def _tail_table(y, tail_tol):
    """(lo, hi, tails, pmf) for the 1-D array of means y: the windows of
    ``_poisson_windows`` as int64, and two (rows, width) arrays whose row
    r holds P(N >= k) and P(N = k), N ~ Poisson(y[r]), at k = lo[r] + c,
    c = 0, ..., hi[r] + 1 - lo[r] (both 0 at hi[r] + 1).

    Each tail is added from its smallest term up: at or below the mode
    floor(y) it is 1 less the pmf summed from lo up to k - 1, above it
    the pmf summed from hi down to k, so no tail exceeds 1."""
    lo, hi = _poisson_windows(y, tail_tol)
    check_budget(
        np.max(hi, initial=0.0),
        "the exact form's Poisson window at lam*t = {lam_t:.3g} reaches {count:.3g} jumps, "
        "more than the budget of {budget}; use shorter times or a smaller lam",
        lam_t=np.max(y),
    )
    width = np.max(hi - lo, initial=-1.0) + 2.0
    check_budget(y.size * width, _TABLE_BUDGET, what="Poisson tail table")
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    k = lo[:, None] + np.arange(int(width))
    inside = k <= hi[:, None]
    pmf = np.zeros(k.shape)
    pmf[inside] = _poisson_pmf(k[inside], np.broadcast_to(y[:, None], k.shape)[inside])
    below = k <= np.floor(y)[:, None]
    lower = np.zeros(k.shape)
    np.cumsum(np.where(below, pmf, 0.0)[:, :-1], axis=1, out=lower[:, 1:])
    upper = np.cumsum(np.where(below, 0.0, pmf)[:, ::-1], axis=1)[:, ::-1]
    return lo, hi, np.where(below, 1.0 - lower, upper), pmf


def _at(table, lo, hi, rows, k):
    """``table[rows, k - lo[rows]]`` of a ``_tail_table``, k clipped to
    [lo, hi + 1]: a tail below lo is the tail at lo, and past hi is 0."""
    first = lo[rows]
    return table[rows, np.minimum(np.maximum(k, first), hi[rows] + 1) - first]


def exact_policy_sums(params: ProcessParams, policies, t, cfg: RenewalSeriesConfig):
    """(E[R_t], E[int_0^t R]) under the exact Poisson law for every policy
    of ``policies`` at every time of t, as arrays with one row per policy
    and t's shape after it.  If the series hits ``cfg.n_max`` anywhere,
    the error names the first such time of the first such policy.

    R_t counts the thresholds L_n = a + (n-1)Q that D_t has reached, so
    E[R_t] = sum_n P(N_t >= j_n), with j_n(t) the fewest jumps that take
    mu*t + alpha*j_n to L_n, and E[int_0^t R] is
    sum_n sum_k (P(k+1, lam*t) - P(k+1, lam*s_k)) / lam, P the regularized
    lower incomplete gamma, where drift carries k jumps' worth of demand
    to L_n at s_k = max((L_n - alpha*k)/mu, 0).  From m_n, the fewest jumps
    with alpha*m_n >= L_n, on s_k = 0 and the terms sum to the Poisson loss
    (x - m) P(N_t >= m) + x P(N_t = m - 1), x = lam*t.  A series stops at
    its first P(N_t >= j_n) below ``tail_tol``.

    Each P(k+1, y) is the Poisson tail P(N_y >= k+1), 0 past y's window
    (``_poisson_windows``): a threshold with j_n past the window of
    lam*t stops its series, and a k term with k + 1 past it adds
    nothing.  The tails at the times come from one ``_tail_table`` that
    every policy indexes at its j_n(t), and every P(k+1, lam*s_k), free
    of t, from one ``_breakpoint_tails`` call.  Each (policy, time) adds
    its terms in the order of n, and within n the loss, then the k terms
    in order (a sequential cumsum; k < j_n(t) adds 0.0)."""
    times = as_times(t)
    mu, alpha, lam, tol = params.mu, params.alpha, params.lam, cfg.tail_tol
    with np.errstate(over="ignore"):  # an infinite lam*t is refused with its window
        x = lam * times.ravel()
        drift = mu * times.ravel()
    lo, hi, tails, pmfs = _tail_table(x, tol)
    a = np.array([p.a for p in policies], dtype=np.float64)
    q = np.array([p.Q for p in policies], dtype=np.float64)
    # one element per (policy, time), a row of candidate thresholds each:
    # the first, and every n whose j_n may lie in the window.  The next
    # threshold's j_n is past it, so a series that runs through its
    # candidates stops there, on a tail of 0, unless it reached n_max
    rows = np.tile(np.arange(x.size), a.size)
    owner = np.repeat(np.arange(a.size), x.size)
    drift = drift[rows]
    reach = drift + alpha * (hi[rows] + 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        count = np.clip(np.floor((reach - a[owner]) / q[owner]) + 1.0, 1.0, cfg.n_max)
    count = count.astype(np.int64)
    width = int(count.max(initial=1))
    check_budget(rows.size * width, _TABLE_BUDGET, what="table of thresholds")
    n = np.arange(1, width + 1)
    valid = n <= count[:, None]
    level = a[owner, None] + (n - 1) * q[owner, None]
    j = np.zeros(level.shape, dtype=np.int64)
    reached, need = np.broadcast_to(drift[:, None], level.shape)[valid], level[valid]
    with np.errstate(over="ignore"):  # first_true refuses an infinite count
        guess = (need - reached) / alpha
    j[valid] = first_true(lambda k: reached + alpha * k >= need, guess)
    at = np.broadcast_to(rows[:, None], level.shape)
    p = np.where(valid, _at(tails, lo, hi, at, j), 0.0)
    below = valid & (p < tol)
    summed = valid & ~np.logical_or.accumulate(below, axis=1)
    e = np.arange(rows.size)
    ran_out = np.where(count < cfg.n_max, 0.0, p[e, count - 1])
    last = np.where(below.any(axis=1), p[e, np.argmax(below, axis=1)], ran_out)
    shape = (a.size,) + times.shape
    total_r = np.cumsum(np.where(summed, p, 0.0), axis=1)[:, -1]
    check_converged(
        "exact", cfg, np.broadcast_to(times, shape), total_r.reshape(shape), last.reshape(shape)
    )
    acc = _integral_terms(params, tol, x, lo, hi, tails, pmfs, rows, owner, level, j, summed)
    total_int = np.zeros(level.shape)
    total_int[summed] = acc / lam
    total_int = np.cumsum(total_int, axis=1)[:, -1]
    return total_r.reshape(shape), total_int.reshape(shape)


def _integral_terms(params, tol, x, lo, hi, tails, pmfs, rows, owner, level, j, summed):
    """For each summed (element, n), in C order: the loss plus the k terms
    P(k+1, x) - P(k+1, lam*s_k), j_n <= k < min(m_n, hi), added in order."""
    mu, alpha, lam = params.mu, params.alpha, params.lam
    elem, col = np.nonzero(summed)
    r, j = rows[elem], j[elem, col]
    # the distinct (policy, n) and their m_n; past every window's reach m
    # is taken as the largest hi + 2, which adds nothing either
    groups, head, member = np.unique(
        owner[elem] * summed.shape[1] + col, return_index=True, return_inverse=True
    )
    levels = level[elem[head], col[head]]
    top = int(hi.max(initial=0)) + 2
    with np.errstate(over="ignore"):
        guess = levels / alpha
    m = np.full(groups.size, top)
    near = guess <= top
    need = levels[near]
    m[near] = first_true(lambda k: alpha * k >= need, guess[near])
    stop = np.minimum(m[member], hi[r])  # k terms below it
    first = np.full(groups.size, top)
    np.minimum.at(first, member, j)
    end = np.zeros(groups.size, dtype=np.int64)
    np.maximum.at(end, member, stop)
    span = np.maximum(end - first, 0)
    # P(k+1, lam*s_k) for every (policy, n) and k from its least j_n to its end
    offsets = np.cumsum(span) - span
    ks = np.arange(span.sum()) - np.repeat(offsets - first, span)
    with np.errstate(over="ignore"):  # y = inf has P(N_y >= k) = 1
        y = lam * (np.repeat(levels, span) - alpha * ks) / mu
    at_s = _breakpoint_tails(y, ks + 1, tol)
    width = int(span.max(initial=0))
    check_budget(elem.size * (width + 1), _TABLE_BUDGET, what="table of integral terms")
    k = first[member, None] + np.arange(width)
    mm = m[member]
    xr = x[r]
    terms = np.empty((elem.size, width + 1))
    pmf_m = np.where(mm - 1 < lo[r], 0.0, _at(pmfs, lo, hi, r, mm - 1))
    terms[:, 0] = (xr - mm) * _at(tails, lo, hi, r, mm) + xr * pmf_m
    live = (k >= j[:, None]) & (k < stop[:, None])
    s = at_s[np.where(live, offsets[member, None] + k - first[member, None], 0)]
    rr = np.broadcast_to(r[:, None], k.shape)
    terms[:, 1:] = np.where(live, _at(tails, lo, hi, rr, k + 1) - s, 0.0)
    return np.cumsum(terms, axis=1)[:, -1]


def _breakpoint_tails(y, k, tol):
    """P(N_y >= k) for each pair of the 1-D arrays y and k, as
    ``_tail_table`` sums it but over only the side of y's window that
    the tail needs: the pmf from hi down to k above the mode, and 1 less
    the pmf from lo up to k - 1 at or below it.  Each pair is a row of
    its terms in the order they are added (a sequential cumsum)."""
    lo, hi = _poisson_windows(y, tol)
    upper = k > np.floor(y)
    # no terms where the window lies past k, or (lo a nan) at y = inf
    count = np.fmax(np.where(upper, hi + 1.0 - k, k - lo), 0.0)
    width = count.max(initial=0.0)
    check_budget(k.size * (width + 1.0), _TABLE_BUDGET, what="table of breakpoint tails")
    steps = np.arange(int(width))
    live = steps < count[:, None]
    i = np.where(upper, hi, lo)[:, None] + np.where(upper, -1.0, 1.0)[:, None] * steps
    terms = np.zeros((k.size, steps.size + 1))  # a leading 0.0 for the rows with no terms
    terms[:, 1:][live] = _poisson_pmf(i[live], np.broadcast_to(y[:, None], i.shape)[live])
    sums = np.cumsum(terms, axis=1)[:, -1]
    return np.where(upper, sums, 1.0 - sums)


def exact_renewal_sums(
    params: ProcessParams, policy: PolicyParams, t, cfg: RenewalSeriesConfig
):
    """(E[R_t], E[int_0^t R]) under the exact Poisson law, the one-policy
    case of ``exact_policy_sums``, with the contract of
    ``expected_renewal_sums``: floats for a scalar t, arrays of its shape
    otherwise, and the first time in the order of t named on an error."""
    er, ei = exact_policy_sums(params, [policy], t, cfg)
    if er.ndim == 1:
        return float(er[0]), float(ei[0])
    return er[0], ei[0]


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
