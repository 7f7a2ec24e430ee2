"""Closed-form expected inventory and expected total cost.

Expected inventory is x0 - (mu + alpha*lam) t + Q * E[orders by t]; the
expected total cost is its ordering plus its holding component.  Two
closed forms of E[orders] are kept side by side:

- the paper's gamma first-passage series (``renewal.py``), used by
  ``expected_total_cost``, ``cost_curve`` and ``sweep``; the last two
  sum it once per (a, Q) curve, over its whole grid, and derive every
  cost from that one pass;
- the exact Poisson-law form (``exact_moments``).  With zero lead time
  cumulative demand D_t = mu*t + alpha*N_t is monotone, so the order
  count is R_t = max(floor((D_t - a)/Q) + 1, 0) and E[R_t], E[X_t] and
  E[int_0^t R] are sums over the Poisson law of N_t.

The same identity puts the inventory in (x0 - a, x0 - a + Q] once D_t
reaches a, and above x0 - a before, so nothing is ever short: the
breakdown's shortage is 0.0, kept only for the shortage column of the
cost CSVs.  The Monte Carlo has no shortage term by the same argument;
only its minimum inventory (``shortage_fraction``) would show a
departure from this.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SeriesNotConvergedError
from .gammainc import poisson_pmf, reg_lower_gamma
from .params import CostParams, PolicyParams, ProcessParams
from .renewal import (  # expected_integrated_renewals: a name perfbench/layers.py traces here
    RenewalSeriesConfig,
    expected_integrated_renewals,  # noqa: F401
    expected_renewal_sums,
    expected_renewals,
)

CSV_HEADER = "a,Q,c_h,c_o,c_so,mode,t,ordering,holding,shortage,total"


@dataclass(frozen=True)
class CostBreakdown:
    ordering: float
    holding: float
    shortage: float
    total: float


@dataclass(frozen=True)
class CostCurve:
    """Cost breakdowns on a grid and E[R_t] at each grid time."""

    grid: np.ndarray
    points: list
    orders: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        object.__setattr__(self, "grid", grid)
        if grid.size and np.any(np.diff(grid) <= 0):
            raise ParameterError("curve grid must be strictly increasing")
        if len(self.points) != grid.size:
            raise ParameterError(
                f"curve has {len(self.points)} points for {grid.size} grid times"
            )
        orders = np.asarray(self.orders, dtype=np.float64)
        object.__setattr__(self, "orders", orders)
        if orders.size != grid.size:
            raise ParameterError(
                f"curve has {orders.size} order counts for {grid.size} grid times"
            )

    def totals(self) -> np.ndarray:
        return np.array([p.total for p in self.points])


def _inventory(params: ProcessParams, policy: PolicyParams, t: float, orders: float) -> float:
    """x0 - (mu + alpha*lam) t + Q * orders, with ``orders`` = E[R_t]."""
    return policy.x0 - params.demand_rate * t + policy.Q * orders


def _breakdown(
    params: ProcessParams,
    policy: PolicyParams,
    costs: CostParams,
    t: float,
    orders: float,
    integrated_orders: float,
) -> CostBreakdown:
    """Cost components from E[R_t] and E[int_0^t R]; holding is c_h times
    E[int_0^t X] = x0 t - (mu + alpha*lam) t^2 / 2 + Q E[int_0^t R]."""
    ordering = costs.order_cost(policy.Q) * orders
    holding = costs.c_h * (
        policy.x0 * t - 0.5 * t * t * params.demand_rate + policy.Q * integrated_orders
    )
    return CostBreakdown(
        ordering=ordering, holding=holding, shortage=0.0, total=ordering + holding
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
    er, ei = expected_renewal_sums(params, policy, t, cfg)
    return _breakdown(params, policy, costs, t, er, ei)


@dataclass(frozen=True)
class ExactMoments:
    """Exact expectations at time t under the Poisson law of demand."""

    orders: float  # E[R_t]
    integrated_orders: float  # E[int_0^t R_s ds]
    inventory: float  # E[X_t]
    cost: CostBreakdown


def _min_jumps(level: float, drift: float, alpha: float) -> int:
    """Smallest k >= 0 with drift + alpha*k >= level, the comparison the
    Monte Carlo makes when it fires an order."""
    k = max(math.ceil((level - drift) / alpha), 0)
    while k > 0 and drift + alpha * (k - 1) >= level:
        k -= 1
    while drift + alpha * k < level:
        k += 1
    return k


def _exact_series(
    params: ProcessParams, policy: PolicyParams, t: float, cfg: RenewalSeriesConfig
):
    """(E[R_t], E[int_0^t R]) as series over the thresholds L_n = a + (n-1)Q.

    R_t counts the thresholds that D_t has reached, so
    E[R_t] = sum_n P(D_t >= L_n) = sum_n P(N_t >= j_n), with j_n the
    fewest jumps that take mu*t + alpha*j_n to L_n.  Likewise
    E[int_0^t R] = sum_n sum_k int_{s_k}^t P(N_s = k) ds, where
    s_k = max((L_n - alpha*k)/mu, 0) is when drift carries k jumps' worth
    of demand to L_n.  Each inner integral is
    (P(k+1, lam*t) - P(k+1, lam*s_k)) / lam with P the regularized lower
    incomplete gamma.  From m_n = the fewest jumps with alpha*m_n >= L_n
    on, s_k = 0 and the terms sum to the Poisson loss
    E[(N_t - m)^+] = (x - m) P(N_t >= m) + x P(N_t = m - 1), x = lam*t.
    Terms fall in n, and the series stops at the first P(D_t >= L_n)
    below ``tail_tol``.  The tails P(N_t >= k) are evaluated for a range
    of k per call, and the P(k+1, lam*s_k) of every threshold summed in
    one more call; the sums add them in the order of n and k.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    mu, alpha, lam = params.mu, params.alpha, params.lam
    x = lam * t
    # P(N_t >= k) for k = 0, 1, ...: the first call covers k < x + 8 sqrt(x)
    # + 16, where the tail is far below the usual tail_tol, and any later
    # one doubles the range
    tails = [1.0]

    def tail(k):
        if k >= len(tails):
            stop = max(k + 1, 2 * len(tails), int(x + 8.0 * math.sqrt(x)) + 16)
            tails.extend(reg_lower_gamma(np.arange(len(tails), stop), x).tolist())
        return tails[k]

    total_r = 0.0
    summed = []  # (L_n, j_n, m_n) of the thresholds in the sums
    for n in range(1, cfg.n_max + 1):
        level = policy.threshold(n)
        j = _min_jumps(level, mu * t, alpha)
        p = tail(j)
        if p < cfg.tail_tol:
            break
        total_r += p
        summed.append((level, j, _min_jumps(level, 0.0, alpha)))
    else:
        raise SeriesNotConvergedError(
            f"exact series hit the cap n_max={cfg.n_max} at t={t} with the "
            f"last term {p:.3e} still >= tail_tol={cfg.tail_tol:.3e}",
            partial_sum=total_r,
            n_terms=cfg.n_max,
            last_term=p,
            t=t,
        )
    # one incomplete-gamma call for P(k+1, lam*s_k), j_n <= k < m_n, of every threshold
    levels = np.array([level for level, j, m in summed for _ in range(j, m)])
    ks = np.array([k for _, j, m in summed for k in range(j, m)], dtype=np.float64)
    at_s = iter(reg_lower_gamma(ks + 1.0, lam * (levels - alpha * ks) / mu).tolist())
    pmfs = poisson_pmf(np.array([m - 1 for *_, m in summed]), x)
    total_int = 0.0
    for (_, j, m), pmf in zip(summed, pmfs.tolist()):
        acc = (x - m) * tail(m) + x * pmf
        for k in range(j, m):
            acc += tail(k + 1) - next(at_s)
        total_int += acc / lam
    return total_r, total_int


def exact_moments(
    params: ProcessParams,
    policy: PolicyParams,
    costs: CostParams,
    t: float,
    cfg: RenewalSeriesConfig,
) -> ExactMoments:
    """Exact E[R_t], E[int_0^t R], E[X_t] and expected cost breakdown at t.

    Truncation follows ``cfg`` as the gamma series does; hitting
    ``cfg.n_max`` raises SeriesNotConvergedError."""
    er, ei = _exact_series(params, policy, t, cfg)
    return ExactMoments(
        orders=er,
        integrated_orders=ei,
        inventory=_inventory(params, policy, t, er),
        cost=_breakdown(params, policy, costs, t, er, ei),
    )


def long_run_rate(params: ProcessParams, policy: PolicyParams, costs: CostParams) -> float:
    """Long-run expected cost per unit time, lim total(t)/t.

    The renewal-reward rate of the (r, Q) policy: orders arrive at rate
    (mu + alpha*lam)/Q, and with mu > 0 demand is non-lattice, so the
    inventory tends to the uniform law on (x0 - a, x0 - a + Q] with mean
    x0 - a + Q/2 (Hadley & Whitin 1963; Zipkin 2000, ch. 6).  Nothing
    is ever short, so the rate is
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
    """Expected cost breakdowns and E[R_t] on ``grid``, from one renewal
    series summed over the whole grid."""
    grid = np.asarray(grid, dtype=np.float64)
    er, ei = expected_renewal_sums(params, policy, grid, cfg)
    points = [
        _breakdown(params, policy, costs, t, r, i)
        for t, r, i in zip(grid.tolist(), er.tolist(), ei.tolist())
    ]
    return CostCurve(grid=grid, points=points, orders=er)


def argmax_time(curve: CostCurve):
    """Grid time with the largest total; earliest time wins ties."""
    if curve.grid.size == 0:
        raise ParameterError("cannot take the argmax of an empty curve")
    totals = curve.totals()
    idx = int(np.argmax(totals))  # np.argmax returns the first maximizer
    return float(curve.grid[idx]), float(totals[idx])


def negative_inventory_times(
    params: ProcessParams,
    policy: PolicyParams,
    curve: CostCurve,
) -> list:
    """Grid times of ``curve`` (from ``cost_curve`` with this process and
    policy) where the closed-form expected inventory is negative.

    Late times can go negative when the gamma first-passage
    approximation undercounts orders: its rate alpha*lam ignores the
    drift mu.  With mu=5, alpha=0.1, lam=1 the series converges in at
    most two terms on [0, 40], yet E[R_20] is 4.6e-5 against the exact
    2.0.  Flagged so reports can mark them."""
    return [
        t
        for t, er in zip(curve.grid.tolist(), curve.orders.tolist())
        if _inventory(params, policy, t, er) < 0
    ]


def sweep(
    params: ProcessParams,
    costs_list,
    a_list,
    Q_list,
    grid,
    cfg: RenewalSeriesConfig,
    x0: float = 100.0,
):
    """Cross-product evaluation over (a, Q, costs, t), in that
    lexicographic order.  Yields (a, Q, costs, t, CostBreakdown) rows.

    The renewal series does not depend on the costs, so it is summed
    once per (a, Q), over the whole grid, and every entry of
    ``costs_list`` is applied to those (E[R_t], E[int_0^t R]) pairs."""
    if not (len(costs_list) and len(a_list) and len(Q_list)):
        raise ParameterError("sweep lists must be non-empty")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ParameterError("sweep grid must be non-empty")
    times = grid.tolist()
    rows = []
    for a in a_list:
        for Q in Q_list:
            policy = PolicyParams(x0=x0, a=a, Q=Q)
            er, ei = expected_renewal_sums(params, policy, grid, cfg)
            sums = list(zip(times, er.tolist(), ei.tolist()))
            for costs in costs_list:
                for t, er_t, ei_t in sums:
                    rows.append((a, Q, costs, t, _breakdown(params, policy, costs, t, er_t, ei_t)))
    return rows


def _format_row(a, Q, costs, t, bd):
    mode = costs.ordering_mode.value
    return (
        f"{a!r},{Q!r},{costs.c_h!r},{costs.c_o!r},{costs.c_so!r},{mode},"
        f"{t!r},{bd.ordering!r},{bd.holding!r},{bd.shortage!r},{bd.total!r}"
    )


def write_sweep_csv(rows, file) -> None:
    with open(file, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for a, Q, costs, t, bd in rows:
            fh.write(_format_row(a, Q, costs, t, bd) + "\n")


def write_curve_csv(curve: CostCurve, policy: PolicyParams, costs: CostParams, file) -> None:
    with open(file, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, bd in zip(curve.grid, curve.points):
            fh.write(_format_row(policy.a, policy.Q, costs, float(t), bd) + "\n")
