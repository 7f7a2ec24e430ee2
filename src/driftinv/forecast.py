"""Rolling forecast baselines and the discrete reorder-point experiment.

The forecaster is a small ARIMA: differencing order d in {0, 1} picked
by comparing sample variances of the raw and differenced window, then a
grid search over p, q <= 2 fitted by two-stage conditional least squares
(a long autoregression proxies the innovations, then AR and MA terms
are regressed jointly) and scored by AIC.  A mean model is always in
the grid, so degenerate windows fall back to the trailing-window mean.

The experiment's demand series are the per-period increments of one
packed batch of demand paths (``demand.batch_jump_times``), counted for
all series at once by ``demand.period_increments``.

The discrete simulation replays a reorder-point policy period by
period: order Q when on-hand inventory is at or below the reorder
point (a forecast-projected trigger, inventory minus the one-step
forecast, is available for sensitivity runs), subtract the realized
demand, then accrue holding on positive and shortage on backordered
stock.  Unmet demand is carried as negative inventory.  The on-hand
trigger is the default because it reproduces the reference experiment
to within Monte Carlo noise; the forecast-projected variant lands far
outside it.  The on-hand trigger reads no forecast, so the experiment
computes forecasts only under the forecast-projected one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .demand import batch_jump_times, period_increments
from .demand import sample_path  # noqa: F401 -- a name perfbench/layers.py traces
from .errors import InsufficientDataError, ParameterError
from .params import CostParams, PolicyParams, ProcessParams

TRIGGERS = ("on_hand", "forecast_projected")
# (p, q) orders the ARIMA fit tries, p, q <= 2, in tie-break order:
# smaller p + q first, then smaller p
CANDIDATES = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2))

# (R, Q, C_h, C_o, C_so) rows of the 48-point experiment grid.
TABLE1_GRID = [
    (float(R), float(Q), 1.0, float(c_o), float(c_so))
    for (R, Q) in [
        (40, 50), (40, 60), (50, 50), (50, 60), (60, 50), (60, 60),
        (40, 110), (40, 120), (50, 110), (50, 120), (60, 110), (60, 120),
    ]
    for (c_o, c_so) in [(5, 10), (10, 10), (5, 15), (10, 15)]
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol of the rolling-forecast comparison experiment."""

    process: ProcessParams
    policy: PolicyParams
    costs: CostParams
    n_series: int = 1000
    window: int = 12
    sim_start: int = 13
    sim_end: int = 50
    period_length: float = 1.0
    base_seed: int = 7_000_000
    trigger: str = "on_hand"
    forecaster: str = "arima"

    def __post_init__(self):
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        if self.sim_start != self.window + 1:
            raise ParameterError(
                f"simulation must start right after the window "
                f"(window={self.window}, sim_start={self.sim_start})"
            )
        if self.sim_end < self.sim_start:
            raise ParameterError("sim_end must be >= sim_start")
        if not self.period_length > 0:
            raise ParameterError("period_length must be positive")
        if self.n_series < 1:
            raise ParameterError("n_series must be >= 1")
        if self.trigger not in TRIGGERS:
            raise ParameterError(f"unknown trigger rule {self.trigger!r}")
        if self.forecaster not in ("arima", "croston"):
            raise ParameterError(f"unknown forecaster {self.forecaster!r}")

    @property
    def n_sim_periods(self) -> int:
        return self.sim_end - self.sim_start + 1


@dataclass(frozen=True)
class TableRow:
    R: float
    Q: float
    c_h: float
    c_o: float
    c_so: float
    mean_total: float
    stderr_total: float
    mean_orders: float
    stockout_rate: float


def ge_solve(A, b):
    """Gaussian elimination with partial pivoting; flags singularity."""
    n = A.shape[0]
    M = A.copy()
    x = b.copy()
    scale = 0.0
    for i in range(n):
        if abs(M[i, i]) > scale:
            scale = abs(M[i, i])
    if scale == 0.0:
        return x, False
    for col in range(n):
        piv = col
        best = abs(M[col, col])
        for r in range(col + 1, n):
            if abs(M[r, col]) > best:
                best = abs(M[r, col])
                piv = r
        if best < 1e-10 * scale:
            return x, False
        if piv != col:
            for c in range(n):
                tmp = M[col, c]
                M[col, c] = M[piv, c]
                M[piv, c] = tmp
            tmp = x[col]
            x[col] = x[piv]
            x[piv] = tmp
        for r in range(col + 1, n):
            f = M[r, col] / M[col, col]
            if f != 0.0:
                for c in range(col, n):
                    M[r, c] -= f * M[col, c]
                x[r] -= f * x[col]
    for i in range(n - 1, -1, -1):
        s = x[i]
        for c in range(i + 1, n):
            s -= M[i, c] * x[c]
        x[i] = s / M[i, i]
    return x, True


def ols(X, y):
    """Least squares via normal equations; returns (beta, rss, ok)."""
    Xt = np.ascontiguousarray(X.T)
    A = Xt @ X
    b = Xt @ y
    beta, ok = ge_solve(A, b)
    if not ok:
        return beta, 0.0, False
    resid = y - X @ beta
    return beta, resid @ resid, True


def ar_stationary(phi):
    """Roots of 1 - phi_1 z - ... - phi_p z^p strictly outside the unit disk,
    p <= 2: the closed-form AR(2) triangle, missing coefficients taken as 0."""
    phi1, phi2 = (phi.tolist() + [0.0, 0.0])[:2]
    return abs(phi2) < 1.0 and (phi1 + phi2) < 1.0 and (phi2 - phi1) < 1.0


def long_autoregression(z):
    """Stage one of the two-stage fit: the residuals of the long
    autoregression of order L = min(4, (n - 2)//2) (4 >= p + q over
    ``CANDIDATES``, or what n allows), as (L, residuals) with the first L
    residuals 0, or None when n is too short or the regression singular.
    It does not depend on (p, q), so ``fit_window`` fits it once for all
    candidates."""
    n = z.shape[0]
    L = min(4, (n - 2) // 2)
    if L < 1 or n - L < L + 2:
        return None
    XA = np.empty((n - L, L + 1))
    XA[:, 0] = 1.0
    for i in range(1, L + 1):
        XA[:, i] = z[L - i : n - i]
    ya = z[L:n].copy()
    beta_a, _, ok_a = ols(XA, ya)
    if not ok_a:
        return None
    ehat = np.zeros(n)
    ehat[L:] = ya - XA @ beta_a
    return L, ehat


def fit_candidate(z, p, q, stage_one):
    """Two-stage conditional least squares for one (p, q) candidate, with
    ``stage_one`` the window's ``long_autoregression(z)`` (read only when
    q > 0).

    Returns (ok, beta, rss, rows): beta = (c, phi_1..phi_p, theta_1..theta_q)
    in the column order of the final regression, None when not ok."""
    failed = False, None, 0.0, 0
    n = z.shape[0]
    if p == 0 and q == 0:
        if n == 0:  # a one-point window differenced: no mean to fit
            return failed
        m = np.mean(z)
        resid = z - m
        return True, np.array([m]), resid @ resid, n
    if q > 0:
        if stage_one is None:
            return failed
        L, ehat = stage_one
        s = L + max(p, q)
    else:
        s = p
    rows = n - s
    if rows < p + q + 2:
        return failed
    X = np.empty((rows, 1 + p + q))
    X[:, 0] = 1.0
    for i in range(1, p + 1):
        X[:, i] = z[s - i : n - i]
    for j in range(1, q + 1):
        X[:, p + j] = ehat[s - j : n - j]
    y = z[s:n].copy()
    beta, rss, ok = ols(X, y)
    if not ok or not ar_stationary(beta[1 : p + 1]):
        return failed
    return True, beta, rss, rows


def fit_window(z):
    """AIC-selected (p, q) fit over ``CANDIDATES``, a later candidate
    winning only with a strictly smaller AIC.  Returns (aic, p, q, beta),
    or None when no candidate fits."""
    best = None
    stage_one = long_autoregression(z)
    for p, q in CANDIDATES:
        ok, beta, rss, rows = fit_candidate(z, p, q, stage_one)
        if not ok:
            continue
        mean_sq = max(rss / rows, 1e-12)
        aic = rows * np.log(mean_sq) + 2.0 * (p + q + 1)
        if best is None or aic < best[0]:
            best = aic, p, q, beta
    return best


def one_step(z, p, q, beta):
    """Conditional one-step-ahead prediction (pre-sample residuals 0)
    from ``fit_candidate``'s beta; a fit leaves more than max(p, q)
    points, so the forecast step reads no pre-sample residual."""
    n = z.shape[0]
    ehat = np.zeros(n)
    for t in range(p, n + 1):
        pred = beta[0]
        for i in range(1, p + 1):
            pred += beta[i] * z[t - i]
        for j in range(1, min(q, t) + 1):
            pred += beta[p + j] * ehat[t - j]
        if t < n:
            ehat[t] = z[t] - pred
    return pred


def sample_var(v):
    return np.var(v, ddof=1) if v.shape[0] > 1 else 0.0


def pick_d(w):
    """Differencing order: 1 when differencing lowers the sample variance."""
    return 1 if sample_var(np.diff(w)) < sample_var(w) else 0


def forecast_window(w):
    """One-step forecast from one trailing window, clamped to
    [0, max(window)].  The (0, 0) candidate fits any non-empty z, and z
    is never empty: a one-point window has no variance to lower, so it
    picks d = 0."""
    d = pick_d(w)
    z = np.diff(w) if d == 1 else w
    zhat = one_step(z, *fit_window(z)[1:])
    yhat = w[-1] + zhat if d == 1 else zhat
    return min(max(yhat, 0.0), w.max())


def _group(keys):
    """Number the distinct ``keys`` in order of first appearance: the
    keys, in that order, and the number of each."""
    index = {}
    return index, [index.setdefault(key, len(index)) for key in keys]


def _index(of_row, n_groups):
    """``of_row`` as an index array, or None where it is the identity:
    where there are as many groups as entries."""
    return None if n_groups == len(of_row) else np.array(of_row)


def _gather(x, rows):
    return x if rows is None else x[rows]


def _cost_pairs(state_of_row, coef, n_states):
    """The distinct (state, coefficient) pairs of the rows: their
    coefficients as a column, the state each pair's inventory is gathered
    from (None where the pairs are the states) and each row's pair."""
    pairs, pair_of_row = _group(zip(state_of_row, coef.tolist()))
    column = np.array([c for _, c in pairs]).reshape(-1, 1)
    return column, _index([state for state, _ in pairs], n_states), _index(pair_of_row, len(pairs))


def _ordering_cost(charge, orders, n_periods):
    """Each row's charge added once per order, in sequence from +0.0: the
    charge's running sums, read at the (rows, series) order counts."""
    sums = np.zeros((charge.size, n_periods + 1))
    sums[:, 1:] = charge.reshape(-1, 1)
    np.cumsum(sums, axis=1, out=sums)
    return sums[np.arange(charge.size)[:, None], orders]


def discrete_sim(actuals, forecasts, x0, R, Q, c_h, c_so, order_charge, period_cost=None):
    """Replay the reorder-point policy for every (grid row, series) pair.

    ``actuals`` is an (S, P) array over the simulated periods of S
    series; ``forecasts`` is another, or None for the on-hand trigger.
    ``R``, ``Q``, ``c_h``, ``c_so`` and ``order_charge`` hold one value
    per grid row, shape (G,); Q and the costs are finite and the costs
    nonnegative, as ``_grid_rows`` checks.  Each period: order Q (it
    arrives immediately) when the inventory, less the period's forecast
    if there is one, is at or below R, subtract the demand, then accrue
    holding on positive and shortage on negative end-of-period
    inventory; backorders go negative.

    Orders and inventory depend on (R, Q) alone, so the loop steps each
    distinct (R, Q) once and accrues holding once per distinct
    (R, Q, c_h) and shortage once per distinct (R, Q, c_so); a row's
    ordering cost, its charge added once per order, is read from the
    charge's running sums at its order count.  Every pair gets the bits
    of a per-pair scalar loop: where that loop adds nothing this one adds
    a zero (Q times False, a cost clipped at 0.0), and every sum starts
    at +0.0, so adding a zero leaves it as it is.

    Returns (G, S) arrays: ordering, holding and shortage cost, order
    count and whether the inventory ever went negative.  A (G, P)
    ``period_cost`` receives each period's cost summed over the series
    left to right, as a running sum over them would give it.
    """
    act = np.ascontiguousarray(np.asarray(actuals, dtype=np.float64).T)
    if forecasts is not None:
        fc = np.ascontiguousarray(np.asarray(forecasts, dtype=np.float64).T)
    n_periods, n_series = act.shape
    R, Q, c_h, c_so, charge = (
        np.asarray(v, dtype=np.float64).reshape(-1) for v in (R, Q, c_h, c_so, order_charge)
    )
    states, state_of_row = _group(zip(R.tolist(), Q.tolist()))
    c_h, hold_state, hold_of_row = _cost_pairs(state_of_row, c_h, len(states))
    neg_c_so, short_state, short_of_row = _cost_pairs(state_of_row, -c_so, len(states))
    state_of_row = _index(state_of_row, len(states))
    R, Q = np.array(list(states)).T.reshape(2, -1, 1)
    shape = (len(states), n_series)
    inv = np.full(shape, float(x0))
    lowest = inv.copy()
    ordered = np.empty((n_periods,) + shape, dtype=bool)  # counted at the end
    added = np.empty(shape)
    holding, h = np.zeros((2, c_h.size, n_series))
    shortage, s = np.zeros((2, neg_c_so.size, n_series))
    held = inv if hold_state is None else np.empty(h.shape)
    short = inv if short_state is None else np.empty(s.shape)
    if period_cost is not None:
        ordered_cost = 0.0 + charge.reshape(-1, 1)
        # each period's (row, series) costs, summed over the series at the end
        costs = np.zeros((n_periods, charge.size, n_series))
    for k in range(n_periods):
        order = ordered[k]
        if forecasts is None:
            np.less_equal(inv, R, out=order)
        else:
            np.subtract(inv, fc[k], out=added)
            np.less_equal(added, R, out=order)
        inv += np.multiply(Q, order, out=added)
        inv -= act[k]
        np.minimum(lowest, inv, out=lowest)
        if hold_state is not None:
            np.take(inv, hold_state, axis=0, out=held)
        holding += np.maximum(np.multiply(c_h, held, out=h), 0.0, out=h)
        if short_state is not None:
            np.take(inv, short_state, axis=0, out=short)
        shortage += np.maximum(np.multiply(neg_c_so, short, out=s), 0.0, out=s)
        if period_cost is not None:
            # the scalar loop's 0.0, plus the charge where it orders
            cost = costs[k]
            np.copyto(cost, ordered_cost, where=_gather(order, state_of_row))
            cost += _gather(h, hold_of_row)
            cost += _gather(s, short_of_row)
    if period_cost is not None:
        period_cost[...] = np.add.accumulate(costs, axis=2, out=costs)[:, :, -1].T
    orders = _gather(np.count_nonzero(ordered, axis=0), state_of_row)
    return (
        _ordering_cost(charge, orders, n_periods),
        _gather(holding, hold_of_row),
        _gather(shortage, short_of_row),
        orders,
        _gather(lowest < 0.0, state_of_row),
    )


def rolling_forecast(series, cfg: ExperimentConfig) -> np.ndarray:
    """One-step-ahead forecasts for the simulated periods, each fit on
    the trailing window; values clamped to [0, window max]."""
    y = np.asarray(series, dtype=np.float64)
    if y.size < cfg.sim_end:
        raise InsufficientDataError(
            f"series has {y.size} periods, experiment needs {cfg.sim_end}"
        )
    out = np.empty(cfg.n_sim_periods)
    for k in range(cfg.n_sim_periods):
        end = cfg.sim_start - 1 + k
        w = y[end - cfg.window : end].copy()
        out[k] = forecast_window(w)
    return out


def croston_forecast(series, smoothing: float = 0.1) -> np.ndarray:
    """Croston recursion: exponential smoothing of nonzero sizes and of
    inter-demand intervals; element k forecasts period k from the prior
    history (0 until the first demand).

    ``series`` is one series or an (S, n) matrix of S series, and the
    result has its shape.  The recursion steps all series at once, one
    period at a time, with each series' scalar operations in their
    order: size += s*(y - size), interval += s*(since - interval), and
    size/interval once a demand has been seen."""
    if not 0 < smoothing <= 1:
        raise ParameterError(f"smoothing must be in (0, 1], got {smoothing}")
    y = np.asarray(series, dtype=np.float64)
    if not np.all(np.isfinite(y)) or np.any(y < 0):
        raise ParameterError("demand series must be finite and nonnegative")
    # period-major, so that every step reads and writes contiguous rows
    y_t = np.ascontiguousarray(np.atleast_2d(y).T)
    out = np.zeros(y_t.shape)
    n_series = y_t.shape[1]
    size = np.zeros(n_series)
    interval = np.zeros(n_series)
    since = np.zeros(n_series)
    seen = np.zeros(n_series, dtype=bool)
    for k, y_k in enumerate(y_t):
        np.divide(size, interval, out=out[k], where=seen)
        since += 1.0
        # until its first demand a series holds the period's size and
        # interval, so that at the first one the smoothing steps below
        # add s*0.0 and leave them as the scalar loop sets them
        np.copyto(size, y_k, where=~seen)
        np.copyto(interval, since, where=~seen)
        hit = y_k > 0.0
        np.add(size, smoothing * (y_k - size), out=size, where=hit)
        np.add(interval, smoothing * (since - interval), out=interval, where=hit)
        seen |= hit
        np.copyto(since, 0.0, where=hit)
    return out.T.reshape(y.shape)


def generate_demand_series(cfg: ExperimentConfig) -> np.ndarray:
    """Per-period demand of every series, an (n_series, sim_end) array:
    row i is path i of the batch keyed ``cfg.base_seed``, and column
    k - 1 its demand over ((k-1)*L, k*L] with L = ``cfg.period_length``."""
    flat, offsets = batch_jump_times(
        cfg.process, cfg.sim_end * cfg.period_length, cfg.base_seed, cfg.n_series
    )
    return period_increments(cfg.process, flat, offsets, cfg.period_length, cfg.sim_end)


def experiment_forecasts(series_mat: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Forecast matrix aligned with the simulated periods of every series;
    Croston forecasts every series in one call."""
    if cfg.forecaster == "croston":
        return croston_forecast(series_mat)[:, cfg.sim_start - 1 : cfg.sim_end]
    out = np.empty((series_mat.shape[0], cfg.n_sim_periods))
    for i in range(series_mat.shape[0]):
        out[i] = rolling_forecast(series_mat[i], cfg)
    return out


def _experiment_arrays(cfg: ExperimentConfig):
    """Demand of the simulated periods and the forecasts the replay
    reads: None under the on-hand trigger, which reads none."""
    series_mat = generate_demand_series(cfg)
    actuals_mat = series_mat[:, cfg.sim_start - 1 : cfg.sim_end]
    if cfg.trigger == "on_hand":
        return actuals_mat, None
    return actuals_mat, experiment_forecasts(series_mat, cfg)


def _grid_rows(cfg: ExperimentConfig, param_grid):
    """Per-row (R, Q, c_h, c_so, order charge) arrays of the grid, every
    row checked before any series is generated."""
    if not len(param_grid):
        raise ParameterError("parameter grid must be non-empty")
    cols = []
    for i, (R, Q, c_h, c_o, c_so) in enumerate(param_grid):
        if not 0 < R < cfg.policy.x0:
            raise ParameterError(
                f"grid row {i}: reorder level R={R} must lie strictly between 0 "
                f"and x0={cfg.policy.x0}"
            )
        if not (Q > 0 and math.isfinite(Q)):
            raise ParameterError(f"grid row {i}: order quantity Q={Q} must be finite and positive")
        try:
            costs = CostParams(c_o=c_o, c_h=c_h, c_so=c_so, ordering_mode=cfg.costs.ordering_mode)
        except ParameterError as err:
            raise ParameterError(f"grid row {i}: {err}") from None
        cols.append((R, Q, c_h, c_so, costs.order_cost(Q)))
    return np.array(cols, dtype=np.float64).T


def run_table_experiment(cfg: ExperimentConfig, param_grid=None):
    """Average total cost per (R, Q, C_h, C_o, C_so) grid row.

    Demand series and any forecasts are generated once (every row replays
    the same series, which also serves as variance reduction) and every
    (row, series) pair is replayed in one pass of the discrete simulation."""
    if param_grid is None:
        param_grid = TABLE1_GRID
    grid_rows = _grid_rows(cfg, param_grid)
    actuals_mat, forecasts_mat = _experiment_arrays(cfg)
    n_series = actuals_mat.shape[0]
    ordering, holding, shortage, orders, stockout = discrete_sim(
        actuals_mat, forecasts_mat, cfg.policy.x0, *grid_rows
    )
    # every row of these C-ordered (G, S) arrays is one contiguous run,
    # which a reduction along axis 1 sums in the order a 1-D call on that
    # row takes (test_row_statistics_equal_per_row_calls pins it)
    totals = ordering + holding + shortage
    mean_total = totals.mean(axis=1)
    if n_series > 1:
        stderr_total = np.std(totals, axis=1, ddof=1) / np.sqrt(n_series)
    else:
        stderr_total = np.zeros(len(param_grid))
    mean_orders = orders.astype(np.float64).mean(axis=1)
    stockout_rate = stockout.astype(np.float64).mean(axis=1)
    return [
        TableRow(
            R=R,
            Q=Q,
            c_h=c_h,
            c_o=c_o,
            c_so=c_so,
            mean_total=float(mean_total[g]),
            stderr_total=float(stderr_total[g]),
            mean_orders=float(mean_orders[g]),
            stockout_rate=float(stockout_rate[g]),
        )
        for g, (R, Q, c_h, c_o, c_so) in enumerate(param_grid)
    ]


def cumulative_cost_profile(cfg: ExperimentConfig):
    """Mean cumulative realized cost after each simulated period.

    Returns (period numbers, cumulative mean cost) for the experiment's
    own policy and costs."""
    actuals_mat, forecasts_mat = _experiment_arrays(cfg)
    n_series, n_periods = actuals_mat.shape
    acc = np.empty((1, n_periods))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        discrete_sim(
            actuals_mat, forecasts_mat, cfg.policy.x0, cfg.policy.reorder_point, cfg.policy.Q,
            cfg.costs.c_h, cfg.costs.c_so, cfg.costs.order_cost(cfg.policy.Q), acc,
        )
        cum = np.cumsum(acc[0] / n_series)
    if not np.all(np.isfinite(cum)):
        raise ParameterError("the simulated cost overflows a float; use smaller c_o, c_h or c_so")
    return np.arange(cfg.sim_start, cfg.sim_end + 1), cum
