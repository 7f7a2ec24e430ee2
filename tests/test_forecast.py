"""Rolling ARIMA, Croston, and the discrete reorder experiment."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftinv.forecast
from driftinv import (
    CostParams,
    ExperimentConfig,
    InsufficientDataError,
    OrderingMode,
    ParameterError,
    PolicyParams,
    ProcessParams,
    croston_forecast,
    rolling_forecast,
    run_table_experiment,
)
from driftinv.cli import write_table_csv
from driftinv.forecast import (
    CANDIDATES,
    TABLE1_GRID,
    TRIGGERS,
    ar_stationary,
    cumulative_cost_profile,
    discrete_sim,
    generate_demand_series,
    experiment_forecasts,
    fit_candidate,
    fit_window,
    long_autoregression,
    forecast_window,
    ols,
    pick_d,
    sample_var,
)


def scalar_discrete_sim(actuals, forecasts, x0, R, Q, c_h, c_so, order_charge, per_period):
    """One (grid row, series) pair, period by period: the reference the
    batched ``discrete_sim`` must reproduce bit for bit.  ``forecasts``
    None is the on-hand trigger."""
    inv = x0
    ordering = 0.0
    holding = 0.0
    shortage = 0.0
    orders = 0
    stockout = False
    for k in range(actuals.shape[0]):
        cost_k = 0.0
        proj = inv if forecasts is None else inv - forecasts[k]
        if proj <= R:
            inv += Q
            orders += 1
            ordering += order_charge
            cost_k += order_charge
        inv -= actuals[k]
        h = c_h * inv if inv > 0.0 else 0.0
        s = -c_so * inv if inv < 0.0 else 0.0
        if inv < 0.0:
            stockout = True
        holding += h
        shortage += s
        per_period[k] = cost_k + h + s
    return ordering, holding, shortage, orders, stockout


def scalar_croston_forecast(y, smoothing):
    """Croston's recursion on one series, period by period: the reference
    the batched ``croston_forecast`` must reproduce bit for bit."""
    out = np.zeros(y.size)
    size = 0.0
    interval = 0.0
    seen = False
    since = 0
    for k in range(y.size):
        out[k] = size / interval if seen else 0.0
        since += 1
        if y[k] > 0:
            if not seen:
                size = y[k]
                interval = float(since)
                seen = True
            else:
                size += smoothing * (y[k] - size)
                interval += smoothing * (since - interval)
            since = 0
    return out


def assert_batch_matches_scalar(actuals, forecasts, x0, R, Q, c_h, c_so, charge):
    n_series, n_periods = actuals.shape
    period_cost = np.empty((R.size, n_periods))
    got = discrete_sim(actuals, forecasts, x0, R, Q, c_h, c_so, charge, period_cost)
    per_period = np.empty(n_periods)
    for g in range(R.size):
        acc = np.zeros(n_periods)
        for i in range(n_series):
            want = scalar_discrete_sim(
                actuals[i], None if forecasts is None else forecasts[i],
                x0, R[g], Q[g], c_h[g], c_so[g], charge[g], per_period,
            )
            pair = np.array([out[g, i] for out in got], dtype=np.float64)
            assert pair.tobytes() == np.array(want, dtype=np.float64).tobytes()
            acc += per_period
        assert period_cost[g].tobytes() == acc.tobytes()


def replay_one(actuals, forecasts, policy, costs):
    """``discrete_sim`` of one series on a one-row grid; ``forecasts``
    None is the on-hand trigger.  Returns (ordering, holding, shortage,
    orders, stockout)."""
    out = discrete_sim(
        np.atleast_2d(actuals), None if forecasts is None else np.atleast_2d(forecasts),
        policy.x0, policy.reorder_point, policy.Q, costs.c_h, costs.c_so,
        costs.order_cost(policy.Q),
    )
    return tuple(v[0, 0] for v in out)


def make_cfg(**kw):
    p = ProcessParams(mu=5.0, alpha=10.0, lam=1.0)
    defaults = dict(
        process=p,
        policy=PolicyParams(x0=100.0, a=50.0, Q=50.0),
        costs=CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER),
        n_series=20,
        base_seed=7_000_000,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_experiment_config_validation():
    with pytest.raises(ParameterError):
        make_cfg(window=12, sim_start=14)
    for trigger in TRIGGERS:
        make_cfg(trigger=trigger)
    with pytest.raises(ParameterError, match="unknown trigger rule 'psychic'"):
        make_cfg(trigger="psychic")


def test_constant_series_falls_back_to_mean():
    w = np.full(12, 15.0)
    assert pick_d(w) == 0
    _, p, q, beta = fit_window(w)
    assert (p, q) == (0, 0)
    assert beta.tolist() == pytest.approx([15.0])
    assert forecast_window(w) == pytest.approx(15.0)


def test_empty_z_fits_nothing_and_one_point_window_fits_its_mean():
    # an empty array has no mean to fit, so no candidate is ok; a
    # one-point window picks d = 0, so forecast_window never fits one
    # and the (0, 0) candidate forecasts the point itself
    assert fit_candidate(np.array([]), 0, 0, None)[0] is False
    assert fit_window(np.array([])) is None
    assert pick_d(np.array([3.0])) == 0
    assert fit_window(np.array([3.0]))[1:3] == (0, 0)
    assert forecast_window(np.array([3.0])) == 3.0


def test_ar1_recovery():
    rng = np.random.default_rng(8)
    n = 500
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.8 * y[t - 1] + rng.normal()
    # pure AR fits recover the coefficient; the full grid may pick an
    # overparameterized ARMA with a near-cancelling factor
    ok, beta, _, _ = fit_candidate(y, 1, 0, None)
    assert ok
    assert beta[1] == pytest.approx(0.8, abs=0.1)
    ok, beta, _, _ = fit_candidate(y, 2, 0, None)
    assert ok
    assert beta[1] == pytest.approx(0.8, abs=0.1)
    assert beta[2] == pytest.approx(0.0, abs=0.1)


def test_linear_trend_selects_differencing():
    series = 3.0 * np.arange(20.0) + 1.0
    assert pick_d(series) == 1


def test_fitted_ar_roots_outside_unit_disk(ref_process):
    # stationarity invariant, verified with numpy roots
    rng = np.random.default_rng(4)
    for _ in range(30):
        window = rng.poisson(1.0, 12) * 10.0 + 5.0
        z = np.diff(window) if pick_d(window) == 1 else window
        _, p, _, beta = fit_window(z)
        if p:
            poly = np.concatenate(([1.0], -beta[1 : p + 1]))
            roots = np.roots(poly[::-1])  # roots of 1 - phi1 z - phi2 z^2
            assert np.all(np.abs(roots) > 1.0)


def test_ar_stationary_matches_polynomial_roots():
    # p = 1 and p = 0 are the AR(2) triangle with the missing coefficients 0
    rng = np.random.default_rng(21)
    assert ar_stationary(np.array([]))
    for p in (1, 2):
        for phi in rng.uniform(-2.5, 2.5, (500, p)):
            roots = np.roots(np.concatenate(([1.0], -phi))[::-1])
            assert ar_stationary(phi) == bool(np.all(np.abs(roots) > 1.0))


def test_fit_window_minimises_aic_then_order():
    # the scan keeps a later candidate only at a strictly smaller AIC, and
    # scans by p+q, then p: the winner minimises (aic, p+q, p) over the
    # candidates that fit
    assert sorted(CANDIDATES) == [(p, q) for p in range(3) for q in range(3)]
    assert list(CANDIDATES) == sorted(CANDIDATES, key=lambda pq: (sum(pq), pq[0]))
    rng = np.random.default_rng(13)
    spike = np.full(12, 5.0)
    spike[7] = 45.0
    windows = [np.full(12, 15.0), np.zeros(12), spike, 2.0 * np.arange(12.0) + 1.0]
    windows += [3.0 * np.arange(12.0) + rng.normal(0.0, 0.5, 12) for _ in range(5)]
    windows += [5.0 + 10.0 * rng.poisson(lam, 12) for lam in (0.2, 1.0, 3.0) for _ in range(10)]
    for w in windows:
        for z in (w, np.diff(w)):
            fits = []
            for p in range(3):
                for q in range(3):
                    ok, beta, rss, rows = fit_candidate(z, p, q, long_autoregression(z))
                    if ok:
                        aic = rows * np.log(max(rss / rows, 1e-12)) + 2.0 * (p + q + 1)
                        fits.append(((aic, p + q, p), q, beta))
            (aic, _, p), q, beta = min(fits, key=lambda fit: fit[0])
            got = fit_window(z)
            assert got[:3] == (aic, p, q)
            assert np.array_equal(got[3], beta)


def test_fit_window_breaks_aic_ties_by_smaller_p(monkeypatch):
    # every candidate with p+q = 2 that fits fits equally well and best, so
    # they tie on AIC: the smallest p wins, and a tie never replaces the
    # fit held; candidates with q above q_fits do not fit
    z = np.arange(12.0)
    for q_fits, want in ((2, (0, 2)), (1, (1, 1)), (0, (2, 0))):

        def equal_fits(z, p, q, stage_one):
            if q > q_fits:
                return False, None, 0.0, 0
            return True, np.array([float(p), float(q)]), 1e-3 if p + q == 2 else 1.0, 10

        monkeypatch.setattr(driftinv.forecast, "fit_candidate", equal_fits)
        _, p, q, beta = fit_window(z)
        assert (p, q) == want
        assert beta.tolist() == [p, q]


def test_rolling_constant_series():
    cfg = make_cfg(n_series=1)
    series = np.full(50, 15.0)
    fc = rolling_forecast(series, cfg)
    assert fc.shape == (38,)
    assert np.allclose(fc, 15.0)


def test_rolling_too_short(ref_process):
    cfg = make_cfg()
    with pytest.raises(InsufficientDataError):
        rolling_forecast(np.ones(20), cfg)


def test_rolling_bounded_by_window_extremes():
    # random windows with one spike: forecasts stay within [0, window max]
    cfg = make_cfg()
    rng = np.random.default_rng(12)
    for _ in range(20):
        series = rng.poisson(1.0, 50) * 10.0 + 5.0
        series[rng.integers(0, 50)] += 120.0
        fc = rolling_forecast(series, cfg)
        for k in range(fc.size):
            window = series[k : k + cfg.window]
            assert 0.0 <= fc[k] <= window.max() + 1e-9


def test_rolling_underestimates_jump_periods(monkeypatch):
    # periods whose demand includes a jump exceed their forecasts on average
    cfg = make_cfg(n_series=200)
    series_mat = generate_demand_series(cfg)
    fc_mat = experiment_forecasts(series_mat, cfg)
    act_mat = series_mat[:, cfg.sim_start - 1 : cfg.sim_end]
    jumpy = act_mat >= 15.0  # at least one jump landed in the period
    assert act_mat[jumpy].mean() > fc_mat[jumpy].mean()

    # the long autoregression, fit once per window, gives the forecasts of
    # a fit that refits it for each candidate, bit for bit (on every fifth
    # series: a series' forecasts read only its own windows)
    def refit(z, p, q, stage_one):
        return fit_candidate(z, p, q, long_autoregression(z))

    monkeypatch.setattr(driftinv.forecast, "fit_candidate", refit)
    assert np.array_equal(experiment_forecasts(series_mat[::5], cfg), fc_mat[::5])


def test_croston_examples():
    assert np.allclose(croston_forecast([7.0] * 6), [0, 7, 7, 7, 7, 7])
    fc = croston_forecast([5.0, 0.0] * 40, smoothing=0.2)
    assert fc[-1] == pytest.approx(2.5, abs=0.05)
    # smoothing = 1 keeps only the last size and interval
    fc = croston_forecast([0.0, 5.0, 0.0, 0.0, 7.0, 0.0], smoothing=1.0)
    assert fc[-1] == pytest.approx(7.0 / 3.0)
    assert np.all(croston_forecast([0.0, 0.0, 0.0]) == 0.0)
    with pytest.raises(ParameterError):
        croston_forecast([1.0], smoothing=0.0)
    with pytest.raises(ParameterError):
        croston_forecast([-1.0])


@pytest.mark.parametrize("series", [[np.nan, 5.0, 0.0, 3.0], [np.inf, 5.0, 0.0]])
def test_croston_rejects_non_finite_demand(series):
    # NaN passed the old y < 0 check and read as "no demand"; inf gave
    # inf and then nan forecasts
    with pytest.raises(ParameterError, match="demand series must be finite and nonnegative"):
        croston_forecast(series)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        croston_forecast(np.array([[1.0] * len(series), series]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n_series=st.integers(1, 6),
    n_periods=st.integers(1, 12),
    smoothing=st.sampled_from([1.0, 1e-3, 0.1]) | st.floats(1e-4, 1.0),
)
def test_batched_croston_matches_scalar_recursion(data, n_series, n_periods, smoothing):
    # rows mix zeros with lattice and off-lattice sizes; one row is all
    # zeros and one sees its first demand in the last period
    size = st.sampled_from([0.0, 0.0, 1.0, 5.0]) | st.floats(1e-6, 50.0)
    y = np.array(
        data.draw(st.lists(size, min_size=n_series * n_periods, max_size=n_series * n_periods))
    ).reshape(n_series, n_periods)
    y[0] = 0.0
    if n_series > 1:
        y[1, :-1] = 0.0
        y[1, -1] = data.draw(st.floats(1e-6, 50.0))
    want = np.array([scalar_croston_forecast(row, smoothing) for row in y])
    got = croston_forecast(y, smoothing)
    assert got.shape == y.shape
    assert got.tobytes() == want.tobytes()
    one = croston_forecast(y[-1], smoothing)  # a 1-D series is the one-row case
    assert one.shape == (n_periods,)
    assert one.tobytes() == want[-1].tobytes()


def test_experiment_makes_one_croston_call(monkeypatch):
    # every series goes through one call, so forecast.croston.self_s
    # holds all Croston time
    calls = []

    def counted(series, *args, **kwargs):
        calls.append(np.shape(series))
        return croston_forecast(series, *args, **kwargs)

    monkeypatch.setattr(driftinv.forecast, "croston_forecast", counted)
    cfg = make_cfg(n_series=7, forecaster="croston", trigger="forecast_projected")
    series_mat = generate_demand_series(cfg)
    fc = experiment_forecasts(series_mat, cfg)
    assert calls == [series_mat.shape]
    assert fc.shape == (7, cfg.n_sim_periods)
    run_table_experiment(cfg, TABLE1_GRID[:2])
    cumulative_cost_profile(cfg)
    assert calls == [series_mat.shape] * 3


def test_reorder_sim_zero_demand(ref_policy):
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    n = 10
    ordering, holding, shortage, _, _ = replay_one(np.zeros(n), None, ref_policy, costs)
    assert ordering == 0.0
    assert holding == pytest.approx(costs.c_h * ref_policy.x0 * n)
    assert shortage == 0.0


def test_reorder_sim_shortage_sign(ref_policy):
    costs = CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=OrderingMode.PER_ORDER)
    # huge forecast forces an order; demand still exceeds x0 + Q
    ordering, holding, shortage, _, _ = replay_one([200.0], [150.0], ref_policy, costs)
    assert ordering == 5.0
    assert shortage == pytest.approx(10.0 * 50.0)  # end inventory -50
    assert holding == 0.0


def test_discrete_inventory_balance():
    # end(k) = end(k-1) + Q * orders(k) - actual(k), re-derived from costs
    cfg = make_cfg(n_series=3)
    act = generate_demand_series(cfg)[0, cfg.sim_start - 1 : cfg.sim_end]
    inv = cfg.policy.x0
    orders = 0
    for k in range(act.size):
        if inv <= cfg.policy.reorder_point:
            inv += cfg.policy.Q
            orders += 1
        inv -= act[k]
    ordering, _, _, replayed, _ = replay_one(act, None, cfg.policy, cfg.costs)
    assert replayed == orders
    assert ordering == pytest.approx(cfg.costs.c_o * orders)


def test_table_single_row_single_series_matches_direct_sim():
    cfg = make_cfg(n_series=1)
    rows = run_table_experiment(cfg, [(40.0, 50.0, 1.0, 5.0, 10.0)])
    act = generate_demand_series(cfg)[0, cfg.sim_start - 1 : cfg.sim_end]
    # on-hand trigger: the replay reads no forecast
    ordering, holding, shortage, _, _ = scalar_discrete_sim(
        act, None, 100.0, 40.0, 50.0, 1.0, 10.0, cfg.costs.order_cost(50.0), np.empty(act.size)
    )
    assert rows[0].mean_total == pytest.approx(ordering + holding + shortage, rel=1e-12)
    assert rows[0].stderr_total == 0.0


def test_table_monotone_in_R_and_Q_smoke():
    cfg = make_cfg(n_series=60)
    grid = [
        (40.0, 50.0, 1.0, 5.0, 10.0),
        (50.0, 50.0, 1.0, 5.0, 10.0),
        (60.0, 50.0, 1.0, 5.0, 10.0),
        (40.0, 60.0, 1.0, 5.0, 10.0),
    ]
    rows = run_table_experiment(cfg, grid)
    assert rows[0].mean_total <= rows[1].mean_total <= rows[2].mean_total
    assert rows[0].mean_total <= rows[3].mean_total


def test_table_rejects_bad_reorder_level():
    cfg = make_cfg(n_series=1)
    with pytest.raises(ParameterError):
        run_table_experiment(cfg, [(150.0, 50.0, 1.0, 5.0, 10.0)])


@pytest.mark.parametrize(
    "bad_row",
    [
        (150.0, 50.0, 1.0, 5.0, 10.0),
        (0.0, 50.0, 1.0, 5.0, 10.0),
        (40.0, -50.0, 1.0, 5.0, 10.0),
        (40.0, 0.0, 1.0, 5.0, 10.0),
        (40.0, float("nan"), 1.0, 5.0, 10.0),
        (40.0, float("inf"), 1.0, 5.0, 10.0),
        (40.0, 50.0, float("nan"), 5.0, 10.0),
        (40.0, 50.0, 1.0, float("inf"), 10.0),
    ],
)
def test_table_checks_every_grid_row_before_generating(bad_row, monkeypatch):
    def no_series(cfg):
        raise AssertionError("a series was generated before the grid was checked")

    monkeypatch.setattr(driftinv.forecast, "generate_demand_series", no_series)
    cfg = make_cfg(n_series=1)
    with pytest.raises(ParameterError, match="grid row 2"):
        run_table_experiment(cfg, TABLE1_GRID[:2] + [bad_row])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n_rows=st.integers(1, 4),
    n_series=st.integers(1, 12),
    n_periods=st.integers(1, 10),
    on_hand=st.booleans(),
    per_unit=st.booleans(),
    lattice=st.booleans(),
)
def test_batched_replay_matches_scalar_loop(
    data, n_rows, n_series, n_periods, on_hand, per_unit, lattice
):
    # on the integer lattice the inventory lands exactly on R and on 0,
    # and a demand of 0 leaves it where it was
    if lattice:
        value = lambda hi: st.integers(0, hi).map(float)
    else:
        value = lambda hi: st.floats(0.0, hi, allow_nan=False)
    x0 = float(data.draw(st.integers(2, 60)))
    shape = (n_series, n_periods)
    size = n_series * n_periods
    actuals, forecasts = (
        np.array(data.draw(st.lists(value(hi), min_size=size, max_size=size))).reshape(shape)
        for hi in (30, 20)
    )
    rows = [
        (
            float(data.draw(st.integers(1, int(x0) - 1))),
            data.draw(value(40).filter(lambda q: q > 0)),
            data.draw(value(3)),
            data.draw(value(12)),
            data.draw(value(10)),
        )
        for _ in range(n_rows)
    ]
    R, Q, c_h, c_so, c_o = (np.array(col) for col in zip(*rows))
    charge = c_o * Q if per_unit else c_o
    assert_batch_matches_scalar(
        actuals, None if on_hand else forecasts, x0, R, Q, c_h, c_so, charge
    )


def _grouped_grids():
    """Grids whose rows share (R, Q) in different ways: TABLE1_GRID in a
    shuffled order (12 states, rows of one state apart); every (R, Q)
    distinct; and rows of one (R, Q) that differ only in c_h, or only
    in c_so, next to rows of their own state, one of them with c_h and
    c_so both 0.0 (a holding +0.0 and a shortage -0.0 coefficient)."""
    shuffled = [TABLE1_GRID[i] for i in np.random.default_rng(26).permutation(len(TABLE1_GRID))]
    # Q = 12 orders less than the mean demand per period, so backorders build
    distinct = [(R, Q, 1.0, 5.0, 10.0) for R in (10.0, 47.5, 60.0) for Q in (12.0, 61.3)]
    shared = [
        (45.0, 55.0, 1.0, 5.0, 10.0),
        (45.0, 55.0, 2.5, 5.0, 10.0),
        (45.0, 55.0, 0.0, 5.0, 10.0),
        (45.0, 55.0, 2.5, 5.0, 10.0),
        (10.0, 12.0, 1.0, 5.0, 10.0),
        (10.0, 12.0, 1.0, 5.0, 12.5),
        (10.0, 12.0, 1.0, 5.0, 0.0),
        (60.0, 70.0, 1.0, 7.0, 10.0),
        (45.0, 55.0, 1.0, 9.0, 12.5),
        (45.0, 55.0, 0.0, 5.0, 0.0),
    ]
    return {"table1_shuffled": shuffled, "distinct": distinct, "shared": shared}


@pytest.mark.parametrize("name", list(_grouped_grids()))
@pytest.mark.parametrize("on_hand", [True, False])
@pytest.mark.parametrize("per_unit", [True, False])
def test_grouped_replay_matches_scalar_loop(name, on_hand, per_unit):
    # the replay steps each distinct (R, Q) once and accrues each cost once
    # per distinct (state, coefficient); every row still gets the bits of
    # its own scalar loop, period costs included.  Demand is off the
    # integer lattice, and every grid has rows that order, hold and
    # backorder
    cfg = make_cfg(
        n_series=9, forecaster="croston", process=ProcessParams(mu=5.3, alpha=9.7, lam=1.1)
    )
    series_mat = generate_demand_series(cfg)
    actuals = series_mat[:, cfg.sim_start - 1 : cfg.sim_end]
    forecasts = None if on_hand else experiment_forecasts(series_mat, cfg)
    R, Q, c_h, c_o, c_so = (np.array(col) for col in zip(*_grouped_grids()[name]))
    charge = c_o * Q if per_unit else c_o
    assert_batch_matches_scalar(actuals, forecasts, cfg.policy.x0, R, Q, c_h, c_so, charge)


def scalar_experiment(cfg, grid):
    """Table rows and cost profile of the experiment, one scalar replay
    per (grid row, series) pair."""
    series_mat = generate_demand_series(cfg)
    on_hand = cfg.trigger == "on_hand"
    fc_mat = None if on_hand else experiment_forecasts(series_mat, cfg)
    act_mat = series_mat[:, cfg.sim_start - 1 : cfg.sim_end]
    n_series, n_periods = act_mat.shape
    per_period = np.empty(n_periods)

    def replay(R, Q, c_h, c_so, charge):
        for i in range(n_series):
            yield scalar_discrete_sim(
                act_mat[i], None if on_hand else fc_mat[i],
                cfg.policy.x0, R, Q, c_h, c_so, charge, per_period,
            )

    rows = []
    for R, Q, c_h, c_o, c_so in grid:
        charge = CostParams(c_o, c_h, c_so, cfg.costs.ordering_mode).order_cost(Q)
        res = list(replay(R, Q, c_h, c_so, charge))
        totals = np.array([o + h + s for o, h, s, _, _ in res])
        rows.append((
            R, Q, c_h, c_o, c_so,
            float(np.mean(totals)),
            float(np.std(totals, ddof=1) / np.sqrt(n_series)) if n_series > 1 else 0.0,
            float(np.mean(np.array([r[3] for r in res], dtype=np.float64))),
            float(np.mean(np.array([float(r[4]) for r in res]))),
        ))
    acc = np.zeros(n_periods)
    for _ in replay(
        cfg.policy.x0 - cfg.policy.a, cfg.policy.Q, cfg.costs.c_h, cfg.costs.c_so,
        cfg.costs.order_cost(cfg.policy.Q),
    ):
        acc += per_period
    acc /= n_series
    return rows, np.cumsum(acc)


@pytest.mark.parametrize("trigger", TRIGGERS)
@pytest.mark.parametrize("mode", list(OrderingMode))
def test_table_and_profile_equal_scalar_replay(trigger, mode):
    # demand off the integer lattice, so that sums taken in another order
    # round differently
    cfg = make_cfg(
        n_series=40, forecaster="croston", trigger=trigger,
        process=ProcessParams(mu=5.3, alpha=9.7, lam=1.1),
        costs=CostParams(c_o=5.0, c_h=1.0, c_so=10.0, ordering_mode=mode),
    )
    want_rows, want_profile = scalar_experiment(cfg, TABLE1_GRID)
    rows = run_table_experiment(cfg, TABLE1_GRID)
    assert repr([tuple(vars(r).values()) for r in rows]) == repr(want_rows)
    assert cumulative_cost_profile(cfg)[1].tobytes() == want_profile.tobytes()


@pytest.mark.parametrize("n_series", [1, 2, 129, 257])
def test_row_statistics_equal_per_row_calls(n_series):
    # the table takes its statistics along axis 1 of the (G, S) arrays;
    # they must equal np.mean/np.std on each row as a 1-D array, with no
    # tolerance: one series takes the stderr 0.0 branch, and 129 and 257
    # cross numpy's 128-element pairwise-sum block
    cfg = make_cfg(
        n_series=n_series, forecaster="croston", trigger="forecast_projected",
        process=ProcessParams(mu=5.3, alpha=9.7, lam=1.1),
    )
    grid = [TABLE1_GRID[0], TABLE1_GRID[-1]]
    want_rows, _ = scalar_experiment(cfg, grid)
    rows = run_table_experiment(cfg, grid)
    assert repr([tuple(vars(r).values()) for r in rows]) == repr(want_rows)
    if n_series == 1:
        assert [r.stderr_total for r in rows] == [0.0, 0.0]


def _scaled_experiment(s, trigger, mode):
    """Table rows and cumulative profile of one Croston experiment in a
    demand unit s times smaller: mu, alpha, x0, a and every grid R and Q
    times s, and c_h, c_so and, in per-unit mode, c_o over s."""
    per_unit = mode is OrderingMode.PER_UNIT_TIMES_Q
    grid = [
        (R * s, Q * s, c_h / s, c_o / s if per_unit else c_o, c_so / s)
        for R, Q, c_h, c_o, c_so in TABLE1_GRID
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the cost ordering's warning
        cfg = make_cfg(
            n_series=60, forecaster="croston", trigger=trigger,
            process=ProcessParams(mu=5.3 * s, alpha=9.7 * s, lam=1.1),
            policy=PolicyParams(x0=100.0 * s, a=50.0 * s, Q=50.0 * s),
            costs=CostParams(
                c_o=5.0 / s if per_unit else 5.0, c_h=1.0 / s, c_so=10.0 / s, ordering_mode=mode
            ),
        )
        return run_table_experiment(cfg, grid), cumulative_cost_profile(cfg)[1]


@pytest.mark.parametrize("s", [4.0, 0.5])
@pytest.mark.parametrize("trigger", TRIGGERS)
@pytest.mark.parametrize("mode", list(OrderingMode))
def test_replay_independent_of_demand_unit(s, trigger, mode):
    # the demand-unit relation of the table replay: a power of two scales
    # every demand, inventory and reorder level exactly and every cost
    # product not at all, so every row's statistics and the profile keep
    # their bits.  At s = 3 the scaled values round, and exact ties of
    # inventory with R then fall to either side and move whole rows: that
    # is the lattice effect, not a defect.
    # The ARIMA forecaster is left out, as it depends on the unit: its AIC,
    # rows*ln(RSS/rows) + 2k, compares candidates of different row counts,
    # and scaling demand by s adds rows*ln(s**2) to each, which reorders them
    rows, profile = _scaled_experiment(s, trigger, mode)
    want_rows, want_profile = _scaled_experiment(1.0, trigger, mode)
    stats = ("mean_total", "stderr_total", "mean_orders", "stockout_rate")
    assert repr([[getattr(r, f) for f in stats] for r in rows]) == repr(
        [[getattr(r, f) for f in stats] for r in want_rows]
    )
    assert profile.tobytes() == want_profile.tobytes()
    assert len({r.stockout_rate for r in rows}) > 1  # rows that backorder and rows that do not


def test_on_hand_replay_reads_no_forecast(monkeypatch):
    # under on_hand the table and the profile measure the reorder-point
    # replay, not the forecaster: no forecast is computed for them;
    # under forecast_projected each build computes them once, and NaN
    # forecasts change the rows
    grid = TABLE1_GRID[::5]
    on_hand, projected = (make_cfg(n_series=8, trigger=t) for t in TRIGGERS)

    def experiment(cfg):
        return run_table_experiment(cfg, grid), cumulative_cost_profile(cfg)[1]

    real_on_hand, real_projected = experiment(on_hand), experiment(projected)

    def no_forecasts(series_mat, cfg):
        raise AssertionError("the on-hand replay computed forecasts")

    monkeypatch.setattr(driftinv.forecast, "experiment_forecasts", no_forecasts)
    rows, profile = experiment(on_hand)
    assert rows == real_on_hand[0]
    assert profile.tobytes() == real_on_hand[1].tobytes()
    calls = []

    def nan_forecasts(series_mat, cfg):
        calls.append(cfg)
        return np.full((series_mat.shape[0], cfg.n_sim_periods), np.nan)

    monkeypatch.setattr(driftinv.forecast, "experiment_forecasts", nan_forecasts)
    rows, profile = experiment(projected)
    assert calls == [projected, projected]  # the table's build and the profile's
    assert rows != real_projected[0]
    assert not np.array_equal(profile, real_projected[1])


def test_batched_replay_lands_on_reorder_point_and_zero():
    # series 0 drains to R = 5 exactly (an order fires there) and to 0
    # exactly (no holding, no shortage, no stockout); series 1 has zero
    # demand throughout; series 2 backorders
    actuals = np.array([
        [5.0, 0.0, 10.0, 5.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [4.0, 9.0, 20.0, 1.0, 3.0],
    ])
    forecasts = np.array([
        [0.0, 5.0, 0.0, 0.0, 5.0],
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [3.0, 3.0, 3.0, 3.0, 3.0],
    ])
    R = np.array([5.0, 4.0])
    Q = np.array([5.0, 2.0])
    ones = np.ones(2)
    for fc in (None, forecasts):  # on hand, forecast projected
        assert_batch_matches_scalar(actuals, fc, 10.0, R, Q, ones, 2 * ones, 3 * ones)
    per_period = np.empty(5)
    # on hand, R = Q = 5, end levels 5 | order, 10 | 0 | order, 0 | order, 5
    assert scalar_discrete_sim(
        actuals[0], None, 10.0, 5.0, 5.0, 1.0, 2.0, 3.0, per_period
    ) == (9.0, 20.0, 0.0, 3, False)
    assert per_period.tolist() == [5.0, 3.0 + 10.0, 0.0, 3.0, 3.0 + 5.0]


def test_table_csv_schema(tmp_path):
    cfg = make_cfg(n_series=2)
    rows = run_table_experiment(cfg, [(40.0, 50.0, 1.0, 5.0, 10.0)])
    f = tmp_path / "table.csv"
    write_table_csv(rows, f)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "R,Q,C_h,C_o,C_so,mean_total,stderr_total,mean_orders,stockout_rate"
    assert len(lines) == 2


def test_cumulative_profile_shape_and_growth():
    cfg = make_cfg(n_series=30)
    periods, cum = cumulative_cost_profile(cfg)
    assert periods[0] == cfg.sim_start and periods[-1] == cfg.sim_end
    assert cum.shape == (cfg.n_sim_periods,)
    assert np.all(np.diff(cum) >= 0)


def test_croston_forecaster_wiring():
    cfg = make_cfg(n_series=2, forecaster="croston")
    series_mat = generate_demand_series(cfg)
    fc = experiment_forecasts(series_mat, cfg)
    assert fc.shape == (2, cfg.n_sim_periods)
    assert np.all(fc >= 0)


def test_experiment_replay_determinism():
    cfg = make_cfg(n_series=5)
    rows_a = run_table_experiment(cfg, [(40.0, 50.0, 1.0, 5.0, 10.0)])
    rows_b = run_table_experiment(cfg, [(40.0, 50.0, 1.0, 5.0, 10.0)])
    assert rows_a == rows_b


def _loop_sum(v):
    total = 0.0
    for x in v:
        total += x
    return total


def test_numpy_reductions_match_scalar_loops():
    # sample_var, the mean model and the ols rss are numpy reductions,
    # which sum in another order than a left-to-right loop: they agree
    # with it to a few ulps, not bit for bit
    tol = 64 * np.finfo(np.float64).eps
    rng = np.random.default_rng(11)
    assert sample_var(np.array([3.0])) == 0.0
    for n in (2, 5, 11, 12, 30):
        v = 0.7 + 3.3 * rng.poisson(0.4, n)  # per-period demand, low-intensity process
        m = _loop_sum(v) / n
        ss = _loop_sum((v - m) ** 2)
        assert sample_var(v) == pytest.approx(ss / (n - 1), rel=tol, abs=tol)
        ok, beta, rss, rows = fit_candidate(v, 0, 0, None)
        assert ok and rows == n
        assert beta.shape == (1,) and beta[0] == pytest.approx(m, rel=tol)
        assert rss == pytest.approx(ss, rel=tol, abs=tol)
        X = np.column_stack([np.ones(n), np.arange(n, dtype=np.float64)])
        beta, rss, ok = ols(X, v)
        assert ok
        assert rss == pytest.approx(_loop_sum((v - X @ beta) ** 2), rel=tol, abs=tol)
