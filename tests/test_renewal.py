"""Renewal-series expectations and the empirical first-passage oracle."""

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftinv import (
    ParameterError,
    PolicyParams,
    ProcessParams,
    RenewalSeriesConfig,
    SeriesNotConvergedError,
    expected_integrated_renewals,
    expected_renewals,
    fpt_empirical_cdf,
    fpt_gamma_spec,
    gamma_cdf,
)
import driftinv.renewal
from driftinv import renewal
from driftinv.demand import CHUNK_PATHS, batch_jump_times, first_true
from driftinv.gammainc import reg_lower_gamma
from driftinv.renewal import expected_renewal_sums, first_passage_times, renewal_series

from test_gamma import scalar_gamma_pair


def test_fpt_spec_reference_values(ref_process, ref_policy):
    spec = fpt_gamma_spec(ref_process, ref_policy, 1)
    assert (spec.shape, spec.rate) == (10.0, 10.0)
    spec = fpt_gamma_spec(ref_process, ref_policy, 2)
    assert (spec.shape, spec.rate) == (20.0, 10.0)


def test_fpt_spec_exponential_case():
    p = ProcessParams(mu=1.0, alpha=1.0, lam=1.0)
    pol = PolicyParams(x0=2.0, a=1.0, Q=1.0)
    spec = fpt_gamma_spec(p, pol, 1)
    assert (spec.shape, spec.rate) == (1.0, 1.0)


def test_fpt_spec_bad_index(ref_process, ref_policy):
    with pytest.raises(ParameterError):
        fpt_gamma_spec(ref_process, ref_policy, 0)


def test_series_config_validation():
    with pytest.raises(ParameterError):
        RenewalSeriesConfig(tail_tol=0.0)
    with pytest.raises(ParameterError):
        RenewalSeriesConfig(n_max=0)


def test_expected_renewals_at_zero(ref_process, ref_policy, series_cfg):
    assert expected_renewals(ref_process, ref_policy, 0.0, series_cfg) == 0.0
    assert expected_integrated_renewals(ref_process, ref_policy, 0.0, series_cfg) == 0.0


def test_huge_order_quantity_leaves_first_term(ref_process, series_cfg):
    # with Q enormous, later thresholds are unreachable
    pol = PolicyParams(x0=100.0, a=50.0, Q=1e9)
    t = 5.0
    want = gamma_cdf(fpt_gamma_spec(ref_process, pol, 1), t)
    assert expected_renewals(ref_process, pol, t, series_cfg) == pytest.approx(want, abs=1e-15)


def test_terms_strictly_decreasing_in_n(ref_process, ref_policy):
    t = 8.0
    terms = [
        gamma_cdf(fpt_gamma_spec(ref_process, ref_policy, n), t) for n in range(1, 12)
    ]
    assert all(b < a for a, b in zip(terms, terms[1:]))


def test_monotone_in_time(ref_process, ref_policy, series_cfg):
    grid = np.linspace(0.0, 12.0, 49)
    er = [expected_renewals(ref_process, ref_policy, t, series_cfg) for t in grid]
    ei = [expected_integrated_renewals(ref_process, ref_policy, t, series_cfg) for t in grid]
    assert all(b >= a for a, b in zip(er, er[1:]))
    assert all(b >= a for a, b in zip(ei, ei[1:]))
    assert all(v >= 0 for v in ei)


def test_more_renewals_with_smaller_orders(ref_process, series_cfg):
    # shrinking Q raises every term, so the sum is nondecreasing in 1/Q
    t = 6.0
    values = [
        expected_renewals(
            ref_process, PolicyParams(x0=100.0, a=50.0, Q=Q), t, series_cfg
        )
        for Q in (80.0, 60.0, 50.0, 30.0)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_integrated_bounded_by_t_times_count(ref_process, ref_policy, series_cfg):
    for t in (1.0, 3.0, 7.0):
        er = expected_renewals(ref_process, ref_policy, t, series_cfg)
        ei = expected_integrated_renewals(ref_process, ref_policy, t, series_cfg)
        assert 0.0 <= ei <= t * er


def test_integrated_matches_quadrature_of_count(ref_process, ref_policy, series_cfg):
    # Fubini: E[integral of R over [0,t]] == integral of E[R_s] ds
    t = 6.0
    want, _ = scipy.integrate.quad(
        lambda s: expected_renewals(ref_process, ref_policy, s, series_cfg), 0.0, t, limit=200
    )
    got = expected_integrated_renewals(ref_process, ref_policy, t, series_cfg)
    assert got == pytest.approx(want, abs=1e-6)


def test_series_not_converged_error(ref_process, ref_policy):
    cfg = RenewalSeriesConfig(tail_tol=1e-12, n_max=3)
    with pytest.raises(SeriesNotConvergedError) as exc:
        expected_renewals(ref_process, ref_policy, 10.0, cfg)
    err = exc.value
    want_partial = sum(
        gamma_cdf(fpt_gamma_spec(ref_process, ref_policy, n), 10.0) for n in (1, 2, 3)
    )
    assert err.partial_sum == pytest.approx(want_partial, abs=1e-12)
    assert err.n_terms == 3
    assert err.last_term >= 1e-12
    assert err.t == 10.0


def two_evaluation_series(shape0, dshape, rate, t, tail_tol, n_max):
    """Reference: ``renewal_series`` with P(k+1, x) evaluated directly,
    two incomplete-gamma calls per term."""
    x = rate * t
    total_cdf = 0.0
    total_int = 0.0
    last = 0.0
    for n in range(1, n_max + 1):
        k = shape0 + dshape * (n - 1)
        cdf = reg_lower_gamma(k, x)
        last = cdf
        if cdf < tail_tol:
            return total_cdf, total_int, n - 1, last, True
        term_int = t * cdf - (k / rate) * reg_lower_gamma(k + 1.0, x)
        if term_int < 0.0:
            term_int = 0.0
        total_cdf += cdf
        total_int += term_int
    return total_cdf, total_int, n_max, last, False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape0=st.floats(0.1, 100.0),
    dshape=st.floats(0.5, 100.0),
    rate=st.floats(0.1, 30.0),
    t=st.one_of(st.floats(0.0, 60.0), st.floats(1e-6, 1e-2)),
)
# rate*t = 2.2e-5 against k = 2.33: the forms differ by 8.5e-10 of the sum
@example(shape0=2.3303160947361405, dshape=0.27477596022313727, rate=0.19893719999025405, t=1.114082302476863e-4)
# k = 81.4, rate*t = 35.8: each form is about 3e-12 off mpmath's sum
@example(shape0=81.40077288104517, dshape=6.387626517048109, rate=1.2247311264375527, t=29.264774595464555)
def test_series_matches_two_evaluation_form(shape0, dshape, rate, t):
    got = renewal_series(shape0, dshape, rate, t, 1e-12, 10_000)
    want = two_evaluation_series(shape0, dshape, rate, t, 1e-12, 10_000)
    # the same P(k, x) values, summed in the same order
    assert got[0] == want[0]
    assert got[2:] == want[2:]
    # Each integrated term is t*P(k, x) minus (k/rate)*P(k+1, x), two values
    # of up to (k/rate)*P(k, x), and both forms round at that scale: at rate*t
    # far below k the integrated sum itself is much smaller, so it is compared
    # relative to the larger of itself and that scale.
    x = rate * t
    scale = sum(
        (shape0 + dshape * i) / rate * reg_lower_gamma(shape0 + dshape * i, x)
        for i in range(got[2])
    )
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12 * scale)


def mpmath_series(shape0, dshape, rate, t, tail_tol):
    """Reference: the two sums of the renewal series at one time, each
    term's shape k and x = rate*t as the series rounds them, and the rest
    in mpmath at 40 digits."""
    x = rate * t
    total_cdf = total_int = mpmath.mpf(0)
    with mpmath.workdps(40):
        for n in range(1, 10_001):
            k = shape0 + dshape * (n - 1)
            cdf = mpmath.gammainc(k, 0, x, regularized=True)
            if cdf < tail_tol:
                return total_cdf, total_int
            total_cdf += cdf
            k = mpmath.mpf(k)
            total_int += t * cdf - k / rate * mpmath.gammainc(k + 1, 0, x, regularized=True)
    raise AssertionError("no term below tail_tol")


def test_integrated_sum_far_below_the_first_shape_matches_mpmath():
    # rate*t = 2.2e-5 against k = 2.33: P(k+1, x) is the power series' own
    # sum past its first term, not P(k, x) less the pmf, which cancels
    # (that form was 8.5e-10 relative off here)
    case = (2.3303160947361405, 0.27477596022313727, 0.19893719999025405, 1.114082302476863e-4)
    got = renewal_series(*case, 1e-12, 10_000)
    want = mpmath_series(*case, 1e-12)
    assert abs(got[0] - want[0]) <= 1e-13 * want[0]
    assert abs(got[1] - want[1]) <= 1e-13 * want[1]


def scalar_renewal_series(shape0, dshape, rate, t, tail_tol, n_max):
    """Oracle: the renewal series at one time, one scalar (P(k, x),
    P(k+1, x)) pair per term, as (sum_cdf, sum_integrated, n_terms,
    last_term, converged)."""
    x = rate * t
    total_cdf = 0.0
    total_int = 0.0
    last = 0.0
    for n in range(1, n_max + 1):
        k = shape0 + dshape * (n - 1)
        cdf, cdf_next = scalar_gamma_pair(k, x)
        last = cdf
        if cdf < tail_tol:
            return total_cdf, total_int, n - 1, last, True
        term_int = t * cdf - (k / rate) * cdf_next
        if term_int < 0.0:
            term_int = 0.0
        total_cdf += cdf
        total_int += term_int
    return total_cdf, total_int, n_max, last, False


def assert_matches_scalar_series(shape0, dshape, rate, grid, tail_tol, n_max):
    got_cdf, got_int, got_terms, got_last, got_conv = renewal_series(
        shape0, dshape, rate, np.array(grid), tail_tol, n_max
    )
    want = [scalar_renewal_series(shape0, dshape, rate, t, tail_tol, n_max) for t in grid]
    assert got_cdf.tolist() == [w[0] for w in want]
    assert got_int.tolist() == [w[1] for w in want]
    assert got_last.tolist() == [w[3] for w in want]
    assert got_conv.tolist() == [w[4] for w in want]
    assert got_terms == sum(w[2] for w in want)
    # each time alone, as the 0-d case, gives its own count and the same bits
    for t, w in zip(grid, want):
        one = renewal_series(shape0, dshape, rate, t, tail_tol, n_max)
        assert (float(one[0]), float(one[1]), one[2], float(one[3]), bool(one[4])) == w


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    shape0=st.floats(0.1, 100.0),
    dshape=st.floats(0.5, 100.0),
    rate=st.floats(0.1, 30.0),
    grid=st.lists(st.one_of(st.floats(0.0, 60.0), st.floats(1e-6, 1e-2)), min_size=1, max_size=40),
    n_max=st.sampled_from([1, 3, 10_000]),
)
def test_grid_series_matches_scalar_series(shape0, dshape, rate, grid, n_max):
    assert_matches_scalar_series(shape0, dshape, rate, [0.0] + grid, 1e-12, n_max)


def test_grid_series_matches_scalar_series_on_the_sweep_blocks():
    # the reference shapes and rate, on the grids of the shipped sweep
    for t_end in (12.0, 60.0):
        for a in (40.0, 50.0, 60.0):
            for q in (45.0, 55.0):
                grid = np.linspace(0.0, t_end, 61).tolist()
                assert_matches_scalar_series(a / 5.0, q / 5.0, 10.0, grid, 1e-12, 10_000)


def test_series_terms_are_the_public_kernels_on_the_sweep_blocks(monkeypatch):
    # every P(k_n, x) the series evaluates over the shipped sweep's curves
    # (one call for all six) is the bits reg_lower_gamma gives alone
    calls = []
    pair = driftinv.renewal._pair

    def recording(shapes, si, x, logx):
        out = pair(shapes, si, x, logx)
        calls.append((shapes[0][si], x, out[0]))
        return out

    monkeypatch.setattr(driftinv.renewal, "_pair", recording)
    shape0 = np.repeat([40.0, 50.0, 60.0], 2)[:, None] / 5.0
    dshape = np.tile([45.0, 55.0], 3)[:, None] / 5.0
    for t_end in (12.0, 60.0):
        renewal_series(shape0, dshape, 10.0, np.linspace(0.0, t_end, 61), 1e-12, 10_000)
    assert len(calls) >= 2
    for a, x, cdf in calls:
        assert cdf.tobytes() == reg_lower_gamma(a, x).tobytes()


def test_chunks_bound_every_kernel_call_on_a_large_grid(monkeypatch):
    # 20,000 times to t = 60: about 80 terms at the last time, so the
    # round's values fill several chunks, none past _CHUNK_VALUES, and
    # each time still gets the bits of a series over a grid of its own
    sizes = []
    pair = driftinv.renewal._pair

    def counting(shapes, si, x, logx):
        sizes.append(si.size)
        return pair(shapes, si, x, logx)

    grid = np.linspace(0.0, 60.0, 20_000)
    with monkeypatch.context() as mp:
        mp.setattr(driftinv.renewal, "_pair", counting)
        got = renewal_series(10.0, 10.0, 10.0, grid, 1e-12, 10_000)
    assert len(sizes) > 10
    assert max(sizes) <= renewal._CHUNK_VALUES
    # whole times per chunk: all but the last are nearly full
    assert min(sizes[:-1]) > renewal._CHUNK_VALUES - 100
    for piece in np.split(np.arange(grid.size), 40):
        alone = renewal_series(10.0, 10.0, 10.0, grid[piece], 1e-12, 10_000)
        for g, w in zip(got[:2], alone[:2]):
            assert g[piece].tobytes() == w.tobytes()


def test_grid_hitting_n_max_names_its_first_time(ref_process, ref_policy):
    cfg = RenewalSeriesConfig(tail_tol=1e-12, n_max=3)
    # 0.05 converges after one term, 10.0 and then 2.0 reach the cap
    grid = [0.0, 0.05, 10.0, 2.0]
    with pytest.raises(SeriesNotConvergedError) as exc:
        expected_renewal_sums(ref_process, ref_policy, np.array(grid), cfg)
    total, _, n_terms, last, converged = scalar_renewal_series(10.0, 10.0, 10.0, 10.0, 1e-12, 3)
    assert not converged
    err = exc.value
    assert (err.t, err.partial_sum, err.n_terms, err.last_term) == (10.0, total, 3, last)
    assert str(err) == (
        f"renewal series hit the cap n_max=3 at t=10.0 with the last term {last:.3e} "
        f"still >= tail_tol={1e-12:.3e}"
    )


def test_series_evaluates_each_term_once_and_at_most_a_block_past_its_stop(
    monkeypatch, ref_process, ref_policy, series_cfg
):
    calls = []
    pair = driftinv.renewal._pair

    def counting(shapes, si, x, logx):
        calls.append((shapes[0][si], x))
        return pair(shapes, si, x, logx)

    monkeypatch.setattr(driftinv.renewal, "_pair", counting)
    cases = [
        (10.0, 10.0, 10.0, [12.0], 10_000),
        (9.86, 10.34, 10.0, [60.0], 10_000),
        (0.3, 0.7, 2.0, [5.0], 10_000),
        (5.0, 5.0, 1.0, [0.0], 10_000),
        (10.0, 10.0, 10.0, np.linspace(0.0, 60.0, 61).tolist(), 10_000),
        (10.0, 10.0, 10.0, np.linspace(0.0, 6.0, 2100).tolist(), 10_000),
        (10.0, 10.0, 10.0, [0.0, 2.0, 12.0, 60.0], 3),
    ]
    for shape0, dshape, rate, grid, n_max in cases:
        calls.clear()
        renewal_series(shape0, dshape, rate, np.array(grid), 1e-12, n_max)
        shapes = [shape0 + dshape * i for i in range(n_max)]
        for t in grid:
            want = scalar_renewal_series(shape0, dshape, rate, t, 1e-12, n_max)
            needed = min(want[2] + 1, n_max)
            # the shapes each call evaluated at this time, in its order
            rounds = [a[x == rate * t].tolist() for a, x in calls]
            rounds = [r for r in rounds if r]
            evaluated = [k for r in rounds for k in r]
            # k_1, k_2, ... once each, in order, never past k_{n_max}
            assert evaluated == shapes[: len(evaluated)]
            assert needed <= len(evaluated) <= n_max
            # past the term that stopped it, at most the rest of its last round
            assert len(evaluated) - needed < len(rounds[-1])
            # and a round as wide as the stopping bound holds the stop
            assert len(rounds) == 1
        assert all(a.size <= renewal._CHUNK_VALUES for a, x in calls)
    # the path every cost curve takes, at the reference shapes 10, 20, ... and rate 10
    calls.clear()
    expected_renewal_sums(ref_process, ref_policy, np.linspace(0.0, 12.0, 49), series_cfg)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape0=st.floats(0.1, 100.0),
    dshape=st.floats(0.5, 100.0),
    rate=st.floats(0.1, 30.0),
    t=st.one_of(st.floats(0.0, 60.0), st.floats(1e-6, 1e-2)),
    tail_tol=st.sampled_from([1e-6, 1e-12, 1e-15]),
)
def test_stop_bound_reaches_the_stopping_term(shape0, dshape, rate, t, tail_tol):
    # the first block of a time holds its first term below tail_tol, so the
    # series evaluates each time in one call
    want = scalar_renewal_series(shape0, dshape, rate, t, tail_tol, 10_000)
    bound = renewal._stop_bound(shape0, dshape, np.float64(rate * t), tail_tol)
    assert want[4] and bound >= want[2] + 1


def test_empirical_cdf_basics(ref_process, ref_policy):
    grid = np.array([0.0, 1.0, 2.0, 5.0])
    ecdf = fpt_empirical_cdf(ref_process, ref_policy, 1, grid, n_paths=500, seed=3)
    assert ecdf[0] == 0.0
    assert np.all(np.diff(ecdf) >= 0)
    assert np.all((ecdf >= 0) & (ecdf <= 1))


def test_empirical_cdf_drift_only_limit():
    # with jumps vanishingly rare, the first passage is a/mu exactly
    p = ProcessParams(mu=5.0, alpha=10.0, lam=1e-9)
    pol = PolicyParams(x0=100.0, a=50.0, Q=50.0)
    grid = np.array([9.0, 9.999, 10.0, 10.5])
    ecdf = fpt_empirical_cdf(p, pol, 1, grid, n_paths=200, seed=1)
    assert np.allclose(ecdf, [0.0, 0.0, 1.0, 1.0])


def test_empirical_cdf_matches_exact_law(ref_process, ref_policy):
    # monotone demand: P(T_1 <= t) = P(D_t >= a) = P(N_t >= ceil((a - mu t)/alpha))
    n_paths = 40_000
    grid = np.array([1.0, 2.0, 3.0, 5.0])
    ecdf = fpt_empirical_cdf(ref_process, ref_policy, 1, grid, n_paths=n_paths, seed=21)
    for t, est in zip(grid, ecdf):
        need = np.ceil((ref_policy.a - ref_process.mu * t) / ref_process.alpha)
        want = float(scipy.stats.poisson.sf(need - 1, ref_process.lam * t))
        stderr = np.sqrt(max(want * (1 - want), 1e-12) / n_paths)
        assert abs(est - want) <= 4 * stderr


def scalar_first_passage_times(flat, offsets, mu, alpha, level):
    """Reference: walk each path's events in order."""
    out = np.empty(offsets.shape[0] - 1)
    for i in range(out.size):
        jumps = 0.0
        fpt = None
        for tj in flat[offsets[i] : offsets[i + 1]].tolist():
            # drift alone may reach the level before this jump
            t_cross = (level - jumps) / mu
            if t_cross <= tj:
                fpt = t_cross
                break
            jumps += alpha
            if mu * tj + jumps >= level:
                fpt = tj
                break
        # drift beyond the last jump
        out[i] = (level - jumps) / mu if fpt is None else fpt
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mu=st.one_of(st.floats(0.05, 20.0), st.integers(1, 6).map(float)),
    alpha=st.one_of(st.floats(0.05, 30.0), st.integers(1, 25).map(float)),
    lam=st.floats(0.05, 5.0),
    levels=st.lists(
        st.one_of(st.floats(0.01, 300.0), st.integers(1, 300).map(float)), min_size=1, max_size=4
    ),
    horizon=st.floats(0.1, 30.0),
    seed=st.integers(0, 2**31),
)
def test_first_passage_times_match_scalar_walk(mu, alpha, lam, levels, horizon, seed):
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    flat, offsets = batch_jump_times(process, horizon, seed, 7)
    got = first_passage_times(flat, offsets, mu, alpha, levels)
    for row, level in zip(got, levels):
        want = scalar_first_passage_times(flat, offsets, mu, alpha, level)
        assert np.array_equal(row, want)


def test_first_passage_times_ties_on_a_lattice():
    # integer drift and jumps on whole times: levels hit exactly at a jump,
    # exactly by drift at a jump time, and after the last jump
    flat = np.array([1.0, 2.0, 3.0, 1.0, 4.0, 0.0])
    offsets = np.array([0, 3, 5, 5, 6])
    levels = [2.0, 5.0, 8.0, 12.0, 30.0]
    got = first_passage_times(flat, offsets, 2.0, 3.0, levels)
    for row, level in zip(got, levels):
        assert np.array_equal(row, scalar_first_passage_times(flat, offsets, 2.0, 3.0, level))
    assert got[1].tolist() == [1.0, 1.0, 2.5, 1.0]
    assert np.all(np.isfinite(got))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    lattice=st.booleans(),
    n_values=st.integers(1, 5),
    n_paths=st.sampled_from([1, 7, 60, CHUNK_PATHS + 5]),
    seed=st.integers(0, 2**31),
)
def test_batch_stopped_at_the_level_gives_the_full_batch_passages(
    data, lattice, n_values, n_paths, seed
):
    # fpt_empirical_cdf samples each path only through its first jump at
    # which demand reaches the highest threshold: a prefix of the path
    # sampled to the full horizon, with the same passage times to every
    # threshold and so the same CDFs, bit for bit.  On the integer lattice
    # drift, jumps and thresholds are whole numbers
    bounds = ((1, 20), (1, 30), (1, 100), (1, 100))
    if lattice:
        mu, alpha, a, Q = (float(data.draw(st.integers(lo, hi))) for lo, hi in bounds)
    else:
        mu, alpha, a, Q = (data.draw(st.floats(lo / 20, float(hi))) for lo, hi in bounds)
    lam = data.draw(st.sampled_from([0.5, 4.0]) | st.floats(0.05, 6.0))
    t_end = data.draw(st.floats(0.1, 30.0))
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    policy = PolicyParams(x0=a + Q, a=a, Q=Q)
    ns = np.arange(1, n_values + 1)
    levels = [policy.threshold(int(n)) for n in ns]
    grid = np.linspace(0.0, t_end, 31)
    horizon = max(t_end, max(levels) / mu) + 1.0
    full = batch_jump_times(process, horizon, seed, n_paths)
    stopped = batch_jump_times(process, horizon, seed, n_paths, level=max(levels))
    for i in range(n_paths):
        path = stopped[0][stopped[1][i] : stopped[1][i + 1]]
        assert path.tobytes() == full[0][full[1][i] : full[1][i] + path.size].tobytes()
    fpt = first_passage_times(*full, mu, alpha, levels)
    assert first_passage_times(*stopped, mu, alpha, levels).tobytes() == fpt.tobytes()
    fpt.sort(axis=1)
    want = np.stack([np.searchsorted(row, grid, side="right") for row in fpt]) / float(n_paths)
    got = fpt_empirical_cdf(process, policy, ns, grid, n_paths, seed)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "mu, alpha, lam, level, horizon",
    [
        # the high-intensity process of the benchmark's mc workload at its
        # third threshold: about 124 jumps a path to horizon 31, passages
        # near t = 10, all within the first round of gaps
        (5.0, 2.5, 4.0, 150.0, 31.0),
        # about 1,600 jumps a path; the level is reached near jump 240, so
        # every path draws several rounds that all fall short of it first
        (1.0, 1.0, 4.0, 300.0, 400.0),
    ],
)
def test_batch_stopped_at_the_level_draws_fewer_jumps(mu, alpha, lam, level, horizon):
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    full = batch_jump_times(process, horizon, 3, 300)
    stopped = batch_jump_times(process, horizon, 3, 300, level=level)
    counts = np.diff(stopped[1])
    assert stopped[0].size < full[0].size / 2
    # every path ends at the first jump at which demand is at the level:
    # just after it, demand is there, and just after the jump before, not
    assert counts.min() >= 2
    last, before = (stopped[0][stopped[1][1:] - k] for k in (1, 2))
    assert np.all(mu * last + alpha * counts >= level)
    assert np.all(mu * before + alpha * (counts - 1) < level)
    fpt = first_passage_times(*stopped, mu, alpha, [level / 2, level])
    assert fpt.tobytes() == first_passage_times(*full, mu, alpha, [level / 2, level]).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31),
    n_values=st.integers(1, 6),
    steps=st.integers(2, 80),
    n_paths=st.integers(1, 60),
)
def test_passage_by_t_is_jump_count_reaching_the_exact_law(seed, n_values, steps, n_paths):
    # T_n <= t exactly when N_t >= j_n(t), the fewest jumps k with
    # mu*t + alpha*k >= L_n that the exact engine sums the Poisson law of.
    # The two sides round differently, so the process is drawn in full
    # precision (no lattice): no grid time lies within a rounding of a
    # crossing, and the empirical CDF is the mean of N_t >= j_n(t).
    rng = np.random.default_rng(seed)
    mu, alpha, lam, a, Q, t_end = rng.uniform(
        [0.05, 0.05, 0.05, 0.01, 0.01, 0.1], [20.0, 30.0, 5.0, 100.0, 100.0, 30.0]
    ).tolist()
    process = ProcessParams(mu=mu, alpha=alpha, lam=lam)
    policy = PolicyParams(x0=a + Q, a=a, Q=Q)
    ns = list(range(1, n_values + 1))
    levels = np.array([policy.threshold(n) for n in ns])
    grid = np.linspace(0.0, t_end, steps)
    # the batch fpt_empirical_cdf draws
    horizon = max(float(grid.max()), float(levels.max()) / mu) + 1.0
    flat, offsets = batch_jump_times(process, horizon, seed, n_paths)
    fpt = first_passage_times(flat, offsets, mu, alpha, levels)
    paths = np.split(flat, offsets[1:-1])
    n_t = np.stack([np.searchsorted(jumps, grid, side="right") for jumps in paths])
    drift = mu * grid
    j = np.stack(
        [first_true(lambda k: drift + alpha * k >= L, (L - drift) / alpha) for L in levels]
    )
    reached = n_t[None, :, :] >= j[:, None, :]
    assert np.array_equal(fpt[:, :, None] <= grid, reached)
    cdf = fpt_empirical_cdf(process, policy, ns, grid, n_paths=n_paths, seed=seed)
    assert np.array_equal(cdf, reached.sum(axis=1) / float(n_paths))


def test_shared_batch_cdf_equals_batch_per_threshold(ref_process, ref_policy):
    # one batch to the highest threshold's horizon gives every lower
    # threshold the CDF of a batch drawn for it alone
    grid = np.linspace(0.0, 12.0, 25)
    shared = fpt_empirical_cdf(ref_process, ref_policy, [1, 2, 3, 4], grid, n_paths=3000, seed=8)
    assert shared.shape == (4, grid.size)
    for n, row in zip([1, 2, 3, 4], shared):
        fresh = fpt_empirical_cdf(ref_process, ref_policy, n, grid, n_paths=3000, seed=8)
        assert np.array_equal(row, fresh)
