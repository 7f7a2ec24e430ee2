"""Demand-process sampling and per-period increments."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from driftinv import (
    DomainError,
    ParameterError,
    ProcessParams,
    SamplePath,
    sample_path,
)
import driftinv.demand
from driftinv.demand import (
    CHUNK_PATHS,
    JUMP_BUDGET,
    ROUND_GAPS,
    batch_jump_times,
    first_true,
    first_true_near_ties,
    path_segments,
    period_increments,
)
from driftinv.mc import batch_stats
from driftinv.renewal import first_passage_times

from conftest import demand_at, pack, truncate_batch

# Four jumps per unit time to horizon 60: about 240 jumps per path, so
# every chunk draws at least three rounds of ROUND_GAPS gaps.
DENSE = ProcessParams(mu=5.0, alpha=2.5, lam=4.0)
DENSE_HORIZON = 60.0


def make_path(ref_process, jumps, horizon=10.0):
    return SamplePath(
        params=ref_process, jump_times=np.array(jumps, dtype=float), horizon=horizon, seed=0
    )


def test_invalid_process_params():
    for bad in [dict(mu=0, alpha=1, lam=1), dict(mu=1, alpha=-1, lam=1), dict(mu=1, alpha=1, lam=0)]:
        with pytest.raises(ParameterError):
            ProcessParams(**bad)


def test_bad_horizon(ref_process):
    with pytest.raises(ParameterError):
        sample_path(ref_process, 0.0, 1)
    with pytest.raises(ParameterError):
        sample_path(ref_process, -3.0, 1)


def test_same_seed_same_path(ref_process):
    a = sample_path(ref_process, 10.0, seed=42)
    b = sample_path(ref_process, 10.0, seed=42)
    assert np.array_equal(a.jump_times, b.jump_times)
    c = sample_path(ref_process, 10.0, seed=43)
    assert not np.array_equal(a.jump_times, c.jump_times)


def test_horizon_prefix_consistency(ref_process):
    # shortening the horizon keeps the shared prefix of jump times
    long = sample_path(ref_process, 10.0, seed=11)
    short = sample_path(ref_process, 2.0, seed=11)
    want = long.jump_times[long.jump_times < 2.0]
    assert np.array_equal(short.jump_times, want)


def test_jump_times_validation(ref_process):
    with pytest.raises(ParameterError):
        make_path(ref_process, [2.0, 1.0])
    with pytest.raises(ParameterError):
        make_path(ref_process, [1.0, 11.0])


def test_mean_jump_count(ref_process):
    # E[N_10] = lam * 10
    n = 2000
    counts = np.array([sample_path(ref_process, 10.0, seed=s).jump_times.size for s in range(n)])
    stderr = counts.std(ddof=1) / np.sqrt(n)
    assert abs(counts.mean() - 10.0) <= 3 * stderr


def test_demand_at_trivials(ref_process):
    path = make_path(ref_process, [])
    assert demand_at(path, 0.0) == 0.0
    path = make_path(ref_process, [1.0])
    assert demand_at(path, 2.0) == pytest.approx(20.0)  # 5*2 + 10*1
    # right-continuity: a jump at exactly t counts
    path = make_path(ref_process, [1.0, 1.5])
    assert demand_at(path, 1.5) == pytest.approx(27.5)


def test_demand_at_domain(ref_process):
    path = make_path(ref_process, [1.0])
    with pytest.raises(DomainError):
        demand_at(path, -0.1)
    with pytest.raises(DomainError):
        demand_at(path, 10.5)


def test_demand_monotone(ref_process):
    path = sample_path(ref_process, 10.0, seed=3)
    ts = np.sort(np.random.default_rng(0).uniform(0, 10, 50))
    vals = [demand_at(path, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_period_increments_trivials(ref_process):
    assert np.allclose(period_increments(ref_process, *pack([[]]), 1.0, 3), [[5.0, 5.0, 5.0]])
    assert np.allclose(period_increments(ref_process, *pack([[0.5]]), 1.0, 2), [[15.0, 5.0]])
    with pytest.raises(ParameterError):
        period_increments(ref_process, *pack([[0.5]]), 0.0, 2)


def test_period_increments_match_per_path_count(ref_process):
    # bit for bit against one searchsorted per path: a jump on a bound
    # counts in the period it ends, a jump at t = 0 or past the last
    # bound in none, and empty paths get the drift alone
    hand = pack([[0.0, 0.5, 1.0, 2.0, 3.5], [], [1.0], [], [2.9999, 3.0, 3.0001, 7.2]])
    tenths = 0.1 * np.arange(5)  # 0.30000000000000004 is a bound
    batches = [
        (hand, 1.0, 3),
        (pack([[], tenths[[0, 2, 3]], [tenths[4], 0.45], []]), 0.1, 4),
        (pack([[]]), 0.7, 1),
        (batch_jump_times(ref_process, 36.0, 5, 200), 0.7, 51),
        (batch_jump_times(DENSE, 5.0, 5, CHUNK_PATHS + 3), 0.1, 50),
    ]
    mu, alpha = ref_process.mu, ref_process.alpha
    for (flat, offsets), period, n_periods in batches:
        bounds = period * np.arange(n_periods + 1)
        want = np.array([
            mu * period + alpha * np.diff(np.searchsorted(flat[i:j], bounds, side="right"))
            for i, j in zip(offsets[:-1], offsets[1:])
        ])
        got = period_increments(ref_process, flat, offsets, period, n_periods)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert period_increments(ref_process, *hand, 1.0, 3).tolist() == [
        [25.0, 15.0, 5.0], [5.0] * 3, [15.0, 5.0, 5.0], [5.0] * 3, [5.0, 5.0, 25.0]
    ]


def test_increments_telescope(ref_process):
    path = sample_path(ref_process, 10.0, seed=9)
    jumps = (path.jump_times, np.array([0, path.jump_times.size]))
    inc = period_increments(ref_process, *jumps, 1.0, 10)[0]
    assert inc.sum() == pytest.approx(demand_at(path, 10.0))
    # disjoint unions: pairs of periods sum to 2-period increments
    inc2 = period_increments(ref_process, *jumps, 2.0, 5)[0]
    assert np.allclose(inc.reshape(-1, 2).sum(axis=1), inc2)


def test_mean_demand_and_increment(ref_process):
    # E[D_10] = (mu + alpha lam) * 10 = 150; each unit increment has mean 15
    n = 100_000
    flat, offsets = batch_jump_times(ref_process, 10.0, base_seed=1000, n_paths=n)
    counts = np.diff(offsets)
    d10 = ref_process.mu * 10.0 + ref_process.alpha * counts
    stderr = d10.std(ddof=1) / np.sqrt(n)
    assert abs(d10.mean() - 150.0) <= 3 * stderr

    inc = period_increments(ref_process, flat, offsets, 1.0, 10)[:, 3]  # over (3, 4]
    stderr = inc.std(ddof=1) / np.sqrt(n)
    assert abs(inc.mean() - 15.0) <= 3 * stderr


@pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
def test_jump_counts_poisson_chisquare(ref_process, t):
    # goodness of fit of N_t against Poisson(lam t) at significance 0.01
    n = 20_000
    flat, offsets = batch_jump_times(ref_process, 10.0, base_seed=55_000, n_paths=n)
    counts = np.diff(truncate_batch(flat, offsets, t)[1])
    lam_t = ref_process.lam * t
    kmax = int(scipy.stats.poisson.ppf(1 - 1e-6, lam_t)) + 1
    probs = scipy.stats.poisson.pmf(np.arange(kmax), lam_t)
    # lump the tail, then merge bins with expected counts below 5
    probs = np.append(probs, 1.0 - probs.sum())
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1).astype(float)
    expected = probs * n
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    stat, pvalue = scipy.stats.chisquare(obs, exp)
    assert pvalue >= 0.01


def paths_of(flat, offsets):
    return [flat[offsets[i] : offsets[i + 1]] for i in range(offsets.size - 1)]


@pytest.fixture(scope="module")
def dense_batch():
    n = CHUNK_PATHS + 40
    flat, offsets = batch_jump_times(DENSE, DENSE_HORIZON, 31, n)
    assert np.diff(offsets).min() > 2 * ROUND_GAPS
    return flat, offsets


def test_batch_path_prefix_consistency(dense_batch):
    # path i of a batch does not depend on how many paths follow it
    flat, offsets = dense_batch
    for m in (1, 7, CHUNK_PATHS, CHUNK_PATHS + 3):
        f, o = batch_jump_times(DENSE, DENSE_HORIZON, 31, m)
        assert np.array_equal(o, offsets[: m + 1])
        assert np.array_equal(f, flat[: o[-1]])


def test_batch_horizon_prefix_consistency(dense_batch):
    # a fresh batch to a shorter horizon draws fewer rounds, and is the
    # longer batch cut at that horizon
    flat, offsets = dense_batch
    for h in (0.5, 25.0, 40.0):
        f, o = batch_jump_times(DENSE, h, 31, offsets.size - 1)
        cut_flat, cut_offsets = truncate_batch(flat, offsets, h)
        assert np.array_equal(o, cut_offsets)
        assert np.array_equal(f, cut_flat)


def test_sample_path_is_path_zero_of_its_batch(dense_batch):
    flat, offsets = dense_batch
    path = sample_path(DENSE, DENSE_HORIZON, 31)
    assert np.array_equal(path.jump_times, flat[offsets[0] : offsets[1]])
    assert path.seed == 31


def test_batch_times_increase_within_horizon(dense_batch):
    flat, offsets = dense_batch
    for times in paths_of(flat, offsets):
        assert times[0] >= 0.0 and times[-1] < DENSE_HORIZON
        assert np.all(np.diff(times) > 0)


def test_batch_counts_and_gaps_follow_the_law():
    # N_h ~ Poisson(lam h) by chi-square, and the first 150 gaps of each
    # path (three rounds; fewer than 150 jumps has probability ~1e-10)
    # ~ Exp(lam) by KS, both at significance 0.01
    n = 2000
    flat, offsets = batch_jump_times(DENSE, DENSE_HORIZON, 4242, n)
    counts = np.diff(offsets)
    lam_h = DENSE.lam * DENSE_HORIZON
    edges = np.arange(int(lam_h - 30), int(lam_h + 31), 5)
    cdf = scipy.stats.poisson.cdf(edges - 1, lam_h)
    probs = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    observed = np.bincount(np.searchsorted(edges, counts, side="right"), minlength=probs.size)
    assert probs.min() * n >= 5.0
    _, pvalue = scipy.stats.chisquare(observed, probs * n)
    assert pvalue >= 0.01

    k = 150
    assert counts.min() >= k
    first = np.stack([times[:k] for times in paths_of(flat, offsets)])
    gaps = np.diff(first, axis=1, prepend=0.0).ravel()
    pvalue = scipy.stats.kstest(gaps, scipy.stats.expon(scale=1.0 / DENSE.lam).cdf).pvalue
    assert pvalue >= 0.01


def test_fpt_diag_batches_share_no_path(ref_process):
    # fpt-diag draws its two samples keyed s and s + n_paths
    n, s, horizon = 2000, 99, 51.0
    firsts = []
    for key in (s, s + n):
        flat, offsets = batch_jump_times(ref_process, horizon, key, n)
        assert np.all(np.diff(offsets) > 0)
        firsts.append(flat[offsets[:-1]])
    # a path's first jump time identifies it
    assert np.unique(np.concatenate(firsts)).size == 2 * n


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_segment_chunks_leave_the_kernels_bit_equal(monkeypatch, chunk):
    # the default chunk holds the whole batch; smaller chunks cut it between
    # paths of zero to eight jumps, so a chunk holds one to three whole
    # paths, a path longer than the chunk is a chunk alone, and at 1 and 2
    # segments first_passage_times takes its levels in more than one pass
    process = ProcessParams(mu=1.5, alpha=4.0, lam=0.8)
    flat, offsets = batch_jump_times(process, 3.0, 17, 200)
    levels = [1.0, 4.5, 9.0, 20.0]
    x0, a, Q, horizon = 12.0, 6.0, 3.5, 3.0

    def kernels():
        return (
            first_passage_times(flat, offsets, process.mu, process.alpha, levels),
            batch_stats(flat, offsets, process.mu, process.alpha, x0, a, Q, horizon),
        )

    assert len(list(path_segments(flat, offsets, process.alpha, horizon))) == 1
    want = kernels()
    monkeypatch.setattr(driftinv.demand, "CHUNK_SEGMENTS", chunk)
    chunks = list(path_segments(flat, offsets, process.alpha, horizon))
    assert max(seg.start.size for seg in chunks) == {1: 1, 2: 2, 5: 3}[chunk]
    for got, ref in zip(kernels(), want):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def ulps_away(values, ulps):
    """Each value moved by its count of ulps, up or down."""
    values = np.array(values, dtype=np.float64)
    for step in range(int(np.abs(ulps).max(initial=0))):
        move = np.abs(ulps) > step
        values[move] = np.nextafter(values[move], np.where(ulps[move] > 0, np.inf, -np.inf))
    return values


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    a=st.floats(0.01, 200.0),
    Q=st.floats(0.01, 60.0),
    mu=st.floats(0.05, 20.0),
    alpha=st.floats(0.05, 30.0),
    levels=st.lists(
        st.tuples(
            st.integers(0, 5000),
            st.integers(0, 300),
            st.integers(-4, 4),
            st.sampled_from([0.0, 0.0, 0.5, 1e-9, 0.999]),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_near_tie_search_matches_first_true(a, Q, mu, alpha, levels):
    # a level v put on a threshold a + Q*k as each predicate rounds it, or
    # a few ulps off it, so that x = (v - a)/Q lies on or within a few ulps
    # of an integer; a fraction of Q moves some levels off the ties
    k = np.array([level[0] + level[3] for level in levels])
    s = alpha * np.array([float(level[1]) for level in levels])
    ulps = np.array([level[2] for level in levels])
    # the drift count: t on the crossing (a + Q*k - s)/mu of the mc kernel
    t = ulps_away(np.maximum((a + Q * k - s) / mu, 0.0), ulps)
    x = (mu * t + s - a) / Q
    want = first_true(lambda j: (a + Q * j - s) / mu > t, x)
    got = first_true_near_ties(lambda j, i: (a + Q * j - s[i]) / mu > t[i], x, a / Q)
    assert np.array_equal(got, want)
    # the jump count: demand on the threshold a + Q*k
    demand = ulps_away(a + Q * k, ulps)
    x = (demand - a) / Q
    want = first_true(lambda j: a + Q * j > demand, x)
    got = first_true_near_ties(lambda j, i: a + Q * j > demand[i], x, a / Q)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("guess", [1e302, np.inf, np.nan, JUMP_BUDGET + 1.0])
def test_count_search_past_the_budget_raises(guess):
    # an int64 cast of a guess past 2**63 wrapped, and the search then
    # stepped by one forever
    x = np.array([3.5, guess])
    with pytest.raises(ParameterError, match="more than the budget of 33554432"):
        first_true(lambda k: k > x, x)
    with pytest.raises(ParameterError, match="more than the budget of 33554432"):
        first_true_near_ties(lambda k, i: k > x[i], x, 1.0)
    assert first_true(lambda k: k > x[:1], x[:1]).tolist() == [4]
