"""First-passage gamma approximation and the renewal-series expectations.

The time of the n-th replenishment is approximated by a gamma
distribution with shape (a + (n-1)Q)/mu and rate alpha*lam.  The
expected order count and its time integral are series of regularized
incomplete gamma values, truncated once a term falls below a tolerance.
Since later thresholds are crossed later, terms decrease strictly in n
and truncation is safe.  Each term evaluates P(k, rt) and P(k+1, rt)
in one kernel call, from one prefactor.

``literal_integrand_cdf`` evaluates a variant integrand (an extra factor s
and no factor alpha*lam) kept solely for side-by-side diagnostics
against the true gamma CDF; it is not a probability.
"""

from dataclasses import dataclass

import numpy as np

from . import demand
from .demand import batch_jump_times, check_budget, path_segments
from .errors import DomainError, ParameterError, SeriesNotConvergedError
from .gammainc import _logs, _pair, _shape_table, reg_lower_gamma
from .params import PolicyParams, ProcessParams
from .quadrature import adaptive_simpson  # noqa: F401 -- a name perfbench/layers.py traces


@dataclass(frozen=True)
class GammaSpec:
    """Shape/rate pair of one first-passage-time approximation, or of
    several sharing the rate when shape is an array."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (np.all(self.shape > 0) and self.rate > 0):
            raise ParameterError(
                f"gamma shape and rate must be positive, got "
                f"shape={self.shape}, rate={self.rate}"
            )

    @property
    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class RenewalSeriesConfig:
    """Truncation rule for the renewal series."""

    tail_tol: float = 1e-12
    n_max: int = 10_000

    def __post_init__(self):
        if not 0 < self.tail_tol < 1:
            raise ParameterError(f"tail_tol must be in (0, 1), got {self.tail_tol}")
        if self.n_max < 1:
            raise ParameterError(f"n_max must be >= 1, got {self.n_max}")


def fpt_gamma_spec(params: ProcessParams, policy: PolicyParams, n) -> GammaSpec:
    """Gamma approximation of the time the n-th threshold is reached.

    ``n`` may also be an array of threshold indices: the spec's shape is
    then the array of their shapes, each equal to its index's own."""
    if np.any(np.asarray(n) < 1):
        raise ParameterError(f"threshold index must be >= 1, got {n}")
    shape = (policy.a + (n - 1) * policy.Q) / params.mu
    return GammaSpec(shape=shape, rate=params.alpha * params.lam)


def as_times(t) -> np.ndarray:
    """t as a float64 array; DomainError names its first negative time."""
    times = np.asarray(t, dtype=np.float64)
    negative = np.flatnonzero(times < 0)
    if negative.size:
        raise DomainError(f"t must be >= 0, got {float(times.flat[negative[0]])}")
    return times


def gamma_cdf(spec: GammaSpec, t):
    """P(T < t) for T ~ Gamma(shape, rate), at each time of t."""
    return reg_lower_gamma(spec.shape, spec.rate * as_times(t))


def literal_integrand_cdf(spec: GammaSpec, t):
    """Integral of the literal diagnostic integrand
    (rate*s)^(shape-1) / Gamma(shape) * s * exp(-rate*s) on [0, t],
    which is (shape/rate^2) * P(shape + 1, rate*t), at each time of t."""
    return spec.shape / spec.rate**2 * reg_lower_gamma(spec.shape + 1.0, spec.rate * as_times(t))


def gamma_and_literal_cdfs(spec: GammaSpec, t):
    """(``gamma_cdf(spec, t)``, ``literal_integrand_cdf(spec, t)``) from
    one kernel call over the shapes stacked with the shapes + 1: a
    value's arithmetic does not depend on what it is evaluated with, so
    each has the bits of its own call.  Both are arrays of the shape
    that shape and t broadcast to."""
    shapes = np.asarray(spec.shape, dtype=np.float64)
    x = spec.rate * as_times(t)
    # the two rows of shapes on an axis of their own, ahead of t's
    stacked = np.stack((shapes, shapes + 1.0))
    stacked = stacked.reshape((2,) + (1,) * max(x.ndim - shapes.ndim, 0) + shapes.shape)
    p = reg_lower_gamma(stacked, x)
    return p[0], spec.shape / spec.rate**2 * p[1]


def truncated_mean(spec: GammaSpec, t):
    """E[T 1{T < t}] for T ~ Gamma(shape, rate), at each time of t."""
    return spec.mean * reg_lower_gamma(spec.shape + 1.0, spec.rate * as_times(t))


# incomplete-gamma values per kernel call of the renewal series, which
# bounds its working set whatever the grid and the number of terms
_CHUNK_VALUES = 8192


def _stop_bound(shape0, dshape, x, tail_tol):
    """An upper bound on the number of terms, through the first below
    tail_tol, of the series of P(shape0 + dshape*(n-1), x) over n = 1, 2,
    ..., elementwise (as floats).

    For k > x, P(k, x) <= exp(-k h(x/k)), h(l) = l - 1 - ln(l) (the
    Chernoff bound of a Gamma(k) variable), and k h(x/k) >= (k - x)^2 / (2k),
    so every k past the larger root x + L + sqrt(L^2 + 2Lx) of
    (k - x)^2 = 2Lk, L = -ln(tail_tol), has P(k, x) <= tail_tol.  Newton
    steps on k h(x/k) = L move that root down to the Chernoff bound's,
    staying above it, because L - k h(x/k) is concave and decreasing in k;
    a step is not taken where x/k underflows.  At x = 0 the first term,
    P = 0, is below tail_tol."""
    big = -np.log(tail_tol)
    k = _chernoff_root(x, big, x + big + np.sqrt(big * (big + 2.0 * x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.ceil((k - shape0) / dshape) + 1.0
    return np.where(x > 0.0, np.maximum(n, 1.0), 1.0)


def _chernoff_root(x, big, k):
    """Three Newton steps from k towards the root of g(k) = big on k's
    side of x, elementwise, where g(k) = k h(x/k) = x - k + k ln(k/x),
    h(l) = l - 1 - ln(l), is the exponent of the Chernoff bounds
    P(k, x) <= exp(-g(k)) for k >= x and 1 - P(k+1, x) <= exp(-g(k))
    for k <= x.  g is convex with its minimum 0 at k = x, so steps taken
    from outside the root stay outside it.  A step is not taken where
    x/k underflows or is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            log_ratio = np.log(x / k)
            newton = k - (big - x + k + k * log_ratio) / log_ratio
            k = np.where(np.isfinite(newton), newton, k)
    return k


def renewal_series(shape0, dshape, rate, t, tail_tol, n_max):
    """Sum CDF terms and their integrated counterparts at each time of t,
    until there the CDF term drops below tail_tol.  shape0, dshape and t
    broadcast together, so that for example shape0 and dshape of shape
    (curves, 1) against a grid t sum one series per curve (a row) and
    grid time (a column) in one pass.  Returns (sum_cdf, sum_integrated,
    n_terms, last_term, converged): n_terms counts the terms summed over
    all elements, and the rest are arrays of the broadcast shape.  An
    element that did not converge summed n_max terms.

    Term n of an element has the shape k = shape0 + dshape*(n-1) and the
    integrated term t*P(k, x) - (k/rate)*P(k+1, x), x = rate*t, both
    P from one kernel evaluation.  The terms are evaluated in rounds of
    consecutive n: an element's first is as wide as ``_stop_bound``, so
    that it holds the stopping term, and an element that has not stopped
    takes one twice as wide next.  A round's terms are laid out ragged,
    each element exactly its width, and go to the kernel ``_pair`` in
    chunks of whole elements, at most _CHUNK_VALUES values each; a
    chunk's elements of one series with as many terms done share a table
    of their shapes, and math.log is taken once per time.  An element
    stops at its first term below tail_tol, past which at most the rest
    of its round is evaluated, and its sums add its terms in order of n,
    so each gets the bits a loop over n at that time alone gives."""
    shape0, dshape, t = np.broadcast_arrays(
        np.asarray(shape0, dtype=np.float64), np.asarray(dshape, dtype=np.float64),
        np.asarray(t, dtype=np.float64),
    )
    shape0, dshape, times = shape0.ravel(), dshape.ravel(), t.ravel()
    x = rate * times
    logx = _logs(x)
    sums = np.zeros((times.size, 2))  # of the CDF terms and of the integrated terms
    last = np.zeros(times.size)
    n_terms = 0
    done = np.zeros(times.size, dtype=np.int64)  # terms evaluated at each time
    width = np.fmin(_stop_bound(shape0, dshape, x, tail_tol), n_max).astype(np.int64)
    active = np.arange(times.size)
    while active.size:
        width[active] = np.minimum(width[active], np.minimum(n_max - done[active], _CHUNK_VALUES))
        # elements of one series with as many terms done are adjacent, widest first
        active = active[np.lexsort((-width[active], done[active], dshape[active], shape0[active]))]
        ends = np.cumsum(width[active])
        going = []
        lo = 0
        while lo < active.size:
            hi = np.searchsorted(ends, (ends[lo - 1] if lo else 0) + _CHUNK_VALUES, side="right")
            rows, lo = active[lo:hi], hi
            w = width[rows]
            # a table entry per term of each group's first (widest) element
            keys = np.stack((shape0[rows], dshape[rows], done[rows]))
            head = np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)]
            heads, head_w = rows[head], w[head]
            first = np.cumsum(head_w) - head_w
            n = np.arange(first[-1] + head_w[-1]) - np.repeat(first - done[heads], head_w)
            k = np.repeat(shape0[heads], head_w) + np.repeat(dshape[heads], head_w) * n
            shapes = _shape_table(k)
            # the values column by column (term j of every element that has
            # one), the elements widest first, so that each column is a prefix
            by_width = np.argsort(-w, kind="stable")
            rows, w, base = rows[by_width], w[by_width], first[np.cumsum(head) - 1][by_width]
            counts = np.searchsorted(-w, -np.arange(w[0]))  # elements wider than j
            offsets = np.cumsum(counts) - counts
            col = np.repeat(np.arange(w[0]), counts)
            pos = np.arange(col.size) - np.repeat(offsets, counts)
            at = rows[pos]
            si = base[pos] + col
            cdf, cdf_next = _pair(shapes, si, x[at], logx[at])
            terms = np.stack((cdf, times[at] * cdf - (k[si] / rate) * cdf_next), axis=1)
            terms[terms[:, 1] < 0.0, 1] = 0.0
            below = cdf < tail_tol
            summed = w.copy()
            np.minimum.at(summed, pos[below], col[below])
            terms[col >= summed[pos]] = 0.0
            # each element's sums in order of n; adding 0.0 past its stop
            # leaves them as they are
            totals = sums[rows]
            for offset, count in zip(offsets[: summed.max()].tolist(), counts.tolist()):
                totals[:count] += terms[offset : offset + count]
            sums[rows] = totals
            last[rows] = cdf[offsets[np.minimum(summed, w - 1)] + np.arange(rows.size)]
            n_terms += int(summed.sum())
            done[rows] += w
            width[rows] = 2 * w
            going.append(rows[summed == w])
        active = np.concatenate(going)
        active = active[done[active] < n_max]
    last = last.reshape(t.shape)
    return sums[:, 0].reshape(t.shape), sums[:, 1].reshape(t.shape), n_terms, last, last < tail_tol


def check_converged(series: str, cfg: RenewalSeriesConfig, times, partial, last) -> None:
    """The cap check of both closed forms: where the last term of E[R_t]
    is not below ``cfg.tail_tol``, ``series`` hit ``cfg.n_max``, and the
    error names the first such time of ``times`` with its partial sum."""
    capped = np.flatnonzero(~(last < cfg.tail_tol))
    if capped.size:
        i = capped[0]
        t_i, last_i = float(times.flat[i]), float(last.flat[i])
        raise SeriesNotConvergedError(
            f"{series} series hit the cap n_max={cfg.n_max} at t={t_i} with the "
            f"last term {last_i:.3e} still >= tail_tol={cfg.tail_tol:.3e}",
            partial_sum=float(partial.flat[i]),
            n_terms=cfg.n_max,
            last_term=last_i,
            t=t_i,
        )


def policy_renewal_sums(params: ProcessParams, policies, t, cfg: RenewalSeriesConfig):
    """(E[orders by t], E[integral of the order count over [0, t]]) for
    every policy of ``policies`` at every time of t (gamma-series form),
    as arrays with one row per policy and t's shape after it, from one
    pass of the renewal series over all of them.  If the series hits
    ``cfg.n_max`` anywhere, the error names the first such time of the
    first such policy."""
    times = as_times(t)
    rows = (len(policies),) + (1,) * times.ndim
    er, ei, _, last, _ = renewal_series(
        np.array([p.a for p in policies], dtype=np.float64).reshape(rows) / params.mu,
        np.array([p.Q for p in policies], dtype=np.float64).reshape(rows) / params.mu,
        params.alpha * params.lam,
        times,
        cfg.tail_tol,
        cfg.n_max,
    )
    check_converged("renewal", cfg, np.broadcast_to(times, er.shape), er, last)
    return er, ei


def expected_renewal_sums(
    params: ProcessParams, policy: PolicyParams, t, cfg: RenewalSeriesConfig
):
    """(E[orders by t], E[integral of the order count over [0, t]]) from
    one pass of the renewal series over every time of t (gamma-series
    form): floats for a scalar t, arrays of its shape otherwise.  If the
    series hits ``cfg.n_max`` anywhere, the error names the first such
    time in the order of t."""
    er, ei = policy_renewal_sums(params, [policy], t, cfg)
    if er.ndim == 1:
        return float(er[0]), float(ei[0])
    return er[0], ei[0]


def expected_renewals(
    params: ProcessParams, policy: PolicyParams, t: float, cfg: RenewalSeriesConfig
) -> float:
    """Expected number of orders placed by time t (gamma-series form)."""
    return expected_renewal_sums(params, policy, t, cfg)[0]


def expected_integrated_renewals(
    params: ProcessParams, policy: PolicyParams, t: float, cfg: RenewalSeriesConfig
) -> float:
    """Expected integral of the order count over [0, t]."""
    return expected_renewal_sums(params, policy, t, cfg)[1]


def first_passage_times(flat, offsets, mu, alpha, levels):
    """Exact first time mu*t + alpha*(jumps so far) reaches each of
    ``levels`` on each packed jump path, as a (len(levels), n_paths) array.

    Demand is monotone, so with tau_0 = 0 and tau_j the j-th jump, level L
    is first reached at T = min over j of max(tau_j, (L - alpha*j)/mu), one
    maximum per segment (``demand.Segments``) and one minimum per path:
    T <= t exactly when N_t, the jumps by t, is at least the fewest k with
    mu*t + alpha*k >= L, whose law ``cost.exact_renewal_sums`` sums.  Every
    time is finite, since drift alone reaches any level past the last jump.
    """
    levels = np.asarray(levels, dtype=np.float64)
    out = np.empty((levels.size, offsets.shape[0] - 1))
    for seg in path_segments(flat, offsets, alpha, np.inf):
        # levels per pass, so that a pass holds about 8 * CHUNK_SEGMENTS values
        step = max(1, 8 * demand.CHUNK_SEGMENTS // seg.t_start.size)
        for lo in range(0, levels.size, step):
            reach = np.maximum(seg.t_start, (levels[lo : lo + step, None] - seg.s_before) / mu)
            out[lo : lo + step, seg.first : seg.first + seg.start.size] = np.minimum.reduceat(
                reach, seg.start, axis=1
            )
    return out


def fpt_empirical_cdf(
    params: ProcessParams,
    policy: PolicyParams,
    n,
    t_grid,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Empirical CDF of the exact first passage to the n-th threshold,
    evaluated on ``t_grid`` from ``n_paths`` simulated paths.

    ``n`` may also be a sequence of threshold indices: one batch, sampled
    to the horizon of the highest threshold, then serves them all, and
    the result has one row per index.  A path's first passage to a lower
    threshold falls before that threshold's own horizon, so it does not
    depend on the longer horizon.  Each path is sampled only through its
    first jump at which demand reaches the highest threshold
    (``batch_jump_times``' ``level``): no later jump can move a passage.
    """
    ns = np.atleast_1d(n)
    if ns.size == 0 or np.any(ns < 1):
        raise ParameterError(f"threshold indices must be >= 1, got {n}")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    grid = np.asarray(t_grid, dtype=np.float64)
    # the passage times are (thresholds x paths) and the CDFs (thresholds x
    # grid points) float64 values: bounded like the jump times they come from
    check_budget(
        ns.size * max(n_paths, grid.size),
        "{thresholds} thresholds (fpt.n_values) times max({n_paths} paths, {points} grid "
        "points) are more values than the budget of {budget}; use fewer thresholds",
        thresholds=ns.size, n_paths=n_paths, points=grid.size,
    )
    levels = [policy.threshold(int(k)) for k in ns]
    # horizon long enough that censoring only affects times beyond the grid
    horizon = max(float(grid.max()), max(levels) / params.mu) + 1.0
    flat, offsets = batch_jump_times(params, horizon, seed, n_paths, level=max(levels))
    fpt = np.sort(first_passage_times(flat, offsets, params.mu, params.alpha, levels), axis=1)
    cdf = np.stack([np.searchsorted(row, grid, side="right") for row in fpt]) / float(n_paths)
    return cdf if np.ndim(n) else cdf[0]
