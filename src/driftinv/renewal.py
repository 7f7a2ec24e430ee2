"""First-passage gamma approximation and the renewal-series expectations.

The time of the n-th replenishment is approximated by a gamma
distribution with shape (a + (n-1)Q)/mu and rate alpha*lam.  The
expected order count and its time integral are series of regularized
incomplete gamma values, truncated once a term falls below a tolerance.
Since later thresholds are crossed later, terms decrease strictly in n
and truncation is safe.

``literal_integrand_cdf`` evaluates a variant integrand (an extra factor s
and no factor alpha*lam) kept solely for side-by-side diagnostics
against the true gamma CDF; it is not a probability.
"""

from dataclasses import dataclass

import numpy as np

from .demand import batch_jump_times, path_segments
from .errors import DomainError, ParameterError, SeriesNotConvergedError
from .gammainc import reg_lower_gamma
from .params import PolicyParams, ProcessParams
from .quadrature import adaptive_simpson  # noqa: F401 -- a name perfbench/layers.py traces


@dataclass(frozen=True)
class GammaSpec:
    """Shape/rate pair of one first-passage-time approximation."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
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


def fpt_gamma_spec(params: ProcessParams, policy: PolicyParams, n: int) -> GammaSpec:
    """Gamma approximation of the time the n-th threshold is reached."""
    if n < 1:
        raise ParameterError(f"threshold index must be >= 1, got {n}")
    shape = policy.threshold(n) / params.mu
    return GammaSpec(shape=shape, rate=params.alpha * params.lam)


def gamma_cdf(spec: GammaSpec, t: float) -> float:
    """P(T < t) for T ~ Gamma(shape, rate)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return float(reg_lower_gamma(spec.shape, spec.rate * t))


def literal_integrand_cdf(spec: GammaSpec, t: float) -> float:
    """Integral of the literal diagnostic integrand
    (rate*s)^(shape-1) / Gamma(shape) * s * exp(-rate*s) on [0, t],
    which is (shape/rate^2) * P(shape + 1, rate*t)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return spec.shape / spec.rate**2 * float(reg_lower_gamma(spec.shape + 1.0, spec.rate * t))


def truncated_mean(spec: GammaSpec, t: float) -> float:
    """E[T 1{T < t}] for T ~ Gamma(shape, rate)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return spec.mean * float(reg_lower_gamma(spec.shape + 1.0, spec.rate * t))


def renewal_series(shape0, dshape, rate, t, tail_tol, n_max):
    """Sum CDF terms and their integrated counterparts until the CDF
    term drops below tail_tol.  Returns (sum_cdf, sum_integrated,
    n_terms, last_term, converged)."""
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
        tm = (k / rate) * reg_lower_gamma(k + 1.0, x)
        term_int = t * cdf - tm
        if term_int < 0.0:
            term_int = 0.0
        total_cdf += cdf
        total_int += term_int
    return total_cdf, total_int, n_max, last, False


def expected_renewal_sums(
    params: ProcessParams, policy: PolicyParams, t: float, cfg: RenewalSeriesConfig
):
    """(E[orders by t], E[integral of the order count over [0, t]]) from
    one pass of the renewal series (gamma-series form)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    er, ei, n_terms, last, converged = renewal_series(
        policy.a / params.mu,
        policy.Q / params.mu,
        params.alpha * params.lam,
        t,
        cfg.tail_tol,
        cfg.n_max,
    )
    if not converged:
        raise SeriesNotConvergedError(
            f"renewal series hit the cap n_max={cfg.n_max} at t={t} with the "
            f"last term {last:.3e} still >= tail_tol={cfg.tail_tol:.3e}",
            partial_sum=er,
            n_terms=n_terms,
            last_term=last,
            t=t,
        )
    return er, ei


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

    Every time is finite: past its last jump a path is extended by drift
    alone, which reaches any level since mu > 0.  Events are taken in
    path order, the drift reaching a level at a jump time before the
    jump itself.
    """
    levels = np.asarray(levels, dtype=np.float64)
    out = np.empty((levels.size, offsets.shape[0] - 1))
    for seg in path_segments(flat, offsets, alpha, np.inf):
        index = np.arange(seg.t_end.size)
        after_jump = mu * seg.t_end + seg.s_after
        for row, level in zip(out, levels.tolist()):
            t_drift = (level - seg.s_before) / mu
            by_drift = t_drift <= seg.t_end
            # each path's last segment ends at inf, so it always hits
            hit = np.where(by_drift | (after_jump >= level), index, index.size)
            first = np.minimum.reduceat(hit, seg.start)
            row[seg.first : seg.first + first.size] = np.where(
                by_drift[first], t_drift[first], seg.t_end[first]
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
    depend on the longer horizon.
    """
    ns = np.atleast_1d(n)
    if ns.size == 0 or np.any(ns < 1):
        raise ParameterError(f"threshold indices must be >= 1, got {n}")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    grid = np.asarray(t_grid, dtype=np.float64)
    levels = [policy.threshold(int(k)) for k in ns]
    # horizon long enough that censoring only affects times beyond the grid
    horizon = max(float(grid.max()), max(levels) / params.mu) + 1.0
    flat, offsets = batch_jump_times(params, horizon, seed, n_paths)
    fpt = np.sort(first_passage_times(flat, offsets, params.mu, params.alpha, levels), axis=1)
    cdf = np.stack([np.searchsorted(row, grid, side="right") for row in fpt]) / float(n_paths)
    return cdf if np.ndim(n) else cdf[0]
