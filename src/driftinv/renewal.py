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

import math
from dataclasses import dataclass

import numpy as np

from .demand import batch_jump_times
from .errors import DomainError, ParameterError, SeriesNotConvergedError
from .gammainc import reg_lower_gamma
from .params import PolicyParams, ProcessParams
from .quadrature import adaptive_simpson


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
    """Adaptive quadrature of the literal diagnostic integrand
    (rate*s)^(shape-1) / Gamma(shape) * s * exp(-rate*s) on [0, t]."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    k, r = spec.shape, spec.rate
    lgk = math.lgamma(k)

    def integrand(s):
        if s <= 0.0:
            return 0.0
        return math.exp((k - 1.0) * math.log(r * s) - r * s - lgk) * s

    # split at knots around the integrand's peak so the adaptive rule
    # cannot step over a narrow mass on a wide interval
    center = (k + 1.0) / r
    spread = math.sqrt(k + 1.0) / r
    knots = sorted({0.0, max(center - 8.0 * spread, 0.0), center, center + 8.0 * spread, t})
    knots = [s for s in knots if 0.0 <= s <= t]
    if knots[-1] < t:
        knots.append(t)
    total = 0.0
    for lo, hi in zip(knots, knots[1:]):
        total += adaptive_simpson(integrand, lo, hi, tol=1e-12)
    return total


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


def first_passage_times(flat, offsets, mu, alpha, level):
    """Exact first time mu*t + alpha*(jumps so far) reaches ``level``
    for each packed jump path; inf when the path never reaches it."""
    n_paths = offsets.shape[0] - 1
    out = np.empty(n_paths)
    for i in range(n_paths):
        lo = offsets[i]
        hi = offsets[i + 1]
        fpt = np.inf
        jumps = 0.0
        found = False
        for j in range(lo, hi):
            tj = flat[j]
            # drift alone may reach the level before this jump
            t_cross = (level - jumps) / mu
            if t_cross <= tj:
                fpt = t_cross
                found = True
                break
            jumps += alpha
            if mu * tj + jumps >= level:
                fpt = tj
                found = True
                break
        if not found:
            # drift beyond the last jump
            fpt = (level - jumps) / mu
        out[i] = fpt
    return out


def fpt_empirical_cdf(
    params: ProcessParams,
    policy: PolicyParams,
    n: int,
    t_grid,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Empirical CDF of the exact first passage to the n-th threshold,
    evaluated on ``t_grid`` from ``n_paths`` simulated paths."""
    if n < 1:
        raise ParameterError(f"threshold index must be >= 1, got {n}")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    grid = np.asarray(t_grid, dtype=np.float64)
    level = policy.threshold(n)
    # horizon long enough that censoring only affects times beyond the grid
    horizon = max(float(grid.max()), level / params.mu) + 1.0
    flat, offsets = batch_jump_times(params, horizon, seed, n_paths)
    fpt = first_passage_times(flat, offsets, params.mu, params.alpha, level)
    return np.searchsorted(np.sort(fpt), grid, side="right") / float(n_paths)
