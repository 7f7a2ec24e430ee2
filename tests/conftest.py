import numpy as np
import pytest

from driftinv import (
    CostParams,
    DomainError,
    PolicyParams,
    ProcessParams,
    RenewalSeriesConfig,
)


@pytest.fixture(scope="session")
def ref_process():
    """Reference demand process: drift 5, jumps of 10 at unit rate."""
    return ProcessParams(mu=5.0, alpha=10.0, lam=1.0)


@pytest.fixture(scope="session")
def ref_policy():
    return PolicyParams(x0=100.0, a=50.0, Q=50.0)


@pytest.fixture(scope="session")
def ref_costs():
    return CostParams(c_o=5.0, c_h=1.0, c_so=10.0)


@pytest.fixture(scope="session")
def series_cfg():
    return RenewalSeriesConfig()


def exact_expected_orders(process, policy, t, kmax=400):
    """Exact E[order count at t] from the Poisson law of the monotone
    demand: orders at t = max(floor((D_t - a)/Q) + 1, 0)."""
    from scipy.stats import poisson

    ks = np.arange(kmax)
    pmf = poisson.pmf(ks, process.lam * t)
    demand = process.mu * t + process.alpha * ks
    orders = np.maximum(np.floor((demand - policy.a) / policy.Q).astype(int) + 1, 0)
    return float((pmf * orders).sum())


def demand_at(path, t):
    """Demand of a ``SamplePath`` accumulated by time t; jumps at exactly
    t are included."""
    if t < 0 or t > path.horizon:
        raise DomainError(f"t must lie in [0, {path.horizon}], got {t}")
    n_jumps = int(np.searchsorted(path.jump_times, t, side="right"))
    return path.params.mu * t + path.params.alpha * n_jumps


def pack(paths):
    """A packed batch (flat, offsets) of hand-built jump-time lists."""
    offsets = np.concatenate(([0], np.cumsum([len(p) for p in paths]))).astype(np.int64)
    return np.array([t for p in paths for t in p], dtype=np.float64), offsets


def truncate_batch(flat, offsets, horizon):
    """The packed batch cut to the jumps before ``horizon``; by prefix
    consistency, the batch ``batch_jump_times`` samples to that horizon.
    The oracle for one walk serving several horizons."""
    keep = flat < horizon
    nonempty = np.flatnonzero(np.diff(offsets))
    kept = np.zeros_like(offsets)
    if nonempty.size:
        kept[nonempty + 1] = np.add.reduceat(keep, offsets[nonempty], dtype=np.int64)
    return flat[keep], np.cumsum(kept, out=kept)
