"""Gamma CDF kernel, truncated means, and the diagnostic integrand."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from driftinv import (
    DomainError,
    GammaSpec,
    ParameterError,
    gamma_cdf,
    literal_integrand_cdf,
    truncated_mean,
)
from driftinv.gammainc import poisson_pmf, reg_lower_gamma


def gamma_pdf(spec, s):
    return math.exp(
        spec.shape * math.log(spec.rate)
        + (spec.shape - 1.0) * math.log(s)
        - spec.rate * s
        - math.lgamma(spec.shape)
    )


def test_kernel_matches_scipy_on_grid():
    shapes = [0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 37.5, 100.0, 250.0, 1000.0]
    xs = [0.0, 1e-8, 0.1, 0.5, 1.0, 3.0, 9.0, 35.0, 99.0, 101.0, 240.0, 900.0, 1100.0, 5000.0]
    for a in shapes:
        for x in xs:
            assert reg_lower_gamma(a, x) == pytest.approx(
                scipy.special.gammainc(a, x), abs=1e-12
            )


def test_spec_validation():
    with pytest.raises(ParameterError):
        GammaSpec(shape=0.0, rate=1.0)
    with pytest.raises(ParameterError):
        GammaSpec(shape=1.0, rate=-2.0)


def test_exponential_special_case():
    spec = GammaSpec(shape=1.0, rate=1.0)
    assert gamma_cdf(spec, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_cdf_at_zero_and_limits():
    spec = GammaSpec(shape=10.0, rate=10.0)
    assert gamma_cdf(spec, 0.0) == 0.0
    assert gamma_cdf(spec, 1e6) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        gamma_cdf(spec, -0.1)


def test_cdf_monotone_and_bounded():
    spec = GammaSpec(shape=7.3, rate=4.2)
    grid = np.linspace(0.0, 10.0, 200)
    vals = np.array([gamma_cdf(spec, t) for t in grid])
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_cdf_against_quadrature():
    spec = GammaSpec(shape=10.0, rate=10.0)
    want, _ = scipy.integrate.quad(lambda s: gamma_pdf(spec, s), 0.0, 1.0)
    assert gamma_cdf(spec, 1.0) == pytest.approx(want, abs=1e-8)


def test_literal_integrand_trivials():
    spec = GammaSpec(shape=1.0, rate=1.0)
    assert literal_integrand_cdf(spec, 0.0) == 0.0
    # integral of s e^-s on [0, 1]
    assert literal_integrand_cdf(spec, 1.0) == pytest.approx(1.0 - 2.0 / math.e, abs=1e-9)
    with pytest.raises(DomainError):
        literal_integrand_cdf(spec, -1.0)


def test_literal_integrand_against_scipy_quad():
    spec = GammaSpec(shape=10.0, rate=10.0)

    def integrand(s):
        return gamma_pdf(spec, s) / spec.rate * s if s > 0 else 0.0

    want, _ = scipy.integrate.quad(integrand, 0.0, 2.0)
    assert literal_integrand_cdf(spec, 2.0) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("shape,rate,t", [(10.0, 10.0, 2.0), (3.5, 2.0, 1.3), (1.0, 1.0, 0.7)])
def test_literal_integrand_closed_form(shape, rate, t):
    # same integral in closed form: (shape/rate^2) * P(shape+1, rate t)
    spec = GammaSpec(shape=shape, rate=rate)
    want = shape / rate**2 * reg_lower_gamma(shape + 1.0, rate * t)
    assert literal_integrand_cdf(spec, t) == pytest.approx(want, abs=1e-9)


def test_literal_integrand_is_not_a_cdf():
    # diagnostic only: it does not integrate to 1
    spec = GammaSpec(shape=10.0, rate=10.0)
    assert literal_integrand_cdf(spec, 100.0) == pytest.approx(0.1, abs=1e-8)


def test_truncated_mean_trivials():
    spec = GammaSpec(shape=10.0, rate=10.0)
    assert truncated_mean(spec, 0.0) == 0.0
    assert truncated_mean(spec, 1e6) == pytest.approx(spec.mean, abs=1e-12)
    with pytest.raises(DomainError):
        truncated_mean(spec, -0.5)


def test_truncated_mean_against_quadrature():
    spec = GammaSpec(shape=10.0, rate=10.0)
    want, _ = scipy.integrate.quad(lambda s: s * gamma_pdf(spec, s), 0.0, 1.0)
    assert truncated_mean(spec, 1.0) == pytest.approx(want, abs=1e-8)


def test_partial_moment_identity_grid():
    # E[T 1(T<t)] + mean * (1 - P(shape+1, rate t)) == mean
    rng = np.random.default_rng(5)
    for _ in range(20):
        shape = float(rng.uniform(0.5, 60.0))
        rate = float(rng.uniform(0.2, 20.0))
        t = float(rng.uniform(0.0, 3.0 * shape / rate))
        spec = GammaSpec(shape=shape, rate=rate)
        tail = spec.mean * (1.0 - reg_lower_gamma(shape + 1.0, rate * t))
        assert truncated_mean(spec, t) + tail == pytest.approx(spec.mean, abs=1e-10)


# x as a multiple of k + 1 and offset, and whether P(k, x) and P(k+1, x)
# take the power series (x < shape + 1) rather than the continued fraction
BRANCHES = {
    "series": (0.3, 0.0, (True, True)),
    "series-near-switch": (0.9, 0.0, (True, True)),
    "fraction-then-series": (1.0, 0.5, (False, True)),
    "fraction": (1.5, 3.0, (False, False)),
}


@pytest.mark.parametrize("k", [0.37, 2.7, 9.86, 37.3, 120.5])
@pytest.mark.parametrize("branch", BRANCHES)
def test_recurrence_steps_to_the_next_shape(k, branch):
    # DLMF 8.8.5: P(k+1, x) = P(k, x) - x^k e^-x / Gamma(k+1), for real k
    scale, offset, uses_series = BRANCHES[branch]
    x = scale * (k + 1.0) + offset
    assert (x < k + 1.0, x < k + 2.0) == uses_series
    want = reg_lower_gamma(k + 1.0, x)
    assert reg_lower_gamma(k, x) - poisson_pmf(k, x) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_poisson_pmf_matches_scipy():
    for k, x in [(0, 0.5), (3, 2.0), (40, 35.5), (700, 650.0)]:
        assert poisson_pmf(k, x) == pytest.approx(
            scipy.stats.poisson.pmf(k, x), rel=1e-12, abs=0.0
        )
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(2, 0.0) == 0.0
