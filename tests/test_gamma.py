"""Gamma CDF kernel, truncated means, and the diagnostic integrand."""

import math
import warnings

import mpmath
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
import driftinv.gammainc
from driftinv.gammainc import (
    _LOG_SERIES, _STIRLING, _TEMME, _TEMME_A, _TEMME_MU, _logs, _math_map, _pair, _shape_table,
    _value, reg_lower_gamma,
)
from driftinv.renewal import gamma_and_literal_cdfs

import temme_coefficients

MAX_ITER = 20000
EPS = 1e-16
TINY = 1e-300


def in_temme_region(a, x):
    return a > _TEMME_A and abs(x - a) < _TEMME_MU * a


def scalar_temme(a, x):
    """Oracle: P(a, x) and the pmf x^a e^-x / Gamma(a+1) from Temme's
    uniform expansion for one float pair: each g_n(a) by its own Horner
    scheme in 1/a down column n of the zero-padded table, the sum over n
    by one in eta, and the pmf from Stirling's series."""
    mu = (x - a) / a
    u = mu / (2.0 + mu)
    w = u * u
    s = _LOG_SERIES[-1]
    for c in _LOG_SERIES[-2::-1]:
        s = s * w + c
    f = u * (mu - 2.0 * w * s)  # lambda - 1 - ln(lambda)
    eta = math.copysign(math.sqrt(f + f), mu)
    inv_a = 1.0 / a
    total = None
    for n in range(len(_TEMME[0]) - 1, -1, -1):
        column = [row[n] if n < len(row) else 0.0 for row in _TEMME]
        g = column[-1]
        for d in column[-2::-1]:
            g = g * inv_a + d
        total = g if total is None else total * eta + g
    s = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        s = s * (inv_a * inv_a) + c
    norm = 1.0 / math.sqrt(2.0 * math.pi * a)
    e = math.exp(-a * f)
    p = 0.5 * math.erfc(-(eta * math.sqrt(0.5 * a))) - e * norm * total
    return p, e * (math.exp(-(inv_a * s)) * norm)


def clip(p):
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def scalar_gamma_pair(a, x, tiny=TINY):
    """Oracle: (P(a, x), P(a+1, x)) for one float pair: Temme's expansion
    for a > _TEMME_A with x near a, otherwise the power series and the
    modified-Lentz continued fraction of Press et al., Numerical Recipes
    section 6.2, with ``tiny`` the floor of the Lentz denominators.
    P(a+1, x) is the series' sum from its second term, and elsewhere
    P(a, x) less the pmf (DLMF 8.8.5)."""
    if x <= 0.0:
        return 0.0, 0.0
    # log prefactor x^a e^-x / Gamma(a); underflows cleanly to 0.
    lg = a * math.log(x) - x - math.lgamma(a)
    if lg < -745.0:
        # e^lg underflows; the function value is 0 or 1 depending on side.
        return (0.0, 0.0) if x < a else (1.0, 1.0)
    if in_temme_region(a, x):
        p, pmf = scalar_temme(a, x)
        return clip(p), clip(clip(p) - pmf)
    pref = math.exp(lg)
    if x < a + 1.0:
        # series: P(a,x) = pref * sum_k x^k / (a (a+1) ... (a+k))
        ap = a
        term = 1.0 / a
        total = term
        rest = 0.0
        for _ in range(MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            rest += term
            if abs(term) < abs(total) * EPS:
                break
        return min(pref * total, 1.0), min(pref * rest, 1.0)
    # continued fraction for Q(a,x), modified Lentz
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    p = clip(1.0 - pref * h)
    return p, clip(p - pref / a)


def scalar_reg_lower_gamma(a, x, tiny=TINY):
    """Oracle: P(a, x) for one float pair."""
    return scalar_gamma_pair(a, x, tiny)[0]


def scalar_poisson_pmf(k, x):
    """Oracle: x^k e^-x / Gamma(k+1) for one pair."""
    if x <= 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(x) - x - math.lgamma(k + 1.0))


def poisson_pmf(k, x):
    """Oracle: x^k e^-x / Gamma(k+1), P(N = k) for N ~ Poisson(x),
    elementwise over arrays, from math.lgamma once per distinct k and
    math.exp of the log, so large k cannot overflow."""
    k = np.asarray(k, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    distinct, inverse = np.unique(k + 1.0, return_inverse=True)
    lg = k * _logs(x) - x - _math_map(math.lgamma, distinct)[inverse].reshape(k.shape)
    out = np.zeros(lg.shape)
    out[np.broadcast_to(k == 0.0, lg.shape)] = 1.0
    live = np.broadcast_to(~(x <= 0.0), lg.shape)
    out[live] = _math_map(math.exp, lg[live])
    return _value(out)


def mixed_pairs(n, seed):
    """(a, x) pairs with a in (0.01, 300) and x in [0, 400): x = 0, x on
    either side of the switch at a + 1, the underflowing prefactor of
    x far below a, and the rest spread over the square."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(math.log(0.01), math.log(300.0), n))
    x = rng.uniform(0.0, 400.0, n)
    q = n // 8
    x[:q] = np.minimum(a[:q] + 1.0 + rng.uniform(-0.5, 0.5, q), 399.0)
    x[q : 2 * q] = a[q : 2 * q] * rng.uniform(0.0, 2.0, q)
    a[2 * q : 2 * q + q // 4] = rng.uniform(250.0, 300.0, q // 4)
    x[2 * q : 2 * q + q // 4] = rng.uniform(0.0, 5.0, q // 4)
    x[2 * q + q // 4 : 2 * q + q // 2] = 0.0
    return a, x


def kernel_pair(a, x):
    """The kernel's (P(a, x), P(a+1, x)) on the 1-D arrays a and x."""
    distinct, si = np.unique(a, return_inverse=True)
    return _pair(_shape_table(distinct), si, x, _logs(x))


def test_kernel_matches_scalar_oracle_bit_for_bit():
    a, x = mixed_pairs(40_000, seed=17)
    want, want_next = np.array([scalar_gamma_pair(u, v) for u, v in zip(a.tolist(), x.tolist())]).T
    assert np.array_equal(reg_lower_gamma(a, x), want)
    p, p_next = kernel_pair(a, x)
    assert np.array_equal(p, want) and np.array_equal(p_next, want_next)
    # every branch is taken: x <= 0, the underflow, Temme's expansion, the
    # series, the fraction and the fraction's values set to 1.0 directly
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = a * np.log(x) - x - np.array([math.lgamma(u) for u in a.tolist()])
        one = lg - np.log(x - a + 1.0) < -56.0 * math.log(2.0)
    temme = np.array([in_temme_region(u, v) for u, v in zip(a.tolist(), x.tolist())])
    live = (lg > -744.0) & ~temme
    assert np.sum(x == 0.0) > 1000
    assert np.sum((x > 0.0) & (lg < -746.0)) > 1000
    assert np.sum((lg > -744.0) & temme) > 1000
    assert np.sum(live & (x < a + 1.0)) > 1000
    assert np.sum(live & (x >= a + 1.0) & ~one) > 1000
    assert np.sum(live & (x >= a + 1.0) & one) > 1000
    # and one call on the same pairs as a (1, n) row against a column
    assert np.array_equal(reg_lower_gamma(a[None, :200], x[:50, None]), np.array(
        [[scalar_reg_lower_gamma(u, v) for u in a[:200].tolist()] for v in x[:50].tolist()]
    ))


def test_poisson_pmf_matches_scalar_oracle_bit_for_bit():
    k, x = mixed_pairs(10_000, seed=18)
    k[:100] = 0.0
    want = np.array([scalar_poisson_pmf(u, v) for u, v in zip(k.tolist(), x.tolist())])
    assert np.array_equal(poisson_pmf(k, x), want)


def assert_matches_oracle(a, x):
    want = [scalar_reg_lower_gamma(u, v) for u, v in zip(a.tolist(), x.tolist())]
    assert reg_lower_gamma(a, x).tolist() == want


# one value, and calls around 2,048 values, the size in which the kernel
# once cut its calls (the ids keep that name): a value's bits must not
# depend on the size of the call it is in
@pytest.mark.parametrize("n", [1, 2047, 2048, 2049], ids=["1", "slice-1", "slice", "slice+1"])
def test_kernel_matches_oracle_at_the_slice_edges(n):
    a, x = mixed_pairs(n, seed=21)
    assert_matches_oracle(a, x)
    # all n in one branch, so that the series, the fraction and Temme's
    # expansion each get a call of n elements
    assert_matches_oracle(a, a * 0.5)
    assert_matches_oracle(a, np.where(a > _TEMME_A, 1.55 * a, a + 1.5))
    assert_matches_oracle(a + _TEMME_A, a + _TEMME_A)


def series_steps(a, x):
    """Steps the oracle's power series takes for one pair with x < a + 1."""
    ap, term = a, 1.0 / a
    total = term
    for step in range(1, MAX_ITER + 1):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * EPS:
            return step
    return MAX_ITER


def test_series_elements_stopping_at_every_offset_of_a_block():
    # one call whose series elements stop at many different steps, so
    # elements drop out of the pending set at each of them while others
    # go on; x is below a/2, out of Temme's region
    rng = np.random.default_rng(23)
    a = np.exp(rng.uniform(math.log(0.05), math.log(200.0), 400))
    x = a * rng.uniform(0.01, 0.5, 400)
    steps = np.array([series_steps(u, v) for u, v in zip(a.tolist(), x.tolist())])
    assert np.unique(steps).size >= 32
    assert np.all(x < a + 1.0) and steps.max() > 32
    assert_matches_oracle(a, x)


def test_temme_table_is_the_generators_output():
    # the committed literal is what tests/temme_coefficients.py derives
    # with mpmath for the region the kernel uses
    assert temme_coefficients.table() == _TEMME
    assert all(len(r) >= len(s) for r, s in zip(_TEMME, _TEMME[1:]))


# shapes over the workloads' range and x/a over (0.5, 2), and a bound on
# the kernel's largest relative error against mpmath there: 4.7e-14 is
# measured (numpy 2.4, glibc), 1.40e-12 was the series and fraction's
# alone, from the rounding of a*ln(x) - lgamma(a) at large a
WORKLOAD_GRID = (np.geomspace(8.0, 1000.0, 41), np.linspace(0.5, 2.0, 61)[1:-1])
WORKLOAD_GRID_REL_ERROR = 1e-13


def workload_grid_relative_error():
    """The kernel's largest relative error against mpmath over
    WORKLOAD_GRID, and the (a, x) where it is taken."""
    shapes, ratios = WORKLOAD_GRID
    a = np.repeat(shapes, ratios.size)
    x = a * np.tile(ratios, shapes.size)
    with mpmath.workdps(40):
        want = np.array(
            [float(mpmath.gammainc(u, 0, v, regularized=True)) for u, v in zip(a.tolist(), x.tolist())]
        )
    rel = np.abs(reg_lower_gamma(a, x) - want) / want
    i = int(np.argmax(rel))
    return float(rel[i]), float(a[i]), float(x[i])


def test_kernel_matches_mpmath_on_the_workload_grid():
    rel, a, x = workload_grid_relative_error()
    assert rel <= WORKLOAD_GRID_REL_ERROR, (a, x)


def test_kernel_next_shape_matches_mpmath_on_the_workload_grid():
    # P(a+1, x) of the kernel's pair: the power series' own sum past its
    # first term, or P(a, x) less the pmf of the shared prefactor
    shapes, ratios = WORKLOAD_GRID
    a = np.repeat(shapes, ratios.size)
    x = a * np.tile(ratios, shapes.size)
    with mpmath.workdps(40):
        want = np.array(
            [float(mpmath.gammainc(u + 1, 0, v, regularized=True)) for u, v in zip(a.tolist(), x.tolist())]
        )
    rel = np.abs(kernel_pair(a, x)[1] - want) / want
    i = int(np.argmax(rel))
    assert rel[i] <= WORKLOAD_GRID_REL_ERROR, (a[i], x[i])


def test_repeated_shapes_take_one_lgamma_each(monkeypatch):
    # an (m, n) block of shapes with m equal rows, and some repeats
    # within a row, as the renewal series passes them
    shapes = np.array([0.37, 2.5, 2.5, 9.86, 37.3, 120.5, 0.37])
    a = np.tile(shapes, (30, 1))
    x = np.linspace(0.0, 150.0, 30)[:, None]
    want = [[scalar_reg_lower_gamma(u, v) for u in shapes.tolist()] for v in x[:, 0].tolist()]
    want_pmf = [[scalar_poisson_pmf(u, v) for u in shapes.tolist()] for v in x[:, 0].tolist()]
    lgammas = []
    lgamma = math.lgamma

    def counting(v):
        lgammas.append(v)
        return lgamma(v)

    monkeypatch.setattr(math, "lgamma", counting)
    assert reg_lower_gamma(a, x).tolist() == want
    assert sorted(lgammas) == sorted(set(shapes.tolist()))
    lgammas.clear()
    assert poisson_pmf(a, x).tolist() == want_pmf
    assert sorted(lgammas) == sorted(set((shapes + 1.0).tolist()))


def test_underflowing_prefactor_matches_oracle_on_every_side():
    # e^lg underflows (lg < -745), which mixed_pairs draws only for x far
    # below a: here also on the continued fraction's side, and in Temme's
    # band, which reaches it once a passes about 4,000.  The kernel has
    # no branch of its own there; the oracle has
    assert scalar_gamma_pair(5.0, 1000.0) == (1.0, 1.0)
    assert scalar_gamma_pair(1e4, 5100.0) == (0.0, 0.0)
    rng = np.random.default_rng(24)
    a_frac = np.exp(rng.uniform(math.log(0.01), math.log(50.0), 2000))
    a_temme = rng.uniform(4000.0, 20000.0, 2000)
    a = np.r_[5.0, 1e4, a_frac, a_temme]
    x = np.r_[
        1000.0, 5100.0, rng.uniform(800.0, 5000.0, 2000),
        a_temme * (1.0 + rng.choice([-1.0, 1.0], 2000) * rng.uniform(0.3, 0.5, 2000)),
    ]
    lg = a * np.log(x) - x - np.array([math.lgamma(u) for u in a.tolist()])
    temme = np.array([in_temme_region(u, v) for u, v in zip(a.tolist(), x.tolist())])
    a, x, temme = a[lg < -746.0], x[lg < -746.0], temme[lg < -746.0]
    assert np.sum(~temme & (x >= a + 1.0)) > 1000
    assert np.sum(temme & (x < a)) > 200 and np.sum(temme & (x > a)) > 200
    want, want_next = np.array([scalar_gamma_pair(u, v) for u, v in zip(a.tolist(), x.tolist())]).T
    p, p_next = kernel_pair(a, x)
    assert np.array_equal(p, want) and np.array_equal(p_next, want_next)
    assert np.array_equal(reg_lower_gamma(a, x), want)


# (a, x) with 1 < a < 2 and lg = a ln(x) - x - lgamma(a) at about -745.01,
# -745.06 and -745.12, inside (-745.13, -745)
UNDERFLOW_SLIVER = [
    (1.5, 1.8303830495135006e-216), (1.5, 1.770375955538864e-216),
    (1.5, 1.7009585214109087e-216), (1.9, 5.007849323741318e-171),
    (1.9, 4.877782723916261e-171), (1.9, 4.726154214854445e-171),
]


@pytest.mark.parametrize("a, x", UNDERFLOW_SLIVER)
def test_kernel_keeps_the_underflow_sliver(a, x):
    # e^lg lies between half the least subnormal (2^-1075 = e^-745.13) and
    # e^-745, so the series' prefactor rounds up to the least subnormal,
    # 5e-324, and so does its product with the series' sum (above 1/a,
    # which is above 1/2 for a < 2).
    # The exact P(a, x), about e^lg / a, is below half the least
    # subnormal, so 0.0 is its rounding, which the scalar oracle returns
    # (it gives 0.0 wherever lg < -745).  The kernel has no branch for
    # this sliver and returns 5e-324; no workload or shipped config
    # reaches it
    lg = a * math.log(x) - x - math.lgamma(a)
    assert -745.13 < lg < -745.0 and x < a + 1.0
    assert mpmath.gammainc(a, 0, x, regularized=True) < mpmath.mpf(2) ** -1075
    assert scalar_gamma_pair(a, x) == (0.0, 0.0)
    assert reg_lower_gamma(a, x) == 5e-324
    assert [v.tolist() for v in kernel_pair(np.array([a]), np.array([x]))] == [[5e-324], [0.0]]


def test_kernel_lentz_floor_matches_oracle(monkeypatch):
    # with the floor raised, the Lentz denominators fall below it often,
    # so the continued fraction's clamp is taken
    monkeypatch.setattr(driftinv.gammainc, "_TINY", 0.3)
    a, x = mixed_pairs(2_000, seed=19)
    fraction = (x >= a + 1.0) & (x > 0.0)
    a, x = a[fraction], x[fraction]
    want = np.array([scalar_reg_lower_gamma(u, v, tiny=0.3) for u, v in zip(a.tolist(), x.tolist())])
    assert np.array_equal(reg_lower_gamma(a, x), want)
    assert not np.array_equal(want, [scalar_reg_lower_gamma(u, v) for u, v in zip(a.tolist(), x.tolist())])


@pytest.mark.parametrize("fn", [reg_lower_gamma, poisson_pmf])
def test_kernel_keeps_shapes(fn):
    one = fn(2.5, 3.0)
    assert type(one) is float and one == fn(np.array([2.5]), 3.0)[0]
    assert fn(np.float64(2.5), np.array(3.0)) == one
    assert fn(np.array([1.0, 2.5, 9.0]), 3.0).shape == (3,)
    assert fn(np.ones((2, 1)), np.array([0.0, 1.0, 2.0])).shape == (2, 3)
    assert fn(np.ones((4, 0)), 1.0).shape == (4, 0)


def test_kernel_raises_no_warning():
    a, x = mixed_pairs(2_000, seed=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reg_lower_gamma(a, x)
        poisson_pmf(a, x)
        reg_lower_gamma(np.array([1e-3, 5.0, 300.0]), np.array([[0.0], [1e-300], [1e300]]))


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


@pytest.mark.parametrize(
    "shape, rate, t",
    [
        # fpt-diag's block: a column of thresholds' shapes against its grid,
        # at the reference process (x up to 120: series, fraction, Temme)
        (np.array([[10.0], [20.0], [30.0], [40.0]]), 10.0, np.linspace(0.0, 12.0, 31)),
        (np.array([0.37, 9.86, 37.3]), 4.2, 2.0),
        (37.3, 4.2, np.linspace(0.0, 20.0, 101)),
    ],
)
def test_gamma_and_literal_cdfs_match_their_own_calls(shape, rate, t):
    # one kernel call over the shapes stacked with the shapes + 1 gives
    # each column the bits of its own call
    spec = GammaSpec(shape=shape, rate=rate)
    gcdf, lit = gamma_and_literal_cdfs(spec, t)
    assert np.array_equal(gcdf, gamma_cdf(spec, t))
    assert np.array_equal(lit, literal_integrand_cdf(spec, t))


@pytest.mark.parametrize("fn", [gamma_cdf, literal_integrand_cdf, truncated_mean])
def test_cdfs_take_a_time_array(fn):
    # one call on a grid gives the bits of one call per time
    spec = GammaSpec(shape=37.3, rate=4.2)
    grid = np.linspace(0.0, 20.0, 101)
    got = fn(spec, grid)
    assert got.shape == grid.shape
    assert got.tolist() == [fn(spec, t) for t in grid.tolist()]
    assert type(fn(spec, 2.0)) is float
    with pytest.raises(DomainError, match="got -0.5"):
        fn(spec, np.array([0.0, 1.0, -0.5, -1.0]))
