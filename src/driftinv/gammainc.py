"""Regularized lower incomplete gamma function P(a, x).

P(a, x) = gamma(a, x) / Gamma(a) is the CDF of a Gamma(shape=a, rate=1)
variable at x.  Evaluation follows the classic split: a power series for
x < a + 1 and a modified-Lentz continued fraction for the complement
otherwise.  Absolute error is well below 1e-10 over the shapes used here
(verified against quadrature and scipy in the test suite).

log Gamma(a) is math.lgamma, the one log-gamma in the package.
``poisson_pmf`` is the one x^k e^-x / Gamma(k+1), the step of the
recurrence P(k+1, x) = P(k, x) - x^k e^-x / Gamma(k+1) (DLMF 8.8.5;
Abramowitz & Stegun 6.5.21).
"""

import math

_MAX_ITER = 20000
_EPS = 1e-16
_TINY = 1e-300


def poisson_pmf(k, x):
    """x^k e^-x / Gamma(k+1): P(N = k) for N ~ Poisson(x), and for real
    k the step P(k, x) - P(k+1, x).  In log space so large k cannot
    overflow."""
    if x <= 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(x) - x - math.lgamma(k + 1.0))


def reg_lower_gamma(a, x):
    if x <= 0.0:
        return 0.0
    # log prefactor x^a e^-x / Gamma(a); underflows cleanly to 0.
    lg = a * math.log(x) - x - math.lgamma(a)
    if lg < -745.0:
        # e^lg underflows; the function value is 0 or 1 depending on side.
        return 0.0 if x < a else 1.0
    pref = math.exp(lg)
    if x < a + 1.0:
        # series: P(a,x) = pref * sum_k x^k / (a (a+1) ... (a+k))
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        p = pref * total
        return 1.0 if p > 1.0 else p
    # continued fraction for Q(a,x), modified Lentz
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = pref * h
    p = 1.0 - q
    if p < 0.0:
        return 0.0
    return 1.0 if p > 1.0 else p
