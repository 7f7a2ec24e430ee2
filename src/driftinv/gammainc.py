"""Regularized lower incomplete gamma function P(a, x), elementwise.

P(a, x) = gamma(a, x) / Gamma(a) is the CDF of a Gamma(shape=a, rate=1)
variable at x.  Evaluation follows the classic split (Press et al.,
*Numerical Recipes* §6.2): a power series for x < a + 1 and a
modified-Lentz continued fraction for the complement otherwise.
Absolute error is well below 1e-10 over the shapes used here (verified
against quadrature and scipy in the test suite).

Both functions take arrays: the arguments broadcast together, and
each element gets the arithmetic of the one-element algorithm in its
order, so a value does not depend on what it is evaluated with.  The
iterations step all elements not yet converged at once, a block of
steps at a time (``_STEPS`` steps of the series, each a few in-place
ufuncs; for the continued fraction, ``_BLOCK`` values), and each
element takes the value of the step its own stopping test first
passes.  Scalar arguments give a float.  The elements are taken
``_SLICE`` at a time, which bounds the working arrays of one call
whatever its size.

log Gamma(a) is math.lgamma, the one log-gamma in the package, taken
once per distinct value of a; the logs and exponentials of the
prefactor are also the math module's, taken per element, because
numpy's round differently in the last bit.
``poisson_pmf`` is the one x^k e^-x / Gamma(k+1), the step of the
recurrence P(k+1, x) = P(k, x) - x^k e^-x / Gamma(k+1) (DLMF 8.8.5;
Abramowitz & Stegun 6.5.21).
"""

import math

import numpy as np

_MAX_ITER = 20000
_EPS = 1e-16
_TINY = 1e-300
# elements per pass of the iterations, steps of the power series per
# block between two stopping tests, and values per block of the
# continued fraction's steps: together they bound the working arrays of
# any one call
_SLICE = 2048
_STEPS = 8
_BLOCK = 8192


def _math_map(fn, v):
    """The math-module function fn of every element of the array v."""
    return np.fromiter(map(fn, v.ravel().tolist()), np.float64, v.size).reshape(v.shape)


def _lgamma(a):
    """math.lgamma of every element of the array a, taken once per
    distinct value."""
    distinct, inverse = np.unique(a, return_inverse=True)
    return _math_map(math.lgamma, distinct)[inverse].reshape(a.shape)


def _log_prefactor(power, x, lgamma):
    """power * log(x) - x - lgamma, broadcast, with math.log taken once per
    element of x where x > 0 (the value where x <= 0 is never read)."""
    return power * _math_map(math.log, np.where(x <= 0.0, 1.0, x)) - x - lgamma


def _value(out):
    """A float for a 0-d result, else the array."""
    return out if out.ndim else float(out)


def poisson_pmf(k, x):
    """x^k e^-x / Gamma(k+1): P(N = k) for N ~ Poisson(x), and for real
    k the step P(k, x) - P(k+1, x).  In log space so large k cannot
    overflow."""
    k = np.asarray(k, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    lg = _log_prefactor(k, x, _lgamma(k + 1.0))
    out = np.zeros(lg.shape)
    out[np.broadcast_to(k == 0.0, lg.shape)] = 1.0
    live = np.broadcast_to(~(x <= 0.0), lg.shape)
    out[live] = _math_map(math.exp, lg[live])
    return _value(out)


def reg_lower_gamma(a, x):
    """P(a, x) for a > 0, elementwise over a and x broadcast together.

    math.lgamma is taken once per distinct value of a and math.log once
    per element of x, before they are broadcast, so a row of n shapes
    against a column of m points takes n log-gammas and m logs, and so
    does an (m, n) block of shapes whose rows repeat the same n."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    # log prefactor x^a e^-x / Gamma(a); P = 0 where x <= 0
    lg = _log_prefactor(a, x, _lgamma(a))
    a, x = np.broadcast_to(a, lg.shape), np.broadcast_to(x, lg.shape)
    out = np.zeros(lg.shape)
    live = ~(x <= 0.0)
    # e^lg underflows; the function value is 0 or 1 depending on side.
    under = live & (lg < -745.0)
    out[under & ~(x < a)] = 1.0
    live &= ~under
    below = x < a + 1.0
    series = live & below
    if series.any():
        # series: P(a,x) = pref * sum_k x^k / (a (a+1) ... (a+k))
        p = _math_map(math.exp, lg[series]) * _in_slices(_series, a[series], x[series])
        out[series] = np.where(p > 1.0, 1.0, p)
    fraction = live & ~below
    if fraction.any():
        # continued fraction for Q(a,x)
        h = _in_slices(_fraction, a[fraction], x[fraction])
        p = 1.0 - _math_map(math.exp, lg[fraction]) * h
        out[fraction] = np.where(p < 0.0, 0.0, np.where(p > 1.0, 1.0, p))
    return _value(out)


def _in_slices(fn, a, x):
    """fn(a, x) on _SLICE elements at a time."""
    return np.concatenate([fn(a[i : i + _SLICE], x[i : i + _SLICE]) for i in range(0, a.size, _SLICE)])


def _series(a, x):
    """sum_k x^k / (a (a+1) ... (a+k)), each element stopped at its first
    term below _EPS of its sum (every term is positive, so this is the
    test |term| < |total| * _EPS).

    The steps ap += 1, term *= x / ap, total += term are taken _STEPS at
    a time over every element still pending, each as an in-place ufunc
    that writes one row of a block: the block's ap and then x / ap, one
    call for all rows, then its terms and sums.  The stopping test is
    taken once per block; each element takes the sum of its first
    passing step, and the elements that passed drop out."""
    out = np.empty(a.size)
    idx = np.arange(a.size)
    ap = a
    term = total = 1.0 / a
    terms = np.empty((_STEPS, a.size))
    totals = np.empty((_STEPS, a.size))
    steps = 0
    while idx.size and steps < _MAX_ITER:
        width = min(_STEPS, _MAX_ITER - steps)
        ts, us = terms[:width, : idx.size], totals[:width, : idx.size]
        # the rows of terms hold the block's ap, then x / ap, then its
        # terms: term (a row of the last block) is copied out first, and
        # the block's last ap before the division
        term = term.copy()
        for t_row in ts:
            ap = np.add(ap, 1.0, out=t_row)
        ap = ap.copy()
        np.divide(x, ts, out=ts)
        for t_row, u_row in zip(ts, us):
            np.multiply(term, t_row, out=t_row)
            np.add(total, t_row, out=u_row)
            term, total = t_row, u_row
        steps += width
        # x / ap < 1, so no term is larger than the one before it and no
        # sum smaller: an element that passed the test at a step of the
        # block passes it at the last one
        hit = ts[-1] < us[-1] * _EPS
        if hit.any():
            cols = np.flatnonzero(hit)
            first = (ts[:, cols] < us[:, cols] * _EPS).argmax(axis=0)
            out[idx[cols]] = us[first, cols]
            keep = ~hit
            idx, x, ap, term, total = idx[keep], x[keep], ap[keep], term[keep], total[keep]
    out[idx] = total
    return out


def _fraction(a, x):
    """The modified-Lentz continued fraction h with Q(a, x) = pref * h,
    each element stopped at its first factor within _EPS of 1.

    The recurrences for d and c are stepped one at a time for all
    elements at once; the factors delta = d*c, their running product h
    and the stopping test are then taken for a block of steps at once.
    An element takes the h of its first passing step, and the elements
    that passed drop out."""
    out = np.empty(a.size)
    idx = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.size, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    i = 1
    while idx.size and i < _MAX_ITER:
        width = min(max(_BLOCK // idx.size, 8), 16, _MAX_ITER - i)
        steps = np.arange(i, i + width)[:, None]
        ans = -steps * (steps - a)
        bs = np.full((width + 1, idx.size), 2.0)
        bs[0] = b
        bs = np.add.accumulate(bs, axis=0)[1:]
        # a denominator below _TINY is rare: the block is stepped as if
        # none were, and stepped again with them kept off zero if one was
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            raw_ds, cs = _lentz_steps(ans, bs, c, d, clamp=False)
            low = min(np.abs(raw_ds).min(), np.abs(cs).min())
        if low < _TINY:
            raw_ds, cs = _lentz_steps(ans, bs, c, d, clamp=True)
        # row 0 is h, then the factors d*c and, accumulated, h after each step
        hs = np.empty((width + 1, idx.size))
        hs[0] = h
        np.multiply(np.divide(1.0, raw_ds, out=raw_ds), cs, out=hs[1:])
        done = np.abs(hs[1:] - 1.0) < _EPS
        hs = np.multiply.accumulate(hs, axis=0)[1:]
        hit = done.any(axis=0)
        cols = np.flatnonzero(hit)
        out[idx[cols]] = hs[done[:, cols].argmax(axis=0), cols]
        keep = ~hit
        idx, a = idx[keep], a[keep]
        b, c, d, h = bs[-1, keep], cs[-1, keep], raw_ds[-1, keep], hs[-1, keep]
        i += width
    out[idx] = h
    return out


def _lentz_steps(ans, bs, c, d, clamp):
    """an * d + b, before it is inverted into the next d, and the next
    c = b + an / c, at each step over the rows of ans and bs.  With
    clamp, a value below _TINY in magnitude is set to _TINY before it
    is used, as the modified Lentz method has it."""
    raw_ds = np.empty(ans.shape)
    cs = np.empty(ans.shape)
    for an, b, d_raw, c_next in zip(ans, bs, raw_ds, cs):
        np.multiply(an, d, out=d_raw)
        d_raw += b
        np.divide(an, c, out=c_next)
        c_next += b
        if clamp:
            d_raw[np.abs(d_raw) < _TINY] = _TINY
            c_next[np.abs(c_next) < _TINY] = _TINY
        d = 1.0 / d_raw
        c = c_next
    return raw_ds, cs
