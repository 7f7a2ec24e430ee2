"""Coefficients of Temme's uniform expansion of the incomplete gamma ratio.

For a > 0 and lambda = x / a, with (1/2) eta^2 = lambda - 1 - ln(lambda)
and eta of the sign of lambda - 1 (Temme, SIAM J. Math. Anal. 10, 1979;
DLMF 8.12):

    Q(a, x) = (1/2) erfc(eta sqrt(a/2)) + R_a(eta),
    R_a(eta) ~ exp(-a eta^2 / 2) / sqrt(2 pi a) * sum_k c_k(eta) / a^k,

with c_0(eta) = 1/(lambda - 1) - 1/eta and
c_k(eta) = (1/eta) c_{k-1}'(eta) + (-1)^k g_k / (lambda - 1) (DLMF 8.12.8),
g_k the coefficients of Stirling's series for Gamma(a) (DLMF 5.11.3).
This module derives the Taylor coefficients d[k][n] of c_k(eta) in eta
with mpmath, as power series at 60 significant digits, and truncates the
table for the region in which ``driftinv.gammainc`` uses it: shapes
a > _TEMME_A and |x/a - 1| < _TEMME_MU.  The table it prints is the
literal ``driftinv.gammainc._TEMME``; ``tests/test_gamma.py`` regenerates
it and checks that the two are equal.

    PYTHONPATH=src python tests/temme_coefficients.py
"""

import mpmath

from driftinv import gammainc

DIGITS = 60
# a truncated coefficient or row changes sum_k c_k(eta) / a^k by less
# than this anywhere in the region; the sum is about 1/3 there
TOLERANCE = mpmath.mpf("1e-18")
# rows and terms derived before truncation: more than any region here keeps
ROWS = 24
TERMS = 60


def lambda_series(n):
    """b_0..b_n of lambda - 1 = sum_m b_m eta^m, from the derivative of
    (1/2) eta^2 = lambda - 1 - ln(lambda): (lambda - 1) lambda' = eta lambda."""
    b = [mpmath.mpf(0), mpmath.mpf(1)]
    for m in range(2, n + 1):
        s = b[m - 1] - sum((m + 1 - i) * b[i] * b[m + 1 - i] for i in range(2, m))
        b.append(s / (m + 1))
    return b


def reciprocal(s, n):
    """The first n coefficients of 1 / s, for a series s with s[0] != 0."""
    out = [1 / s[0]]
    for m in range(1, n):
        out.append(-sum(s[j] * out[m - j] for j in range(1, min(m, len(s) - 1) + 1)) / s[0])
    return out


def stirling(k):
    """g_0..g_k of Gamma(a) ~ sqrt(2 pi / a) (a/e)^a sum_j g_j a^-j, the
    exponential of the series sum_m B_2m / (2m (2m-1) a^(2m-1))."""
    log = [mpmath.mpf(0)] * (k + 1)
    for m in range(1, (k + 1) // 2 + 1):
        log[2 * m - 1] = mpmath.bernoulli(2 * m) / (2 * m * (2 * m - 1))
    g = [mpmath.mpf(1)]
    for n in range(1, k + 1):
        g.append(sum(j * log[j] * g[n - j] for j in range(1, n + 1)) / n)
    return g


def coefficients(rows=ROWS, terms=TERMS):
    """d[k][n] for k < rows and n < terms, as mpmath numbers."""
    with mpmath.workdps(DIGITS):
        length = terms + 2 * rows + 2
        # eta / (lambda - 1), from (lambda - 1) / eta = b_1 + b_2 eta + ...
        inverse = reciprocal(lambda_series(length + 1)[1:], length)
        g = stirling(rows)
        c = inverse[1:]  # c_0 = (eta / (lambda - 1) - 1) / eta
        table = [c[:terms]]
        for k in range(1, rows):
            # eta * c_k = c_{k-1}' + (-1)^k g_k eta / (lambda - 1); its
            # constant term is 0, because c_k is regular at eta = 0
            shifted = [
                (n + 1) * c[n + 1] + (-1) ** k * g[k] * inverse[n] for n in range(len(c) - 1)
            ]
            if abs(shifted[0]) > mpmath.mpf(10) ** (10 - DIGITS):
                raise ArithmeticError(f"c_{k} is not regular at eta = 0: {shifted[0]}")
            c = shifted[1:]
            table.append(c[:terms])
        return table


def eta_bound(mu):
    """The largest |eta| over |lambda - 1| <= mu."""
    with mpmath.workdps(DIGITS):
        return max(
            mpmath.sqrt(2 * (lam - 1 - mpmath.log(lam)))
            for lam in (1 - mpmath.mpf(mu), 1 + mpmath.mpf(mu))
        )


def table(a_min=gammainc._TEMME_A, mu=gammainc._TEMME_MU):
    """The truncated table as a tuple of rows of floats.  Row k keeps its
    first terms up to the last whose tail sum_n |d[k][n]| eta^n / a^k,
    over the region's largest |eta| and smallest a, reaches TOLERANCE,
    and no fewer than any later row keeps (``gammainc._temme`` steps the
    rows together from the last term of the longest).  The rows stop at
    the first whose whole sum is below TOLERANCE."""
    d = coefficients()
    with mpmath.workdps(DIGITS):
        eta = eta_bound(mu)
        lengths = []
        for k, row in enumerate(d):
            weights = [abs(v) * eta**n / mpmath.mpf(a_min) ** k for n, v in enumerate(row)]
            if sum(weights) < TOLERANCE:
                break
            terms = len(row)
            while terms > 1 and sum(weights[terms - 1 :]) < TOLERANCE:
                terms -= 1
            if terms == len(row):
                raise ArithmeticError(f"row {k} needs more than {len(row)} terms")
            lengths.append(terms)
        else:
            raise ArithmeticError(f"more than {len(d)} rows are needed")
        return tuple(
            tuple(float(v) for v in row[: max(lengths[k:])])
            for k, row in enumerate(d[: len(lengths)])
        )


def literal(rows):
    """The table as Python source, three values to a line."""
    out = ["("]
    for row in rows:
        out.append("    (")
        for i in range(0, len(row), 3):
            out.append("        " + " ".join(f"{v!r}," for v in row[i : i + 3]))
        out.append("    ),")
    return "\n".join(out + [")"])


if __name__ == "__main__":
    print(literal(table()))
