"""Regularized lower incomplete gamma function P(a, x), elementwise.

P(a, x) = gamma(a, x) / Gamma(a) is the CDF of a Gamma(shape=a, rate=1)
variable at x.  Evaluation has three regions, chosen by (a, x) alone:

- a > _TEMME_A with |x - a| < _TEMME_MU * a: Temme's uniform asymptotic
  expansion (Temme, SIAM J. Math. Anal. 10, 1979; DLMF 8.12), a fixed
  number of terms and one ``math.erfc`` and ``math.exp`` per value, as
  DiDonato & Morris (ACM TOMS 12(4), 1986) use it near x = a for large a;
- otherwise the classic split (Press et al., *Numerical Recipes* §6.2): a
  power series for x < a + 1 and a modified-Lentz continued fraction for
  the complement, the fraction's iterations skipped where P rounds to
  exactly 1.0.

Over shapes 8 to 1000 and x/a in (0.5, 2) the largest relative error
against mpmath is 4.7e-14 (``tests/test_gamma.py``; 1.4e-12 with the
series and fraction alone, from the rounding of a*ln(x) - lgamma(a) in
their prefactor at large a), and the absolute error against scipy is
below 1e-12 on a grid from a = 0.01 to 1000.

The kernel, ``_pair``, returns P(a, x) and P(a+1, x) over a table of
distinct shapes (``_shape_table``): math.lgamma, Temme's coefficients
g_n(a) = sum_k d[k][n] a^-k of eta^n (a Horner scheme in 1/a down the
zero-padded columns of _TEMME) and the Stirling factor e^-theta(a) are
taken once per shape, so that a value takes only eta, a Horner scheme
in eta and Temme's erfc and exponential.  P(a+1, x) is P(a, x) less the
pmf x^a e^-x / Gamma(a+1) (DLMF 8.8.5), from the kernel's own prefactor
(pref / a, or e^(-a eta^2/2) e^-theta(a) / sqrt(2 pi a) in Temme's
region), except in the power series' region, where x may be far below
a and that difference cancels: there it is pref times the series' own
sum of its terms past the first.

Elements get the arithmetic of the one-element algorithm in its order,
so a value does not depend on what it is evaluated with.  The power
series and the continued fraction each take one step per iteration
over all elements not yet converged, and each element takes the value
of the step its own stopping test first passes, then drops out.  A call
evaluates all its elements at once, and its callers bound its size:
the renewal series sends chunks of at most 8,192 values, and fpt-diag
at most max(8,192, grid points) values of each of its CDF columns.
``reg_lower_gamma`` broadcasts its arguments and tables their distinct
shapes.  The logs, exponentials, lgamma and erfc are the math module's,
because numpy's round differently in the last bit.

The gamma form and fpt-diag call this kernel; the exact Poisson-law form
(``cost.py``) does not.  Its shapes are whole numbers, for which P(k, x)
is the Poisson tail P(N_x >= k), and it sums those tails from a table of
Poisson pmf values, taking only Stirling's series ``_STIRLING`` (and
``_horner``) from here.
"""

import math

import numpy as np

_MAX_ITER = 20000
_EPS = 1e-16
_TINY = 1e-300
# Temme's region: shapes above _TEMME_A, with x within _TEMME_MU * a of a
_TEMME_A = 20.0
_TEMME_MU = 0.5
# d[k][n], the Taylor coefficients in eta of c_k(eta), truncated for the
# region; generated by tests/temme_coefficients.py, which derives them
# with mpmath (tests/test_gamma.py checks that they are its output)
_TEMME = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
        -5.0276692801141755e-12, 1.1004392031956135e-13, 3.371763262400985e-13,
        -1.392388722418162e-13,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
        7.1624989648114856e-12, -2.933186643771437e-12, 5.996696365683689e-13,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
        9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
        1.197593554636698e-11,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
        -9.460496661855133e-10, 2.1541049775774907e-10,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
        -2.3024517174528067e-13, -3.9409233028046403e-10,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
        4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
        4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
        6.783342904865167e-06,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
        -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
    ),
    (
        0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636,
        9.9324041226423e-07, -0.0005087450129309319, 0.00042735056665392886,
        -0.00016858853767910798,
    ),
    (
        0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276,
        0.00213896861856891,
    ),
    (
        -0.004072512119514016, 0.00640336283380807,
    ),
)
# _TEMME with its rows padded with zeros: column n holds the d[k][n] of eta^n
_TEMME_MATRIX = np.array([row + (0.0,) * (len(_TEMME[0]) - len(row)) for row in _TEMME])
# theta(a) = ln Gamma(a+1) - (a ln a - a + ln(2 pi a) / 2) = sum_m B_2m / (2m (2m-1) a^(2m-1))
# (DLMF 5.11.1); past a = _TEMME_A the terms left out are below 1e-19
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
# 1/3, 1/5, 1/7, ...: lambda - 1 - ln(lambda) = u (mu - 2 u^2 sum_j u^(2j) / (2j + 3))
# with mu = lambda - 1 and u = mu / (2 + mu); |u| <= 1/3 in the region, so
# the terms left out are below 1e-18 of the sum
_LOG_SERIES = tuple(1.0 / (2 * j + 3) for j in range(18))
# where lg - ln(x - a + 1) is below this, P = 1 - e^lg h rounds to 1.0
_P_IS_ONE = -56.0 * math.log(2.0)


def _math_map(fn, v):
    """The math-module function fn of every element of the array v."""
    return np.fromiter(map(fn, v.ravel().tolist()), np.float64, v.size).reshape(v.shape)


def _logs(x):
    """math.log of every element of the array x where x > 0 (1.0 is put
    in place of x <= 0, where the log is never read)."""
    return _math_map(math.log, np.where(x <= 0.0, 1.0, x))


def _value(out):
    """A float for a 0-d result, else the array."""
    return out if out.ndim else float(out)


def reg_lower_gamma(a, x):
    """P(a, x) for a > 0, elementwise over a and x broadcast together.

    The shape table is taken once per distinct value of a and math.log
    once per element of x, before they are broadcast, so a row of n
    shapes against a column of m points takes n log-gammas and m logs,
    and so does an (m, n) block of shapes whose rows repeat the same n."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape, x.shape)
    distinct, inverse = np.unique(a, return_inverse=True)
    si, x, logx = (
        np.broadcast_to(v, shape).ravel() for v in (inverse.reshape(a.shape), x, _logs(x))
    )
    return _value(_pair(_shape_table(distinct), si, x, logx)[0].reshape(shape))


def _shape_table(a):
    """The kernel's table of the shapes of the 1-D array a: a, lgamma(a)
    and for Temme's expansion the g_n(a) (a (terms, shapes) array),
    sqrt(a/2), 1/sqrt(2 pi a) and e^-theta(a)/sqrt(2 pi a), the last four
    taken at max(a, _TEMME_A), as they are read only above it."""
    big = np.maximum(a, _TEMME_A)
    inv = 1.0 / big
    coeffs = np.repeat(_TEMME_MATRIX[-1][:, None], a.size, axis=1)
    for row in _TEMME_MATRIX[-2::-1]:
        coeffs *= inv
        coeffs += row[:, None]
    norm = 1.0 / np.sqrt(2.0 * math.pi * big)
    stirling = _math_map(math.exp, -(inv * _horner(_STIRLING, inv * inv))) * norm
    return a, _math_map(math.lgamma, a), coeffs, np.sqrt(0.5 * big), norm, stirling


def _pair(shapes, si, x, logx):
    """(P(a, x), P(a+1, x)) for a = shapes[0][si], elementwise over the
    1-D arrays si (indices into the table ``shapes`` of _shape_table), x
    and logx, the math.log of x (any value where x <= 0)."""
    a = shapes[0][si]
    # log prefactor x^a e^-x / Gamma(a); P = 0 where x <= 0.  Where e^lg
    # underflows to 0.0, the series gives 0.0, the fraction's P rounds to
    # 1.0 and Temme's expansion clips to 0.0 or 1.0
    lg = a * logx - x - shapes[1][si]
    p, p1 = np.zeros((2, a.size))
    live = ~(x <= 0.0)
    temme = live & (a > _TEMME_A) & (np.abs(x - a) < _TEMME_MU * a)
    if temme.any():
        q, pmf = _temme(shapes, si[temme], x[temme])
        p[temme] = q = _clip(q)
        p1[temme] = _clip(q - pmf)
        live &= ~temme
    live = np.flatnonzero(live)
    a, x, lg = a[live], x[live], lg[live]
    pref = _math_map(math.exp, lg)
    q, q1 = np.empty(live.size), np.empty(live.size)
    series = x < a + 1.0
    if series.any():
        # P(a,x) = pref * sum_k x^k / (a (a+1) ... (a+k)), and P(a+1,x) the
        # same sum from k = 1
        total, rest = _series(a[series], x[series])
        q[series] = np.minimum(pref[series] * total, 1.0)
        q1[series] = np.minimum(pref[series] * rest, 1.0)
    fraction = ~series
    # Q = pref * h with h = int_0^inf (1 + s)^(a-1) e^(-x s) ds, which is
    # below 1/(x - a + 1) for a >= 1 and at most 1/x < 2/(x - a + 1) for
    # a < 1.  So where lg - ln(x - a + 1) < _P_IS_ONE, Q < 2^-55 and
    # 1 - Q rounds to 1.0 (as any Q < 2^-54 does): the iterations are
    # skipped there, with a factor 2 to spare for the roundings of pref
    # and h
    one = fraction & (lg - np.log(np.where(fraction, x - a + 1.0, 1.0)) < _P_IS_ONE)
    q[one] = 1.0
    h = fraction & ~one
    if h.any():
        # continued fraction for Q(a,x)
        q[h] = _clip(1.0 - pref[h] * _fraction(a[h], x[h]))
    q1[fraction] = _clip(q[fraction] - pref[fraction] / a[fraction])
    p[live], p1[live] = q, q1
    return p, p1


def _clip(p):
    """p with values below 0 set to 0 and above 1 set to 1."""
    return np.where(p < 0.0, 0.0, np.where(p > 1.0, 1.0, p))


def _horner(coeffs, v):
    """sum_j coeffs[j] v^j, by Horner's scheme from the last coefficient."""
    out = np.full(v.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= v
        out += c
    return out


def _temme(shapes, si, x):
    """P(a, x) and the pmf x^a e^-x / Gamma(a+1), a = shapes[0][si], from
    Temme's expansion (DLMF 8.12.3, 8.12.4): with lambda = x / a and
    (1/2) eta^2 = lambda - 1 - ln(lambda), eta of the sign of lambda - 1,

        P = erfc(-eta sqrt(a/2)) / 2 - R,
        R = e^(-a eta^2 / 2) / sqrt(2 pi a) * sum_n g_n(a) eta^n,

    and the pmf e^(-a eta^2 / 2) / sqrt(2 pi a) * e^-theta(a)."""
    a = shapes[0][si]
    mu = (x - a) / a
    u = mu / (2.0 + mu)
    w = u * u
    # lambda - 1 - ln(lambda), with no difference of nearly equal terms
    f = u * (mu - 2.0 * w * _horner(_LOG_SERIES, w))
    eta = np.copysign(np.sqrt(f + f), mu)
    coeffs = shapes[2]
    total = coeffs[-1][si]
    for row in coeffs[-2::-1]:
        total *= eta
        total += row[si]
    e = _math_map(math.exp, -a * f)
    p = 0.5 * _math_map(math.erfc, -(eta * shapes[3][si])) - e * shapes[4][si] * total
    return p, e * shapes[5][si]


def _series(a, x):
    """sum_k x^k / (a (a+1) ... (a+k)) and the same sum from k = 1, one
    step at a time over the elements still pending: ap += 1,
    term *= x / ap, total += term and rest += term.  An element keeps the
    sums of its first step with term < total * _EPS (every term is
    positive, so this is the test |term| < |total| * _EPS) and drops out."""
    out = np.empty((2, a.size))
    idx = np.arange(a.size)
    ap = a.copy()
    term = 1.0 / a
    total = term.copy()
    rest = np.zeros(a.size)
    for _ in range(_MAX_ITER):
        if not idx.size:
            break
        ap += 1.0
        term *= x / ap
        total += term
        rest += term
        hit = term < total * _EPS
        if hit.any():
            out[:, idx[hit]] = total[hit], rest[hit]
            keep = ~hit
            idx, x, ap, term, total, rest = (v[keep] for v in (idx, x, ap, term, total, rest))
    out[:, idx] = total, rest
    return out


def _fraction(a, x):
    """The modified-Lentz continued fraction h with Q(a, x) = pref * h, one
    step at a time over the elements still pending: an = -i (i - a), b += 2,
    d = an d + b and c = b + an / c (each set to _TINY where it is below it
    in magnitude), d = 1 / d, delta = d c and h *= delta.  An element keeps
    the h of its first step with |delta - 1| < _EPS and drops out."""
    out = np.empty(a.size)
    idx = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.size, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        if not idx.size:
            break
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        hit = np.abs(delta - 1.0) < _EPS
        if hit.any():
            out[idx[hit]] = h[hit]
            keep = ~hit
            idx, a, b, c, d, h = (v[keep] for v in (idx, a, b, c, d, h))
    out[idx] = h
    return out
