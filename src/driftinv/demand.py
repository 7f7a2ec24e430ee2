"""Cumulative-demand process: linear drift plus Poisson-timed jumps.

A path is drift mu*t plus alpha per jump, with jump times sampled
exactly from exponential inter-arrivals (no time discretization).
Paths are immutable and fully determined by (params, horizon, seed).

Seeding contract.  A batch keyed ``s`` is cut into chunks of
``CHUNK_PATHS`` paths; round r of chunk c draws ``ROUND_GAPS``
exponential gaps for each of the chunk's paths, row by row, from the
PCG64 stream of ``numpy.random.SeedSequence(s, spawn_key=(c, r))`` (the
(c, r) grandchild of the root sequence s).  A path's jump times are the
running sum of its gaps over the rounds, so path i depends only on
(lam, s, i):

- in paths, a batch is prefix-consistent: path i of an n-path batch is
  path i of every larger batch with the same key;
- in time, a shorter horizon keeps exactly the jumps of a longer one
  that fall before it, so one batch sampled to the longest horizon
  serves every shorter one (``mc.batch_stats`` walks it once for all);
- ``sample_path(params, h, s)`` is path 0 of the batch keyed s.

The two sizes are part of the contract: changing either changes every
path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .params import ProcessParams

# Most jump times one sampling call may ask for, counted as the expected
# n_paths * lam * horizon: 2**25 float64 times are 256 MiB, and packing a
# batch briefly holds them twice.
JUMP_BUDGET = 2**25

# Segments per chunk in ``path_segments``: the vectorised kernels hold
# about twenty temporaries of this length at once, so their memory does
# not grow with the batch.  At 4096 a 2000-path command peaks no higher
# than the per-event loops did, where 8192 added about 1 MB.
CHUNK_SEGMENTS = 4096

# Paths per chunk and gaps per path per round of ``batch_jump_times``
# (see the seeding contract above).  A round of a chunk holds 128 * 64
# float64 gaps (64 KiB), so sampling adds well under 1 MB to a command's
# peak memory; 64 gaps cover most paths of the shipped commands (lam *
# horizon from 10 to about 200) in one to four rounds.
CHUNK_PATHS = 128
ROUND_GAPS = 64


# Half-width of the band around each integer, as a share of
# max(max x, 0) + 2a/Q + 1, in which ``first_true_near_ties`` runs the
# exact predicates (its docstring derives it).
TIE_BAND = 2.0**-46


def check_budget(count, message, **fields):
    """``count``, or a ParameterError when it is more than JUMP_BUDGET or
    is not a number: ``message`` formatted with ``count``, ``budget`` (the
    budget) and ``fields``.  Every count of work or memory that a config
    can drive is checked here before it is spent."""
    if not count <= JUMP_BUDGET:
        raise ParameterError(message.format(count=count, budget=JUMP_BUDGET, **fields))
    return count


def _largest_guess(x):
    """max(x), or a ParameterError when a guess is past the count budget
    (or nan), before an int64 cast would wrap it."""
    return check_budget(
        float(np.max(x, initial=-np.inf)),
        "a count of about {count:.3g} jumps or orders is more than the budget of "
        "{budget}; use a larger jump size alpha or order quantity Q",
    )


def first_true(pred, x):
    """Smallest k >= 0 with pred(k), elementwise, for pred monotone in k:
    start at floor(x) + 1, which only a rounding can put off, and step to
    it.  Counts of thresholds or jumps that demand reaches; a guess past
    ``JUMP_BUDGET`` is a ParameterError."""
    _largest_guess(x)
    k = np.maximum(np.floor(x) + 1.0, 0.0).astype(np.int64)
    while True:
        up = ~pred(k)
        if not up.any():
            break
        k += up
    while True:
        down = (k > 0) & pred(k - 1)
        if not down.any():
            break
        k -= down
    return k


def first_true_near_ties(pred, x, a_over_q):
    """``first_true`` for counts of the thresholds a + Q*k that a level
    v >= 0 exceeds, which runs the predicates only near a tie: pred(k, i)
    is the predicate on the elements i.

    Here x = (v - a)/Q and pred(k) compares a + Q*k (less a float s >= 0,
    over mu > 0) with v (as t = v/mu), each side in at most four roundings
    of unit u = 2**-53.  With y the exact (v - a)/Q, x is off by under
    9u(|y| + a/Q), and pred(k) is the exact k > y unless |k - y| is under
    8u(|k| + |y| + a/Q).  At k = floor(x) and floor(x) + 1 the two sum to
    under 25u(|x| + a/Q + 1).  Since v >= 0, x >= -a/Q (to a rounding),
    so the band TIE_BAND*(max(max x, 0) + 2a/Q + 1) is at least
    128u(max|x| + a/Q + 1), five times that sum.  So where x lies outside
    the band around every integer, pred is false at floor(x) and true at
    floor(x) + 1, which (at least 0) is the count.  The fraction x -
    floor(x) that the test reads is exact for x >= 0.  Only the elements
    inside the band, which lattice configs fill with exact ties, take
    ``first_true``'s exact search.
    """
    top = _largest_guess(x)
    below = np.floor(x)
    k = np.maximum(below + 1.0, 0.0).astype(np.int64)
    band = TIE_BAND * (max(top, 0.0) + 2.0 * a_over_q + 1.0)
    near = np.flatnonzero(np.abs(x - below - 0.5) >= 0.5 - band)
    if near.size:
        k[near] = first_true(lambda kn: pred(kn, near), x[near])
    return k


@dataclass(frozen=True)
class SamplePath:
    """One realization of the demand process on [0, horizon); ``seed`` is
    the key of the batch it was drawn from."""

    params: ProcessParams
    jump_times: np.ndarray
    horizon: float
    seed: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        jt = np.asarray(self.jump_times, dtype=np.float64)
        object.__setattr__(self, "jump_times", jt)
        if jt.size:
            if np.any(np.diff(jt) <= 0):
                raise ParameterError("jump times must be strictly increasing")
            if jt[0] < 0 or jt[-1] >= self.horizon:
                raise ParameterError("jump times must lie in [0, horizon)")


def sample_path(params: ProcessParams, horizon: float, seed: int) -> SamplePath:
    """Sample one path: path 0 of the batch keyed ``seed``, so it is
    bit-reproducible for identical (params, horizon, seed)."""
    flat, _ = batch_jump_times(params, horizon, seed, 1)
    return SamplePath(params=params, jump_times=flat, horizon=horizon, seed=seed)


def _chunk_jump_times(params, horizon, key, chunk, n, level):
    """Jump times before ``horizon`` of the first n paths of one chunk,
    packed flat, and the count of each path.

    With a ``level``, a path keeps its jumps only through the first one,
    tau_j, at which demand reaches the level: max(tau_j, (level - s_j)/mu)
    == tau_j, with s_j the demand of j jumps summed as ``path_segments``
    sums it.  Every later segment starts after tau_j, so first passages
    to the level or below are those of the whole path, and no round is
    drawn once every path of the chunk has such a jump."""
    rounds = []
    # with a level, the last column each path keeps: its first jump at the
    # level, or ``uncut`` until it has one
    uncut = np.iinfo(np.int64).max
    last_kept = np.full(n, uncut)
    last = np.zeros(n)
    while np.any((last < horizon) & (last_kept == uncut)):
        seq = np.random.SeedSequence(key, spawn_key=(chunk, len(rounds)))
        times = np.random.default_rng(seq).exponential(1.0 / params.lam, size=(n, ROUND_GAPS))
        times[:, 0] += last
        np.cumsum(times, axis=1, out=times)
        last = times[:, -1]
        if level is not None:
            s = np.cumsum(np.full(ROUND_GAPS * (len(rounds) + 1), params.alpha))[-ROUND_GAPS:]
            # demand after each jump rises along a path, so the jumps that
            # fall short of the level, max(tau_j, (level - s_j)/mu) > tau_j,
            # come first, and the first that does not is at the level
            short = times < (level - s) / params.mu
            first = ROUND_GAPS * len(rounds) + short.argmin(axis=1)
            np.minimum(last_kept, np.where(short[:, -1], uncut, first), out=last_kept)
        rounds.append(times)
    times = np.concatenate(rounds, axis=1)
    keep = times < horizon
    if level is not None:
        keep &= np.arange(times.shape[1]) <= last_kept[:, None]
    return times[keep], np.count_nonzero(keep, axis=1)


def batch_jump_times(
    params: ProcessParams, horizon: float, base_seed: int, n_paths: int, level=None
):
    """Jump times of paths 0 .. n_paths - 1 of the batch keyed ``base_seed``
    (see the seeding contract in the module docstring), packed flat.

    Returns (flat, offsets) with path i occupying flat[offsets[i]:offsets[i+1]].
    With a ``level``, each path stops at its first jump at which demand
    reaches it (see ``_chunk_jump_times``): a prefix of the path that
    gives the same first passages to every level up to ``level``.
    """
    if not horizon > 0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    check_budget(
        n_paths * params.lam * horizon,
        "{n_paths} paths at jump rate {lam:g} to horizon {horizon:g} need about "
        "{count:.3g} jump times, more than the budget of {budget}; "
        "use fewer paths or a shorter horizon",
        n_paths=n_paths, lam=params.lam, horizon=horizon,
    )
    pieces = []
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    for chunk, p0 in enumerate(range(0, n_paths, CHUNK_PATHS)):
        p1 = min(p0 + CHUNK_PATHS, n_paths)
        times, counts = _chunk_jump_times(params, horizon, base_seed, chunk, p1 - p0, level)
        pieces.append(times)
        offsets[p0 + 1 : p1 + 1] = counts
    np.cumsum(offsets, out=offsets)
    return np.concatenate(pieces), offsets


@dataclass(frozen=True)
class Segments:
    """Paths ``first``, ``first + 1``, ... of a packed batch, cut at their jumps.

    Path p (numbered from 0 within the chunk) owns segments
    ``start[p]`` to ``last[p]``: one ending at each of its jumps, then one
    ending at the horizon.  Segment s of path ``path[s]`` runs from
    ``t_start[s]`` (the jump before it, or 0.0) to ``t_end[s]`` with jump
    demand ``s_before[s]`` = alpha*(jumps so far), summed one jump at a time
    as a walk along the path sums it; ``s_before + alpha`` is the demand
    after its jump.  Demand is monotone, so it first reaches a level L at
    the minimum over a path's segments of max(t_start, (L - s_before)/mu).
    """

    first: int
    path: np.ndarray
    start: np.ndarray
    last: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    s_before: np.ndarray


def path_segments(flat, offsets, alpha: float, horizon: float):
    """Yield the ``Segments`` of a packed batch, whole paths at a time and
    at most ``CHUNK_SEGMENTS`` segments per chunk unless one path has more."""
    n_paths = offsets.shape[0] - 1
    counts = np.diff(offsets)
    # sums[k]: k jumps of alpha added in sequence
    sums = np.concatenate(([0.0], np.cumsum(np.full(int(counts.max(initial=0)), alpha))))
    through = offsets[1:] + np.arange(1, n_paths + 1)  # segments of paths 0..p
    p0 = 0
    while p0 < n_paths:
        done = int(through[p0 - 1]) if p0 else 0
        p1 = max(int(np.searchsorted(through, done + CHUNK_SEGMENTS, side="right")), p0 + 1)
        m = counts[p0:p1]
        start = offsets[p0:p1] - offsets[p0] + np.arange(p1 - p0)
        last = start + m
        path = np.repeat(np.arange(p1 - p0), m + 1)
        local = np.arange(int(through[p1 - 1]) - done) - start[path]
        is_jump = np.ones(local.size, dtype=bool)
        is_jump[last] = False
        t_end = np.empty(local.size)
        t_end[is_jump] = flat[offsets[p0] : offsets[p1]]
        t_end[last] = horizon
        t_start = np.concatenate(([0.0], t_end[:-1]))
        t_start[start] = 0.0
        yield Segments(p0, path, start, last, t_start, t_end, sums[local])
        p0 = p1


def period_increments(params: ProcessParams, flat, offsets, period: float, n_periods: int):
    """Demand of every path of a packed batch in each whole period, as an
    (n_paths, n_periods) array: column k - 1 is the demand over
    ((k-1)*period, k*period], so a jump exactly on a bound counts in the
    period it ends.  Jumps at 0 or past the last bound fall in no period."""
    if not period > 0:
        raise ParameterError(f"period must be positive, got {period}")
    n_paths = offsets.shape[0] - 1
    width = n_periods + 2  # period k of a path is column k; 0 and n + 1 are dropped
    bounds = period * np.arange(n_periods + 1)
    k = np.searchsorted(bounds, flat, side="left")
    path = np.repeat(np.arange(n_paths), np.diff(offsets))
    counts = np.bincount(path * width + k, minlength=n_paths * width)
    counts = counts.reshape(n_paths, width)[:, 1 : n_periods + 1]
    return params.mu * period + params.alpha * counts
