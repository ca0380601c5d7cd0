"""Statistical distances between ensembles and reference laws.

Every Wasserstein-1 distance runs through one kernel on sorted rows,
``_w1_sorted_rows``.  It is scipy-exact: it returns the bits of
``scipy.stats.wasserstein_distance`` (scipy's ``_cdf_distance`` with p = 1)
for equal and unequal sample sizes, ties, signed zeros and nan, because
every product that reaches its final dot product is scipy's.  Sliced
distances sort each direction's projections once (Rabin, Peyre, Delon & Bernot, SSVM 2011), so a caller
that compares one cloud with many can sort it once with
``sorted_projections`` and pass the rows to ``sliced_wasserstein1_sorted``.
"""

import numpy as np

from .streams import PROJECTIONS, substream


def ks_statistic(sample, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a cdf callable."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.abs(grid - F).max(), np.abs(grid - 1.0 / n - F).max()))


def ks_two_sample(a, b):
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    allv = np.concatenate([a, b])
    ca = np.searchsorted(a, allv, side="right") / a.size
    cb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.abs(ca - cb).max())


def _w1_sorted_rows(A, B):
    """Wasserstein-1 distance between row i of A (p, n) and row i of B (p, m).

    Every row must be sorted ascending.  Per row this is scipy's
    ``_cdf_distance(1, a, b)``: the stably merged values, the CDF of each
    sample at every merged value but the last, ``np.diff`` of the merged
    values and one ``np.vecdot``.  scipy counts a sample's elements at or
    below each value (``searchsorted(..., "right")``); here the count runs
    to each merged position.  The two differ only at a value tied with the
    next one, whose delta is zero (nan for tied infinities) whatever the
    count multiplying it, so the result has scipy's bits.
    """
    n, m = A.shape[1], B.shape[1]
    if n == 0 or m == 0:
        raise ValueError("Distribution can't be empty.")
    merged = np.concatenate((A, B), axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    values = np.take_along_axis(merged, order, axis=1)
    a_count = np.cumsum(order < n, axis=1)[:, :-1]
    b_count = np.arange(1, n + m) - a_count
    deltas = np.diff(values, axis=1)
    return np.vecdot(np.abs(a_count / n - b_count / m), deltas)


def wasserstein1(a, b):
    """Exact 1-d Wasserstein-1 distance between two samples."""
    A = np.sort(np.asarray(a, dtype=float).reshape(1, -1), axis=1)
    B = np.sort(np.asarray(b, dtype=float).reshape(1, -1), axis=1)
    return float(_w1_sorted_rows(A, B)[0])


def _cloud(X):
    """``X`` as an (n, d) float array; a 1-d array is n points on the line."""
    X = np.asarray(X, dtype=float)
    return X.reshape(-1, 1) if X.ndim == 1 else np.atleast_2d(X)


def _directions(d, seed=0):
    """Unit directions to project d-dim clouds on: 1 in 1-D, else 32 seeded."""
    if d == 1:
        return np.ones((1, 1))
    dirs = substream(seed, PROJECTIONS).standard_normal((32, d))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def sorted_projections(X, seed=0):
    """Sorted 1-d projections of a cloud, one row per direction.

    A (n, 1) cloud or 1-d array gives one row, its sorted sample.  Otherwise
    each row is ``X @ u`` for one of 32 seeded unit directions u, sorted.
    """
    X = _cloud(X)
    if X.shape[1] == 1:
        return np.sort(X.T, axis=1)
    # one matrix-vector product per direction: a single X @ dirs.T may
    # round differently
    return np.sort(np.stack([X @ u for u in _directions(X.shape[1], seed)]),
                   axis=1)


def sliced_wasserstein1_sorted(PX, PY):
    """Sliced W1 between two clouds given as their ``sorted_projections``."""
    return float(np.mean(_w1_sorted_rows(PX, PY)))


def sliced_wasserstein1(X, Y, seed=0):
    """Mean 1-d Wasserstein-1 distance over 32 seeded random directions.

    For d = 1, and for two 1-d arrays, this is ``wasserstein1`` itself.
    """
    if _cloud(X).shape[1] == _cloud(Y).shape[1] == 1:
        return wasserstein1(X, Y)
    return sliced_wasserstein1_sorted(
        sorted_projections(X, seed), sorted_projections(Y, seed))


def _sq_dist_block(A, B, B_sq):
    """Squared distances |a_i - b_j|^2 as one (M, N) array, built in place.

    ``B_sq`` is ``np.sum(B * B, axis=1)``, which a caller that queries one
    cloud many times computes once.  The arithmetic is
    ``max(|a|^2 - 2 a.b + |b|^2, 0)`` in that association order, with the
    exact factor -2 applied to the small A, so the block has the bits of
    the four-temporary expression in one buffer.  Scaling A first also
    keeps ``A @ A.T`` off numpy's symmetric (syrk) product, which rounds
    differently from the general one.
    """
    d = (-2.0 * A) @ B.T
    d += np.sum(A * A, axis=1)[:, None]
    d += B_sq[None, :]
    np.maximum(d, 0.0, out=d)
    return d


_ENERGY_MAX_POINTS = 2000


def energy_distance_nd(X, Y, seed=0):
    """Energy distance between two clouds (a 1-d array is a cloud on the line).

    A cloud of more than ``_ENERGY_MAX_POINTS`` (2000) points is replaced
    by a seeded subsample of that size, which bounds the O(n^2) cost.  Each
    of the three mean distances builds one in-place block of squared
    distances (``_sq_dist_block``) and takes its square root in place, so
    the peak memory is one (2000, 2000) block.
    """
    rng = substream(seed, PROJECTIONS, 1)
    X = _cloud(X)
    Y = _cloud(Y)
    if X.shape[0] > _ENERGY_MAX_POINTS:
        X = X[rng.choice(X.shape[0], _ENERGY_MAX_POINTS, replace=False)]
    if Y.shape[0] > _ENERGY_MAX_POINTS:
        Y = Y[rng.choice(Y.shape[0], _ENERGY_MAX_POINTS, replace=False)]

    def mean_dist(A, B):
        d = _sq_dist_block(A, B, np.sum(B * B, axis=1))
        return float(np.sqrt(d, out=d).mean())

    val = 2.0 * mean_dist(X, Y) - mean_dist(X, X) - mean_dist(Y, Y)
    return float(max(val, 0.0))
