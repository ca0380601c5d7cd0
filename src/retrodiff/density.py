"""Density and score estimation from particle clouds.

Kernel density estimation with a Gaussian product kernel and a diagonal
(per-dimension) bandwidth.  All kernel sums run through log-sum-exp, so
densities never overflow, and a query below the density floor 1e-300 * N
is a "vacuum" row: log density -inf and a NaN score, not a silent zero
with a meaningless gradient.  Fields are immutable snapshots;
concurrent queries are safe (see :class:`KdeField`).
"""

import functools
import math

import numpy as np

from .metrics import _sq_dist_block

_LOG_FLOOR = math.log(1e-300)
# Query rows per block of the exact evaluation; bounds its (rows, N) block.
# The size is also part of the bits: OpenBLAS's (rows, N) @ (N, d) product
# ``w @ positions`` rounds differently for different row counts (of the row
# blocks 1 to 511, only 256 reproduced the 512-row result), so changing it
# moves every seeded kernel-drift output.
_CHUNK = 512
# Most points of the 2-D binned evaluation's tensor grid; a larger grid
# takes the exact path.  Near the cap (238 x 241 points) one evaluation at
# n = 2000 took 7 ms against 34 ms exact.  Three dimensions stay exact: the
# h/4 grid of a 2000-point 3-D cloud (123^3 points) took 0.4 s in its FFTs
# alone, against 45 ms exact.
_GRID_POINTS_2D = 1 << 16


def _cloud_std(ens):
    X = ens.positions if hasattr(ens, "positions") else np.atleast_2d(ens)
    n, d = X.shape
    if n < 2:
        raise ValueError("bandwidth needs at least two particles")
    std = X.std(axis=0, ddof=1)
    if (std <= 0).any():
        raise ValueError("degenerate cloud: zero variance in a coordinate")
    return std, n, d


def silverman_bandwidth(ens):
    """Per-dimension Silverman rule h_i = std_i * (4 / ((d+2) n))^(1/(d+4))."""
    std, n, d = _cloud_std(ens)
    return std * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


def score_bandwidth(ens):
    """Gradient-rate analog of Silverman's rule, h_i ~ n^(-1/(d+6)).

    Density-optimal bandwidths undersmooth derivatives; this wider choice
    trades a small O(h^2) score bias for the variance reduction that makes
    pointwise score estimates usable.
    """
    std, n, d = _cloud_std(ens)
    return std * (4.0 / ((d + 4) * n)) ** (1.0 / (d + 6))


def _checked_bandwidth(bandwidth, d):
    """The bandwidth broadcast to d entries, each positive and finite."""
    h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (d,))
    if not ((h > 0) & (h < math.inf)).all():
        raise ValueError(f"bandwidth {h} must be positive and finite")
    return h


class KdeField:
    """Gaussian-kernel estimate over a particle cloud.

    A field is built with the cloud, its bandwidth and the kernel's log
    normalisation only.  What a single evaluator reads is built on that
    evaluator's first call and kept: the exact sums' copy of the cloud in
    bandwidth units (``_scaled_cloud``) and the 2-D binned path's tensor
    grid (``_tensor_grid``).  The 1-D binned path keeps nothing.  Both are
    ``functools.cached_property`` values computed from the cloud and the
    bandwidth alone, so threads that race on a first call compute the same
    bits, and whichever copy is stored gives every query the same answer:
    concurrent queries are safe.
    """

    def __init__(self, positions, bandwidth):
        X = np.atleast_2d(np.asarray(positions, dtype=float))
        h = _checked_bandwidth(bandwidth, X.shape[1])
        self.positions = X
        self.bandwidth = h.copy()
        self._log_norm = -math.log(X.shape[0]) - float(
            np.sum(np.log(h * math.sqrt(2.0 * math.pi)))
        )

    @property
    def n(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]

    @functools.cached_property
    def _scaled_cloud(self):
        # the exact sums' sources in bandwidth units and their squared norms
        scaled = self.positions / self.bandwidth
        return scaled, np.sum(scaled * scaled, axis=1)

    def _log_weights(self, xs):
        # (M, N) kernel log-weights for query rows xs: one squared-distance
        # block, scaled in place
        lw = _sq_dist_block(xs / self.bandwidth, *self._scaled_cloud)
        lw *= -0.5
        return lw

    def _queries(self, x, exclude_self):
        # query rows of x; leaving each particle's own kernel out needs the
        # queries to be the source cloud, so at least its shape must match
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        if exclude_self and xs.shape != self.positions.shape:
            raise ValueError("exclude_self requires querying the source cloud")
        return xs

    def log_density_and_score(self, x, exclude_self=False):
        """Log density and score rows for queries x; vacuum rows are -inf, NaN.

        With ``exclude_self`` the queries must be the source cloud itself
        and each particle's own kernel is left out (cross-validated form);
        this is what the self-consistent reversal loop uses, because a
        particle's self-kernel otherwise swamps its own score in the tails
        and isolated particles stop feeling the pull of the bulk.
        """
        single = np.ndim(x) == 1
        xs = self._queries(x, exclude_self)
        M = xs.shape[0]
        logp = np.empty(M)
        score = np.empty_like(xs)
        h2 = self.bandwidth**2
        floor = _LOG_FLOOR + math.log(self.n)
        for a in range(0, M, _CHUNK):
            b = min(a + _CHUNK, M)
            q = xs[a:b]
            lw = self._log_weights(q)
            if exclude_self:
                lw[np.arange(b - a), np.arange(a, b)] = -np.inf
            m = lw.max(axis=1)
            m_safe = np.where(np.isfinite(m), m, 0.0)  # fully isolated rows
            lw -= m_safe[:, None]
            w = np.exp(lw, out=lw)
            s = w.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                logp[a:b] = m_safe + np.log(s) + self._log_norm
                # sum_n w_n (X_n - q) = (w @ X) - s q: no (M, N, d) temporary
                score[a:b] = ((w @ self.positions) / s[:, None] - q) / h2[None, :]
            # free the block before the next chunk builds its own
            del lw, w
        vac = ~(logp >= floor)
        score[vac] = np.nan
        logp[vac] = -np.inf
        if single:
            return logp[0], score[0]
        return logp, score

    def log_density_and_score_at_sources(self):
        """Log density and score at every source, its own kernel left out.

        Clouds of 256 or more sources take a binned FFT evaluation when one
        exists: in one dimension always, in two when ``_tensor_grid`` (a
        cell of at most h/4 over the cloud and 8h margins) has at most
        ``_GRID_POINTS_2D`` points.  All others, and every cloud in three or
        more dimensions, take the exact pairwise sums.
        """
        X = self.positions
        if self.n >= 256 and self.dim == 1:
            return self.binned_log_density_and_score(X, exclude_self=True)
        if self.n >= 256 and self.dim == 2 and self._tensor_grid is not None:
            return self._binned_2d(X, exclude_self=True)
        return self.log_density_and_score(X, exclude_self=True)

    def binned_log_density_and_score(self, x, exclude_self=False):
        """FFT-convolution evaluation on a uniform grid (d = 1 only).

        Sources are linearly binned, the kernel and its derivative are
        applied by FFT convolution, and queries are linearly interpolated:
        each query's cell is found by index on the uniform grid, not by a
        search, and is shared by the density and the gradient, and each
        grid gets one table of per-cell slopes, so a query costs a gather
        of its slope and of its cell's value.  The interpolation is
        ``np.interp``'s arithmetic, so the values have its bits (see
        ``_interp_uniform``).
        The grid starts at 4096 points and doubles, up to 2^20, until a
        cell is at most a quarter bandwidth.  The error against the exact evaluation is
        about 1e-5 at the particles (relative density and absolute score
        errors of 1-4e-5 on bimodal clouds of 500 and 5000 points) and
        grows away from them: a few bandwidths past the cloud the relative
        density error reaches 1-2e-4 and the score error 4e-4.  Both are
        far below the estimator's statistical error, and the reversal loop
        queries the particles only.  Cost is O(G log G + N) instead of
        O(N M), which is what makes kernel drifts affordable inside the
        reversal loop.  Semantics (floor, exclude_self) match the exact
        evaluation: ``exclude_self`` with queries that are not the source
        cloud raises ``ValueError``.
        """
        if self.dim != 1:
            raise ValueError("binned evaluation is one-dimensional only")
        single = np.ndim(x) == 1
        xs = self._queries(x, exclude_self)[:, 0]
        src = self.positions[:, 0]
        h = float(self.bandwidth[0])
        lo, hi = src.min() - 8.0 * h, src.max() + 8.0 * h
        G = 4096
        while (hi - lo) / (G - 1) > h / 4.0 and G < (1 << 20):
            G *= 2  # keep the kernel resolved even for stretched clouds
        dg = (hi - lo) / (G - 1)
        pos = (src - lo) / dg
        i0 = pos.astype(np.intp)  # the floor, since pos > 0
        w1 = pos - i0
        rho = (
            np.bincount(i0, weights=1.0 - w1, minlength=G + 1)
            + np.bincount(i0 + 1, weights=w1, minlength=G + 1)
        )[:G] / (self.n * dg)
        m = int(np.ceil(8.0 * h / dg))
        u = np.arange(-m, m + 1) * dg
        K = np.exp(-0.5 * (u / h) ** 2) / (h * math.sqrt(2.0 * math.pi))
        n_fft = 1 << int(np.ceil(np.log2(G + 2 * m + 1)))
        spec = np.fft.rfft(rho, n_fft)

        def conv(kernel):
            # keep the kernel's transform a temporary: from 256 KiB on,
            # numpy multiplies into it in place as ``kk * spec``, and the
            # complex product's rounding depends on the operand order
            kk = _centred(kernel, n_fft)
            return np.fft.irfft(spec * np.fft.rfft(kk), n_fft)[:G] * dg

        dens_g = np.maximum(conv(K), 0.0)
        grad_g = conv(-(u / h**2) * K)
        grid = lo + dg * np.arange(G)
        inside = (xs >= lo) & (xs <= hi)
        if not inside.all():
            xs = np.where(inside, xs, lo)
        dens, grad = _interp_uniform(xs, grid, dg, (dens_g, grad_g))
        k_self = (1.0 / (self.n * h * math.sqrt(2.0 * math.pi))
                  if exclude_self else None)
        logp, score = self._binned_finish(inside, dens, grad[:, None], k_self)
        if single:
            return logp[0], score[0]
        return logp, score

    @functools.cached_property
    def _tensor_grid(self):
        """Start, cell and point count per axis of the 2-D binned grid.

        The grid covers [min - 8h, max + 8h] on each axis with a cell of at
        most h/4, and two points more than it make an FFT length with no
        prime factor above 5.  None when it would have more than
        ``_GRID_POINTS_2D`` points.  Computed once per field, for the
        dispatch in ``log_density_and_score_at_sources`` and the evaluation
        alike.
        """
        h = self.bandwidth
        lo = self.positions.min(axis=0) - 8.0 * h
        span = self.positions.max(axis=0) + 8.0 * h - lo
        G = np.array([_fft_length(c + 3) - 2
                      for c in np.ceil(span / (h / 4.0)).astype(int)])
        if np.prod(G) > _GRID_POINTS_2D:
            return None
        return lo, span / (G - 1), G

    def _binned_2d(self, x, exclude_self=False):
        """FFT-convolution evaluation on a 2-D tensor grid (rows of x).

        The sources are binned bilinearly on ``_tensor_grid``'s grid, which
        must exist.  The binned density takes one ``rfftn``.  The product
        kernel's spectrum is the outer product of 1-D transforms (``fft`` on
        axis 0, ``rfft`` on axis 1), so one ``irfftn`` each gives the
        density and the two gradient components on the grid, which the
        queries interpolate bilinearly.  The grid's 8h margins are the
        convolution's zero padding: every source lies at least m - 1 cells
        inside them, m the kernel's half-width in cells, so with a period of
        two points more than the grid no kernel wraps onto a grid point.
        Queries off the grid are vacuum; the floor and ``exclude_self``
        (which raises ``ValueError`` unless the queries are the source
        cloud) are those of the 1-D path.

        The kernel is narrowed by the variance dg^2 / 3 that bilinear
        binning and interpolation add on average.

        On bimodal clouds of 2000 and 20 000 points with h = 0.5 std and
        :func:`score_bandwidth`, queried at the particles with the
        self-kernel left out, where the density is above 1e-3 of its
        maximum, the relative density error against the exact evaluation
        had a median of 4-8e-4 and a 99th percentile of at most 4.3e-3, and
        the score error, relative to the mean score norm, a median of
        0.8-1.7e-3 and a 99th percentile of at most 8.3e-3 (about five
        times more with the unnarrowed kernel).  Cost is O(G log G + N) for
        G grid points instead of O(N M): 3.5 ms at N = 2000 against 35-58 ms
        for the exact sums.
        """
        grid = self._tensor_grid
        if grid is None:
            raise ValueError("2-D binned grid exceeds its point cap")
        lo, dg, G = grid
        h = self.bandwidth
        xs = self._queries(x, exclude_self)
        pos = (self.positions - lo) / dg
        i = np.floor(pos).astype(np.intp)
        f0, f1 = (pos - i).T
        flat = i[:, 0] * G[1] + i[:, 1]
        rho = np.bincount(
            np.concatenate([flat, flat + 1, flat + G[1], flat + G[1] + 1]),
            weights=np.concatenate([(1 - f0) * (1 - f1), (1 - f0) * f1,
                                    f0 * (1 - f1), f0 * f1]),
            minlength=G[0] * G[1],
        ).reshape(G) / (self.n * dg[0] * dg[1])
        n_fft = G + 2
        kernels = []
        for a, transform in enumerate((np.fft.fft, np.fft.rfft)):
            m = int(np.ceil(8.0 * h[a] / dg[a]))
            u = np.arange(-m, m + 1) * dg[a]
            # bilinear binning and interpolation each widen the kernel by a
            # variance of dg^2 / 6 on average; the narrowed kernel cancels it
            he = math.sqrt(h[a] ** 2 - dg[a] ** 2 / 3.0)
            K = np.exp(-0.5 * (u / he) ** 2) / (he * math.sqrt(2.0 * math.pi))
            # kernel and its derivative, centred at index 0 of the period
            kk = _centred(np.stack([K, -(u / he**2) * K]), n_fft[a])
            kernels.append(transform(kk, axis=1))
        (k0, dk0), (k1, dk1) = kernels
        spec = np.fft.rfftn(rho, n_fft, axes=(0, 1))
        fields = np.stack([
            np.fft.irfftn(spec * np.outer(s0, s1), n_fft, axes=(0, 1))[: G[0], : G[1]]
            for s0, s1 in ((k0, k1), (dk0, k1), (k0, dk1))
        ])
        fields *= dg[0] * dg[1]
        np.maximum(fields[0], 0.0, out=fields[0])
        hi = lo + dg * (G - 1)
        inside = ((xs >= lo) & (xs <= hi)).all(axis=1)
        if not inside.all():
            xs = np.where(inside[:, None], xs, lo)
        q = (xs - lo) / dg
        j = np.clip(np.floor(q), 0, G - 2).astype(np.intp)
        t0, t1 = (q - j).T
        k = j[:, 0] * G[1] + j[:, 1]
        F = fields.reshape(3, -1)
        vals = ((1 - t0) * ((1 - t1) * F[:, k] + t1 * F[:, k + 1])
                + t0 * ((1 - t1) * F[:, k + G[1]] + t1 * F[:, k + G[1] + 1]))
        k_self = (1.0 / (self.n * np.prod(h * math.sqrt(2.0 * math.pi)))
                  if exclude_self else None)
        return self._binned_finish(inside, vals[0], vals[1:].T, k_self)

    def _binned_finish(self, inside, dens, grad, k_self):
        """Log density and score rows from interpolated density and gradient.

        A ``k_self`` value, each source's own kernel at itself, is
        subtracted from the density first.  Rows whose density is not at
        least the floor n * 1e-300 (zero, negative, below it or NaN) and
        queries off the grid (``inside`` False), whatever their
        interpolated values, are vacuum: -inf and NaN.  Every other row gets
        log(dens) and grad / dens.  The arithmetic runs once over all rows
        on max(dens, 1e-300), which is dens itself on every row above the
        floor, and one mask of the rows below it sets the vacuum values
        afterwards, so no masked copy of either input is made.
        """
        if k_self is not None:
            dens = dens - k_self
        low = ~(dens >= self.n * 1e-300)
        if not inside.all():
            low |= ~inside
        safe = np.maximum(dens, 1e-300)
        # the vacuum rows' quotients, overwritten below, may overflow
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logp = np.log(safe)
            score = grad / safe[:, None]
        if low.any():
            logp[low] = -np.inf
            score[low] = np.nan
        return logp, score


def _fft_length(n):
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _centred(kernels, n):
    """Kernels of odd length 2m + 1 (last axis) as periods of n points.

    The centre sits at index 0 and the left half wraps to the end: the
    zero-padded kernels rolled by -m, written straight into place.
    """
    m = kernels.shape[-1] // 2
    out = np.zeros(kernels.shape[:-1] + (n,))
    out[..., : m + 1] = kernels[..., m:]
    out[..., n - m:] = kernels[..., :m]
    return out


def _interp_uniform(x, grid, dg, values):
    """``np.interp(x, grid, f)`` for each f in ``values``, found by index.

    ``grid`` is ``grid[0] + dg * np.arange(G)`` and every x lies at or
    above ``grid[0]``.  The cell j with grid[j] <= x < grid[j + 1], which
    ``np.interp``'s binary search finds, is the integer part of
    (x - grid[0]) / dg, moved by one step for the few queries where the
    rounded nodes disagree with it; all outputs share it.  Each value is
    ``np.interp``'s own: f[j] on a node, f[-1] at or past the last node,
    and otherwise ``slope[j] * (x - grid[j]) + f[j]`` from the per-cell
    table ``slope = (f[1:] - f[:-1]) / (grid[1:] - grid[:-1])``, which
    ``np.interp`` itself builds whenever the grid is no longer than the
    query array.  A table costs G - 1 divisions, and then a query costs a
    gather of its slope and of f[j], a product and a sum; the queries on a
    node or at or past the last node are set afterwards, sparsely.
    """
    G = grid.size
    t = x - grid[0]
    t /= dg
    np.clip(t, 0, G - 2, out=t)
    j = t.astype(np.intp)  # the floor, since t >= 0
    g = grid[j]
    off = np.flatnonzero((g > x) | (grid[1:][j] <= x))
    last = np.empty(0, np.intp)  # queries at or past the last node
    if off.size:
        k = j[off]
        xo = x[off]
        k -= grid[k] > xo
        k += grid[k + 1] <= xo
        last = off[k == G - 1]
        j[off] = k = np.minimum(k, G - 2)
        g[off] = grid[k]
    dx = x - g
    on = np.flatnonzero(dx == 0.0)  # x on node j
    widths = np.diff(grid)
    out = []
    for f in values:
        v = (np.diff(f) / widths)[j]
        v *= dx
        v += f[j]
        v[on] = f[j[on]]
        v[last] = f[-1]
        out.append(v)
    return out
