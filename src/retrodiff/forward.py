"""Monte Carlo simulation of the forward diffusion.

Euler-Maruyama stepping of particle ensembles, with per-step noise pulled
from counter-based streams keyed by (seed, step), so a run is a pure
function of (model, initial ensemble, grid, seed).
"""

import math
import os
import pickle
import shutil
import signal
import tempfile
from dataclasses import dataclass

import numpy as np

from .models import estimate_lipschitz
from .streams import FORWARD_STEP, INIT_SAMPLE, step_streams, substream


@dataclass(frozen=True)
class ParticleEnsemble:
    """N particle positions in R^d at one time stamp."""

    time: float
    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.shape[0] < 1:
            raise ValueError("ensemble needs at least one particle")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]


class EnsemblePath:
    """Snapshots of an ensemble along (a subset of) grid nodes."""

    def __init__(self, grid, snapshots):
        times = np.array([s.time for s in snapshots])
        if len(snapshots) < 1 or (np.diff(times) <= 0).any():
            raise ValueError("snapshot times must be strictly increasing")
        self.grid = grid
        self.snapshots = list(snapshots)
        self.times = times

    @property
    def terminal(self):
        return self.snapshots[-1]

    def __len__(self):
        return len(self.snapshots)


def sample_initial(dist, n, seed):
    """Draw n i.i.d. particles from an initial distribution at time 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, INIT_SAMPLE)
    return ParticleEnsemble(time=0.0, positions=dist.sample(n, rng))


def _em_step(X, b, s, xi, dt):
    """One Euler-Maruyama update X + b dt + sqrt(dt) sigma xi, as a new array.

    ``s`` is one (d, m) dispersion per row, (n, d, m), as
    ``DiffusionModel.sigma`` gives it; ``xi`` holds the (n, m) draws.  The
    noise is one per-row product, so a row's bits do not depend on the row
    count, as those of a BLAS ``xi @ s.T`` may.  The sum is built in place
    in one new (n, d) array as (b dt + X) + (sigma xi) sqrt(dt), the
    operations of ``X + b * dt + sqrt(dt) * noise`` up to commutativity, so
    the bits are the same.  ``X`` and ``b`` are only read: a model's drift
    may return its own, even read-only, array, or a (d,) one to broadcast.
    """
    noise = np.einsum("nij,nj->ni", s, xi)
    out = np.multiply(b, dt, out=np.empty(X.shape))
    out += X
    noise *= math.sqrt(dt)
    out += noise
    return out


def _em_loop(X, grid, seed, kind, drift, sigma, store_every=None):
    """Euler-Maruyama loop shared by the forward and the reversed dynamics.

    ``drift(k, t, X)`` and ``sigma(t, X)`` give the coefficients at step k,
    the dispersion as one (d, m) matrix per row.  Noise row i at step k is
    particle i's draw from the (seed, kind, k) stream, so particles evolve
    on independent streams and the result is identical however the
    particle loop is executed.  The loop re-keys one generator at each
    step (:func:`~retrodiff.streams.step_streams`), and its stream k is
    ``substream(seed, kind, k)`` bit for bit.  Snapshots are thinned to
    roughly 200 along the grid unless ``store_every`` says otherwise; the
    first and last nodes are always stored, each step's own new array.
    """
    if store_every is None:
        stride = max(1, math.ceil(grid.n_steps / 200))
    elif float(store_every).is_integer() and store_every >= 1:
        stride = int(store_every)
    else:
        raise ValueError(
            f"store_every must be an integer >= 1, got {store_every}")
    snaps = [ParticleEnsemble(time=grid.node(0), positions=X)]
    stream = step_streams(seed, kind, grid.n_steps)
    for k in range(grid.n_steps):
        t = grid.node(k)
        b = drift(k, t, X)
        s = sigma(t, X)
        xi = stream(k).standard_normal((X.shape[0], s.shape[-1]))
        X = _em_step(X, b, s, xi, grid.dt)
        if not np.isfinite(X).all():
            bad = int(np.argwhere(~np.isfinite(X).all(axis=1))[0, 0])
            raise RuntimeError(
                f"non-finite position for particle {bad} at step {k + 1}"
            )
        if (k + 1) % stride == 0 or k + 1 == grid.n_steps:
            snaps.append(ParticleEnsemble(time=grid.node(k + 1), positions=X))
    return EnsemblePath(grid, snaps)


def euler_maruyama_path(model, init, grid, seed, store_every=None):
    """Euler-Maruyama path X_{k+1} = X_k + b dt + sigma sqrt(dt) xi_k.

    Noise comes from the (seed, FORWARD_STEP, k) streams; snapshots are
    thinned to roughly 200 unless ``store_every``, an integer >= 1, is
    given (1 stores every node).  See :func:`_em_loop`.
    """
    return _em_loop(
        init.positions.copy(), grid, seed, FORWARD_STEP,
        lambda k, t, X: np.asarray(model.drift(t, X), dtype=float),
        model.sigma, store_every,
    )


def empirical_moments(ens):
    """Unbiased sample mean and covariance of an ensemble."""
    X = ens.positions
    if X.shape[0] < 2:
        raise ValueError("covariance needs at least two particles")
    mean = X.mean(axis=0)
    dx = X - mean
    cov = dx.T @ dx / (X.shape[0] - 1)
    return mean, cov


@dataclass
class MomentBoundReport:
    """Synchronous-coupling check of the second-moment growth bound."""

    sup_empirical: float
    sup_time: float
    bound: float
    margin: float
    K: float
    K_b: float
    n: int
    passed: bool
    small_horizon_margin: float = float("nan")

    def summary(self):
        state = "pass" if self.passed else "FAIL"
        return (f"sup_t E|Z_t|^2 = {self.sup_empirical:.6g} vs bound "
                f"{self.bound:.6g} + margin {self.margin:.3g} [{state}]")


def _exp(x):
    """e^x, or inf past the float range: a bound that large is vacuous."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def check_moment_bound(model, x, y, grid, n, seed, lipschitz=None):
    """Empirical sup_t E|X^x_t - X^y_t|^2 against |y-x|^2 e^{K T}.

    Both trajectories consume the same noise streams (synchronous coupling),
    the (seed, FORWARD_STEP, k) streams of one re-keyed generator.
    Without ``lipschitz``, K is estimated from 200 probes over a box that
    spans both terminal clouds plus 1, and at least [-5, 5], on each axis.
    The Monte Carlo margin is 3 * std(|Z|^2) / sqrt(n) at the supremum node.
    ``small_horizon_margin`` reports K T / 2 * exp(K T / 2), the quantity
    that must stay below ~0.567 for the small-horizon uniqueness regime.
    Past the float range both are inf, and the check passes vacuously.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    Xx = np.tile(x, (n, 1))
    Xy = np.tile(y, (n, 1))
    sup_val, sup_k = float(np.sum((y - x) ** 2)), 0
    z2 = np.sum((Xy - Xx) ** 2, axis=1)
    sup_std = float(z2.std(ddof=1)) if n > 1 else 0.0

    def step(X, t, xi):
        b = np.asarray(model.drift(t, X), dtype=float)
        return _em_step(X, b, model.sigma(t, X), xi, grid.dt)

    stream = step_streams(seed, FORWARD_STEP, grid.n_steps)
    for k in range(grid.n_steps):
        t = grid.node(k)
        xi = stream(k).standard_normal((n, model.dim_m))
        Xx, Xy = step(Xx, t, xi), step(Xy, t, xi)
        z2 = np.sum((Xy - Xx) ** 2, axis=1)
        m = float(z2.mean())
        if m > sup_val:
            sup_val, sup_k = m, k + 1
            sup_std = float(z2.std(ddof=1)) if n > 1 else 0.0
    if lipschitz is None:
        lo = np.minimum(Xx.min(axis=0), Xy.min(axis=0)) - 1.0
        hi = np.maximum(Xx.max(axis=0), Xy.max(axis=0)) + 1.0
        box = (np.minimum(lo, -5.0), np.maximum(hi, 5.0))
        t_samples = np.linspace(grid.t_start, grid.t_end, 5)
        lipschitz = estimate_lipschitz(model, box, t_samples, 200, seed)
    K = lipschitz.K
    T = grid.t_end - grid.t_start
    sep = float(np.sum((y - x) ** 2))
    bound = sep * _exp(K * T) if sep > 0 else 0.0
    margin = 3.0 * sup_std / math.sqrt(n)
    m_small = K * T / 2.0 * _exp(K * T / 2.0)
    return MomentBoundReport(
        sup_empirical=sup_val,
        sup_time=grid.node(sup_k),
        bound=bound,
        margin=margin,
        K=K,
        K_b=lipschitz.K_b,
        n=n,
        passed=sup_val <= bound + margin,
        small_horizon_margin=m_small,
    )


# Rows per formatting call in the CSV exports; bounds their transient memory.
_CSV_BLOCK = 16384


def _write_csv_rows(fileobj, row_format, columns):
    """Write ``row_format % row`` for each row of ``columns``, a block at a time.

    ``columns`` are equal-length 1-D numpy arrays or ranges (a range
    keeps a row counter from costing memory per row), one per conversion
    in ``row_format``.  Each block of ``_CSV_BLOCK`` rows is one flat
    argument tuple and one C-level ``%``, which gives the same bytes as
    formatting row by row while the transient memory stays bounded by the
    block size.
    """
    width = len(columns)
    n = len(columns[0])
    for a in range(0, n, _CSV_BLOCK):
        b = min(a + _CSV_BLOCK, n)
        args = [None] * ((b - a) * width)
        for j, col in enumerate(columns):
            part = col[a:b]
            args[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        fileobj.write(row_format * (b - a) % tuple(args))


def _write_snapshot_rows(path, fileobj, lo, hi):
    """Write rows ``lo..hi-1`` of ``path``'s snapshot table, without header.

    Rows are numbered over all snapshots in time order, so a range may
    start or end inside a snapshot.
    """
    coords = ",".join(["%.17g"] * path.snapshots[0].dim)
    start = 0
    for snap in path.snapshots:
        a, b = max(lo - start, 0), min(hi - start, snap.n)
        if a < b:
            X = snap.positions[a:b]
            _write_csv_rows(fileobj, f"{snap.time:.17g},%d,{coords}\n",
                            [range(a, b), *X.T])
        start += snap.n


# Fewest snapshot rows for which the export forks.  A fork, its temp file and
# the copy-back cost a few ms; on a 2-core host, two processes beat one from
# 20 000-60 000 rows on (the break-even moves with the host's speed) and won
# every alternated trial at 10^5.
_FORK_MIN_ROWS = 1 << 16

# Characters per read when a child's part is copied back; small, so the copy
# adds little to the parent's peak memory.
_COPY_BLOCK = 1 << 16

# True in a child forked by _fork_shares, whose own calls stay serial.
_IN_CHILD = False


def _run_child(work, lo, hi, out):
    """In a forked child: run ``work(lo, hi, out)``, report to ``out``, exit.

    A value other than None is pickled to ``out`` (status 0); an exception
    is pickled in place of what the work wrote (status 1).  ``os._exit``
    never unwinds into the caller or flushes a buffer the child inherited.
    """
    global _IN_CHILD
    _IN_CHILD = True
    code = 1
    try:
        try:
            value = work(lo, hi, out)
            if value is not None:
                pickle.dump(value, out.buffer)
            code = 0
        except BaseException as exc:
            out.seek(0)
            out.truncate()
            pickle.dump(exc, out.buffer)
        out.flush()
    finally:
        os._exit(code)


def _fork_shares(n, work, gather, min_n=2):
    """Run ``work(lo, hi, out)`` on contiguous shares of ``range(n)``.

    Each CPU the process may use (``os.sched_getaffinity``) takes one
    share, at most n.  The caller runs share 0 with ``out=None``; each
    other share runs in a child made by ``os.fork``, ``out`` an unlinked
    text ``tempfile.TemporaryFile``.  The parent waits for the children in
    order and returns share 0's value, then ``gather(out)`` of each
    child's rewound file.  A child's exception is raised again with its
    type and message; a child that exits without one raises
    ``RuntimeError`` naming its part and status.  An exception in the
    parent kills and reaps every child, and the files are closed either
    way.  The work stays serial for n < ``min_n``, one usable CPU, no
    ``os.fork`` or ``os.sched_getaffinity``, and in a forked child.
    """
    parts = 1
    if (n >= min_n and not _IN_CHILD and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")):
        parts = min(len(os.sched_getaffinity(0)), n)
    cuts = [n * k // parts for k in range(parts + 1)]
    files, pids = [], []
    try:
        for k in range(1, parts):
            files.append(tempfile.TemporaryFile("w+"))
            pid = os.fork()
            if pid == 0:
                _run_child(work, cuts[k], cuts[k + 1], files[-1])
            pids.append(pid)
        shares = [work(cuts[0], cuts[1], None)]
        for k, part in enumerate(files, 1):
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            part.seek(0)
            if code != 0:
                try:
                    exc = pickle.load(part.buffer)
                except Exception:
                    exc = None
                if not isinstance(exc, BaseException):
                    exc = RuntimeError(
                        f"part {k} of {parts} exited with status {code}")
                raise exc
            shares.append(gather(part))
        return shares
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in files:
            part.close()


def _fork_map(fn, n):
    """``[fn(i) for i in range(n)]`` by :func:`_fork_shares`; keep each small."""
    shares = _fork_shares(n, lambda lo, hi, out: [fn(i) for i in range(lo, hi)],
                          lambda part: pickle.load(part.buffer))
    return [value for share in shares for value in share]


def export_snapshots_csv(path, fileobj):
    """Write every snapshot of ``path`` to ``fileobj`` as CSV.

    The header is ``t,particle_id,x1,...,xd``.  Snapshots follow in time
    order, and within each snapshot particles follow in index order, one
    row ``t,particle_id,x1,...,xd`` each.  ``t`` and the coordinates are
    written with ``%.17g`` (17 significant digits, so every float64 reads
    back bitwise; ``-0``, ``nan`` and ``inf`` as Python prints them) and
    ``particle_id`` runs 0..n-1 as a decimal integer.  Rows are formatted
    ``_CSV_BLOCK`` at a time, so the memory the export needs beyond the
    path itself is bounded by that block size, not by n.

    From ``_FORK_MIN_ROWS`` rows on, the rows are split by
    :func:`_fork_shares`, one contiguous part per usable CPU (a cut may
    fall inside a snapshot).  The caller writes the header and part 0 to
    ``fileobj``; each child streams its part's text into its temp file,
    which the parent copies into ``fileobj`` in order, ``_COPY_BLOCK``
    characters at a time, so the bytes are those of one process.

    Returns the number of processes that formatted rows.
    """
    d = path.snapshots[0].dim
    header = "t,particle_id," + ",".join(f"x{i + 1}" for i in range(d))
    fileobj.write(header + "\n")

    def rows(lo, hi, out):
        _write_snapshot_rows(path, fileobj if out is None else out, lo, hi)

    return len(_fork_shares(
        sum(snap.n for snap in path.snapshots), rows,
        lambda part: shutil.copyfileobj(part, fileobj, _COPY_BLOCK),
        _FORK_MIN_ROWS))
