"""Recovery of initial data from terminal observations.

Three routes, matching what is actually identifiable at desk scale:

* affine drift: the mean solves a linear ODE backwards from the terminal
  mean, so a point source is read off exactly (plus a Monte Carlo variant
  with propagated standard error);
* constant-coefficient heat flow: the terminal transform is divided by the
  explicit decay factor inside a frequency window (the backward heat map
  amplifies as exp(T |xi|^2), hence the window);
* generic models: brute-force separation tests, i.e. pairwise terminal
  distances between candidate sources and nearest-candidate grid search.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiracMixture
from .forward import _fork_map, euler_maruyama_path, sample_initial
from .grids import TimeGrid
from .metrics import (
    sliced_wasserstein1,
    sliced_wasserstein1_sorted,
    sorted_projections,
)
from .ou_analytic import AmplificationWindowError, _window_exponent
from .resolvents import _rk4_path
from .streams import CANDIDATE_SIM, substream


@dataclass(frozen=True)
class AffineDrift:
    """Drift b(t, y) = b0(t) + b1(t) y with continuous coefficients."""

    b0: callable
    b1: callable
    dim: int

    @staticmethod
    def constant(b0, b1):
        b0 = np.atleast_1d(np.asarray(b0, dtype=float))
        b1 = np.atleast_2d(np.asarray(b1, dtype=float))
        return AffineDrift(b0=lambda t: b0, b1=lambda t: b1, dim=b0.shape[0])

    def eval(self, t):
        v0 = np.asarray(self.b0(t), dtype=float).reshape(self.dim)
        v1 = np.asarray(self.b1(t), dtype=float).reshape(self.dim, self.dim)
        if not (np.isfinite(v0).all() and np.isfinite(v1).all()):
            raise ValueError(f"non-finite affine coefficients at t={t}")
        return v0, v1


def reconstruct_dirac_affine(drift, terminal_mean, grid):
    """Source location from the terminal mean under an affine drift.

    Integrates E'(t) = b0(t) + b1(t) E(t) backwards from E(T) =
    terminal_mean with RK4 and returns E(0).  Exact in the limit for true
    affine models, and bitwise equal to the terminal mean when the drift
    vanishes.  A mean that overflows raises ``RuntimeError`` naming the
    first node it reached.
    """
    m = np.atleast_1d(np.asarray(terminal_mean, dtype=float))
    if not np.isfinite(m).all():
        raise ValueError("terminal mean must be finite")

    def rhs(t, y):
        v0, v1 = drift.eval(t)
        return v0 + v1 @ y

    path = _rk4_path(rhs, m, grid, backward=True)
    bad = np.flatnonzero(~np.isfinite(path).all(axis=1))
    if bad.size:
        # the steps run from node n down, so the first bad node is the last
        k = int(bad[-1])
        raise RuntimeError(f"non-finite mean at node {k} (t = {grid.node(k):g})")
    return path[0]


def reconstruct_dirac_affine_mc(drift, sigma, mu_ensemble, grid):
    """Monte Carlo front end: reconstruct from an empirical terminal mean.

    Returns (x_hat, stderr) where stderr propagates the CLT error of the
    mean through the backward flow:  ||M(0)||_2 * ||sd / sqrt(n)||_2 with
    M the backward fundamental matrix.  ``sigma`` is the dispersion of the
    generating model; it is not used by the estimator (the mean ODE does
    not see it) and is accepted for interface completeness.
    """
    X = mu_ensemble.positions
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two particles for a standard error")
    x_hat = reconstruct_dirac_affine(drift, X.mean(axis=0), grid)

    def rhs(t, M):
        _, v1 = drift.eval(t)
        return v1 @ M

    M0 = _rk4_path(rhs, np.eye(drift.dim), grid, backward=True)[0]
    se_vec = X.std(axis=0, ddof=1) / math.sqrt(n)
    stderr = float(np.linalg.norm(M0, 2) * np.linalg.norm(se_vec))
    return x_hat, stderr


def heat_initial_transform(mu_hat, T, xi, xi_max=5.0, exponent_cap=50.0):
    """Initial transform for the constant-heat flow du/dt = Laplacian(u).

    Returns exp(T |xi|^2) mu_hat(xi); the exponent uses |xi|^2 (not half)
    because this route's flow is the unnormalized Laplacian.  Queries with
    |xi| > xi_max, or whose amplification exponent exceeds the cap, raise
    :class:`AmplificationWindowError`.
    """
    xi1 = np.atleast_1d(np.asarray(xi, dtype=float))
    r = float(np.linalg.norm(xi1))
    w = _window_exponent(xi1, lambda: T * r * r, xi_max, exponent_cap)
    return math.exp(w) * mu_hat(xi1 if np.ndim(xi) else xi1[0])


def extract_source_location(transform, dim):
    """Point-source location from the phase slope of a transform at 0.

    For a transform exp(-i <xi, x0>) the phase gradient at 0 is -x0;
    estimated by central differences at |xi| = 1e-3.
    """
    h = 1e-3
    x0 = np.empty(dim)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        x0[j] = -(np.angle(transform(e)) - np.angle(transform(-e))) / (2 * h)
    return x0


def _terminal_cloud(model, candidate, T, n, n_steps, seed, tag):
    grid = TimeGrid(0.0, T, n_steps)
    init = sample_initial(candidate, n, substream(seed, CANDIDATE_SIM, tag).integers(2**32))
    path = euler_maruyama_path(model, init, grid, seed + 7919 * (tag + 1),
                               store_every=n_steps)
    return path.terminal.positions


def _cloud_distance(A, B, metric, seed):
    if metric == "mean":
        return float(np.linalg.norm(A.mean(axis=0) - B.mean(axis=0)))
    return sliced_wasserstein1(A, B, seed=seed)


@dataclass
class InjectivityReport:
    candidates: list
    distances: np.ndarray
    noise_floor: float
    verdict: str

    def to_json_dict(self):
        return {
            "candidates": [np.asarray(c, dtype=float).tolist()
                           for c in self.candidates],
            "distances": self.distances.tolist(),
            "noise_floor": self.noise_floor,
            "verdict": self.verdict,
        }


def injectivity_probe(model, candidates, T, n, seed, metric="wasserstein1",
                      n_steps=200):
    """Pairwise terminal separation of candidate source distributions.

    Each candidate is simulated forward; the verdict is "injective" when
    the smallest off-diagonal terminal distance exceeds three times the
    Monte Carlo noise floor (the largest split-half self-distance), and
    "ambiguous" otherwise.  The clouds, then the pairs, run on every
    usable CPU (``forward._fork_map``); each result is a pure function of
    (seed, index), so the report has the same bits for any CPU count.
    """
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError("need at least two candidate sources")
    if n < 2:
        raise ValueError(f"the probe needs at least 2 particles, got n = {n}")
    if metric not in ("wasserstein1", "mean"):
        raise ValueError(f"unknown metric {metric!r}: use 'wasserstein1' "
                         f"or 'mean'")

    def cloud(i):
        cl = _terminal_cloud(model, candidates[i], T, n, n_steps, seed, i)
        half = cl.shape[0] // 2
        # each cloud's projections are sorted once, for all of its pairs
        key = cl if metric == "mean" else sorted_projections(cl, seed=seed)
        return key, _cloud_distance(cl[:half], cl[half:], metric, seed)

    keys, floors = zip(*_fork_map(cloud, len(candidates)))
    floor = max(0.0, *floors)
    distance = (sliced_wasserstein1_sorted if metric == "wasserstein1" else
                lambda A, B: _cloud_distance(A, B, metric, seed))
    K = len(keys)
    I, J = np.triu_indices(K, 1)
    D = np.zeros((K, K))
    D[I, J] = D[J, I] = _fork_map(lambda p: distance(keys[I[p]], keys[J[p]]),
                                  len(I))
    off = D[~np.eye(K, dtype=bool)]
    verdict = "injective" if off.min() > 3.0 * floor else "ambiguous"
    descr = [getattr(c, "points", getattr(c, "means", None)) for c in candidates]
    descr = [np.asarray(p).ravel() if p is not None else np.array([])
             for p in descr]
    return InjectivityReport(candidates=descr, distances=D, noise_floor=floor,
                             verdict=verdict)


@dataclass
class SearchResult:
    x_hat: np.ndarray
    table: list  # rows (candidate point, distance, tied flag)
    noise_floor: float

    def to_json_dict(self):
        return {
            "x_hat": self.x_hat.tolist(),
            "scores": [
                {"candidate": c.tolist(), "distance": d, "tied": bool(t)}
                for c, d, t in self.table
            ],
            "noise_floor": self.noise_floor,
        }


def reconstruct_dirac_search(model, mu_ensemble, candidate_grid, T, n, seed,
                             n_steps=200):
    """Nearest-candidate source search against a terminal ensemble.

    Candidates are point sources; each is simulated forward and scored by
    the sliced Wasserstein-1 distance (W1 itself in 1-D) to the target
    terminal ensemble, whose projections are sorted once.  Candidates run
    on every usable CPU (``forward._fork_map``), each score a pure function
    of (seed, index), so the bits do not depend on the CPU count.
    Candidates within the Monte Carlo noise floor of the best score are
    flagged as tied; the minimizer is the lexicographically smallest tied one.
    """
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in candidate_grid]
    if not pts:
        raise ValueError("candidate grid is empty")
    target = mu_ensemble.positions
    if target.shape[0] < 2:
        raise ValueError(f"the target ensemble needs at least 2 particles, "
                         f"got {target.shape[0]}")
    half = target.shape[0] // 2
    floor = _cloud_distance(target[:half], target[half:], "wasserstein1", seed)
    key = sorted_projections(target, seed=seed)

    def score(i):
        cloud = _terminal_cloud(model, DiracMixture([pts[i]]), T, n, n_steps,
                                seed, i)
        return sliced_wasserstein1_sorted(sorted_projections(cloud, seed=seed),
                                          key)

    scores = _fork_map(score, len(pts))
    best = min(scores)
    tied = [s <= best + floor for s in scores]
    winners = sorted(tuple(p) for p, t in zip(pts, tied) if t)
    x_hat = np.array(winners[0])
    table = [(p, s, t) for p, s, t in zip(pts, scores, tied)]
    return SearchResult(x_hat=x_hat, table=table, noise_floor=floor)
