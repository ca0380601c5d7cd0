"""Recovery of initial data from terminal observations.

Three routes, matching what is actually identifiable at desk scale:

* affine drift: the mean solves E' = b0(t) + b1(t) E, which the augmented
  generator [[b1(t), b0(t)], [0, 0]] makes linear in (E, 1); one
  fundamental matrix of that generator maps the source to the terminal
  mean, so a point source is read off by one solve (plus a Monte Carlo
  variant with propagated standard error);
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
from .resolvents import _checked, _fundamental_path
from .streams import CANDIDATE_SIM, substream


@dataclass(frozen=True, eq=False)
class AffineDrift:
    """Drift b(t, y) = b0(t) + b1(t) y.

    ``b0`` and ``b1`` are each a callable of t or a constant array; a
    drift is equal only to itself, so array fields leave it hashable.
    """

    b0: object
    b1: object
    dim: int

    @staticmethod
    def constant(b0, b1):
        b0 = np.atleast_1d(np.asarray(b0, dtype=float))
        b1 = np.atleast_2d(np.asarray(b1, dtype=float))
        d = b0.shape[0]
        if b0.ndim != 1 or b1.shape != (d, d):
            raise ValueError(f"b1 has shape {b1.shape}, but b0 of shape "
                             f"{b0.shape} needs ({d}, {d})")
        return AffineDrift(b0=b0, b1=b1, dim=d)


def _affine_flow(drift, grid):
    """(Phi_11(T), phi(T)): the terminal mean is Phi_11(T) x0 + phi(T).

    Phi is the fundamental matrix of the augmented generator
    A(t) = [[b1(t), b0(t)], [0, 0]], built by ``_fundamental_path``: exact
    semigroup steps when both coefficients are constant arrays, RK4
    otherwise.  A path that overflows raises the builder's ``ValueError``
    naming its first non-finite node.
    """
    d = drift.dim
    b0, b1 = _checked(drift.b0, "b0"), _checked(drift.b1, "b1")

    def A(t):
        out = np.zeros((d + 1, d + 1))
        out[:d, :d] = b1(t)
        out[:d, d] = b0(t)
        return out

    exact = not (callable(drift.b0) or callable(drift.b1))
    Phi = _fundamental_path(A, grid, exact).values[-1]
    return Phi[:d, :d], Phi[:d, d]


def _terminal_mean(m, dim):
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.shape != (dim,):
        raise ValueError(f"terminal mean has shape {m.shape}, but the drift "
                         f"needs ({dim},)")
    if not np.isfinite(m).all():
        raise ValueError("terminal mean must be finite")
    return m


def reconstruct_dirac_affine(drift, terminal_mean, grid):
    """Source location from the terminal mean under an affine drift.

    Solves Phi_11(T) x0 = terminal_mean - phi(T) for the augmented flow of
    ``_affine_flow`` (exact steps for constant coefficients, RK4 for
    callables).  Exact in the limit for true affine models, and bitwise
    equal to the terminal mean when the drift vanishes.
    """
    m = _terminal_mean(terminal_mean, drift.dim)
    P, phi = _affine_flow(drift, grid)
    return np.linalg.solve(P, m - phi)


def reconstruct_dirac_affine_mc(drift, sigma, mu_ensemble, grid):
    """Monte Carlo front end: reconstruct from an empirical terminal mean.

    Returns (x_hat, stderr) where stderr propagates the CLT error of the
    mean through the backward flow:  ||M(0)||_2 * ||sd / sqrt(n)||_2 with
    M(0) = Phi_11(T)^-1 from the one augmented path of ``_affine_flow``;
    one solve gives x_hat and M(0).  ``sigma`` is the dispersion of the
    generating model; it is not used by the estimator (the mean ODE does
    not see it) and is accepted for interface completeness.
    """
    X = mu_ensemble.positions
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two particles for a standard error")
    m = _terminal_mean(X.mean(axis=0), drift.dim)
    P, phi = _affine_flow(drift, grid)
    rhs = np.column_stack([m - phi, np.eye(drift.dim)])
    sol = np.linalg.solve(P, rhs)
    x_hat, M0 = sol[:, 0], sol[:, 1:]
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


def injectivity_probe(model, candidates, T, n, seed, n_steps=200):
    """Pairwise terminal separation of candidate source distributions.

    Each candidate is simulated forward and scored by the sliced
    Wasserstein-1 distance (W1 itself in 1-D); the verdict is "injective"
    when the smallest off-diagonal terminal distance exceeds three times
    the Monte Carlo noise floor (the largest split-half self-distance), and
    "ambiguous" otherwise.  The clouds run on every usable CPU
    (``forward._fork_map``), each a pure function of (seed, index), so the
    report has the same bits for any CPU count.  The pairs run in the
    caller: every cloud has n points, so each pair is a mean over matched
    order statistics, cheaper there than through a fork.  The report
    describes each candidate by its component means.
    """
    candidates = list(candidates)
    if len(candidates) < 2:
        raise ValueError("need at least two candidate sources")
    if n < 2:
        raise ValueError(f"the probe needs at least 2 particles, got n = {n}")

    def cloud(i):
        cl = _terminal_cloud(model, candidates[i], T, n, n_steps, seed, i)
        half = cl.shape[0] // 2
        # each cloud's projections are sorted once, for all of its pairs
        return (sorted_projections(cl, seed=seed),
                sliced_wasserstein1(cl[:half], cl[half:], seed=seed))

    keys, floors = zip(*_fork_map(cloud, len(candidates)))
    floor = max(0.0, *floors)
    K = len(keys)
    I, J = np.triu_indices(K, 1)
    D = np.zeros((K, K))
    D[I, J] = D[J, I] = [sliced_wasserstein1_sorted(keys[i], keys[j])
                         for i, j in zip(I, J)]
    off = D[~np.eye(K, dtype=bool)]
    verdict = "injective" if off.min() > 3.0 * floor else "ambiguous"
    return InjectivityReport(candidates=[c.means.ravel() for c in candidates],
                             distances=D, noise_floor=floor, verdict=verdict)


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
    floor = sliced_wasserstein1(target[:half], target[half:], seed=seed)
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
