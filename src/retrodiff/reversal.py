"""Time-reversed McKean dynamics and its statistical verification.

The reversed particle system runs on a reversed clock s in [0, T - eps]:

    dY = [ -b + div(Sigma p) / p ](T - s, Y) ds + sigma(T - s, Y) dbeta,
    Y_0 ~ mu,

where Sigma = sigma sigma^T and the score grad log p is either the exact
affine-model closed form (mode "analytic") or a kernel estimate rebuilt
from the live cloud (mode "self-consistent").  The simulation stops at
the last grid node at or before T - eps because the drift degenerates at
the reversed horizon for point sources; eps is configuration.

One statistic checks the reversed clouds against the forward marginals in
every dimension, the largest projected KS distance of ``_law_stat``.
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import KdeField, _checked_bandwidth
from .forward import EnsemblePath, _em_loop, _write_csv_rows
from .grids import TimeGrid
from .metrics import _directions, ks_statistic
from .models import OUModel, check_ellipticity
from .ou_analytic import analytic
from .streams import REVERSAL_INIT, REVERSAL_STEP, substream


@dataclass
class StepDiagnostics:
    step: np.ndarray
    t: np.ndarray
    max_drift: np.ndarray
    clips: np.ndarray
    vacuums: np.ndarray
    wall_time: float = 0.0


@dataclass
class ReversalRun:
    """A reversed run on ``grid``, which ends at the last node at or before
    T - eps; ``epsilon_stop`` is the configured eps, not the gap run."""

    mode: str
    grid: TimeGrid
    horizon: float
    epsilon_stop: float
    path: EnsemblePath
    diagnostics: StepDiagnostics
    # the analytic mode's terminal-law check failed (always False in the
    # self-consistent mode, which has no such check)
    terminal_check_failed: bool = False

    @property
    def terminal(self):
        return self.path.terminal


def _stop_grid(grid, epsilon_stop):
    """The reversed clock's grid and eps (default 0.01 T).

    The grid keeps the nodes of ``grid`` up to the last one at or before
    T - eps, so the gap actually left is at least eps: 150 steps on [0, 1]
    with the default eps end at 148 dt = T - 0.0133.
    """
    T = grid.t_end
    if grid.t_start != 0.0:
        raise ValueError("reversal grids start at 0")
    eps = 0.01 * T if epsilon_stop is None else float(epsilon_stop)
    if not 0.0 < eps < T:
        raise ValueError("epsilon_stop must lie in ]0, T[")
    n_eff = int(math.floor((T - eps) / grid.dt + 1e-9))
    if n_eff < 1:
        raise ValueError("epsilon_stop leaves no steps to simulate")
    return TimeGrid(0.0, n_eff * grid.dt, n_eff), eps


def _check_elliptic(model, points):
    """sigma sigma^T must be elliptic to 1e-8 at the (t, x) ``points``: the
    reversed drift is undefined where it degenerates."""
    rep = check_ellipticity(model, points, 1e-8)
    if not rep.passed:
        raise ValueError(
            f"dispersion is not elliptic (min eigenvalue "
            f"{rep.min_eigenvalue:.3g}); the reversed drift is undefined"
        )


def _launch(model, mu, grid, n, epsilon_stop, drift_clip, seed):
    """Checks, stop grid and terminal sample shared by both modes."""
    if n < 2:
        raise ValueError(f"reversal needs at least 2 particles, got n = {n}")
    if not abs(grid.t_end - model.horizon) <= 1e-12:
        raise ValueError("grid horizon must match the model horizon")
    if drift_clip is not None and not 0.0 < drift_clip < math.inf:
        raise ValueError("drift_clip must be positive and finite, or None")
    run_grid, eps = _stop_grid(grid, epsilon_stop)
    Y = mu.sample(n, substream(seed, REVERSAL_INIT))
    return run_grid, eps, np.atleast_2d(np.asarray(Y, dtype=float))


def _law_stat(sample, law):
    """Largest KS distance between u.Y and the mixture ``law`` projected on
    u, over u = 1 in 1-D and the 32 directions of ``sorted_projections``
    otherwise.  The projections determine a law (Cramer-Wold), and KS does
    not depend on scale; rows are projected one by one, not through BLAS."""
    return max(ks_statistic(np.einsum("ni,i->n", sample, u),
                            law.project(u).cdf1d)
               for u in _directions(sample.shape[1]))


def _clip_rows(v, cap):
    norms = np.linalg.norm(v, axis=1)
    over = norms > cap
    if over.any():
        v = v.copy()
        v[over] *= (cap / norms[over])[:, None]
    return v, int(over.sum())


def _run_loop(model, grid, Y, seed, score_fn, drift_clip):
    """The shared Euler loop (``forward._em_loop``) on the reversed clock.

    The drift -b + div(Sigma p) / p and the dispersion sigma at (T - s, Y)
    come from ``model``; each mode supplies only its score, ``score_fn(k,
    s, Y) -> (score, vac)``, with ``vac`` None or a mask of rows with no
    estimate, which keep only -b.  The clip applies to the density term
    only (kernel tails are what misbehave), never to -b.  The per-step
    diagnostics are recorded inside the drift.
    """
    rows = {k: [] for k in ("step", "t", "max_drift", "clips", "vacuums")}

    def drift(k, s, Y):
        t = model.horizon - s
        score, vac = score_fn(k, s, Y)
        dens = model.density_drift(t, Y, score)
        n_vac = 0 if vac is None else int(vac.sum())
        if n_vac:
            dens[vac] = 0.0
        n_clip = 0
        if drift_clip is not None:
            dens, n_clip = _clip_rows(dens, drift_clip)
        total = dens - np.asarray(model.drift(t, Y), dtype=float)
        if not np.isfinite(total).all():
            bad = int(np.argwhere(~np.isfinite(total).all(axis=1))[0, 0])
            raise RuntimeError(f"non-finite drift for particle {bad} at step {k}")
        max_drift = float(np.linalg.norm(total, axis=1).max())
        for key, v in zip(rows, (k, s, max_drift, n_clip, n_vac)):
            rows[key].append(v)
        return total

    t0 = time.perf_counter()
    path = _em_loop(Y, grid, seed, REVERSAL_STEP, drift,
                    lambda s, Y: model.sigma(model.horizon - s, Y))
    diag = StepDiagnostics(**{key: np.array(v) for key, v in rows.items()},
                           wall_time=time.perf_counter() - t0)
    return path, diag


def simulate_reversal_analytic(ou, nu, mu, grid, n, epsilon_stop=None, seed=0,
                               drift_clip=None):
    """Reversed run with the exact affine-model score.

    It refuses only a marginal of ``nu`` with no density
    (``DegenerateDensityError``): sigma may be any (d, m) matrix.  The run
    ends at the last grid node at or before T - eps (see
    :class:`ReversalRun`).

    ``mu`` should be the forward marginal of ``nu`` at the horizon.  Every
    run checks this: ``_law_stat`` of its n terminal draws must stay at or
    below 2.5/sqrt(n), which a draw from the right law exceeds with
    probability at most 2 e^(-12.5) per direction (DKW), so at most
    32 * 2 e^(-12.5) ~ 2.4e-4 over the 32 directions of d >= 2.  A
    mismatch only warns and sets the run's ``terminal_check_failed``,
    because launching from an unreachable terminal law is precisely the
    no-solution regime the verification report is designed to expose.
    """
    if not isinstance(ou, OUModel):
        raise TypeError("analytic mode needs an affine-drift (OU) model")
    run_grid, eps, Y = _launch(ou, mu, grid, n, epsilon_stop, drift_clip, seed)
    cache = analytic(ou, grid.n_steps)
    T = grid.t_end
    stat, thr = _law_stat(Y, cache.marginal(nu, T)), 2.5 / math.sqrt(len(Y))
    failed = bool(stat > thr)
    if failed:
        warnings.warn(
            f"terminal sampler disagrees with the forward marginal "
            f"(stat {stat:.4f} > {thr:.4f}); the reversed dynamics has "
            f"no consistent solution for such terminal data",
            stacklevel=2,
        )

    def score_fn(k, s, X):
        return cache.marginal(nu, T - s).score(X), None

    path, diag = _run_loop(ou, run_grid, Y, seed, score_fn, drift_clip)
    return ReversalRun(mode="analytic", grid=run_grid, horizon=T,
                       epsilon_stop=eps, path=path, diagnostics=diag,
                       terminal_check_failed=failed)


def simulate_reversal_selfconsistent(model, mu, grid, n, epsilon_stop=None,
                                     drift_clip=1e3, seed=0, bandwidth=None):
    """Reversed run with the drift estimated from the live cloud.

    At every step a Gaussian-kernel field is rebuilt from the current
    ensemble, evaluated at the particles with the self-kernel left out.
    The density drift is clipped in norm at ``drift_clip``; particles in
    estimation vacuum (essentially no neighbour mass inside the kernel)
    keep only the -b drift for that step, and more than 10% vacuum in one
    step aborts the run as too sparse.

    The reversed dynamics is an anti-diffusion: density ripples at
    wavenumber k grow like k^2 (K_h(k) - 1/2), so narrow kernels clump the
    cloud while wide kernels stall the collapse through smoothing bias.
    The default policy therefore oversmooths (h_i = half the cloud's
    per-dimension spread), and the estimated score is always rescaled by
    the moment-matched factor (v_i + h_i^2) / v_i, which cancels the known
    first-order bias and is exact for Gaussian clouds (v is the cloud
    variance, which the kernel does not smooth).  Pass an explicit
    ``bandwidth`` (or :func:`silverman_bandwidth` output) to override the
    policy.  The dispersion must be elliptic to 1e-8 at probe particles,
    and ``mu`` must have a density: a singular component, such as a point
    mass, raises ``DegenerateDensityError`` before any draw, as no kernel
    estimate of it exists.

    The field chooses its evaluator at every step (see
    :meth:`KdeField.log_density_and_score_at_sources`).
    """
    mu._require_density()
    run_grid, eps, Y = _launch(model, mu, grid, n, epsilon_stop, drift_clip,
                               seed)
    T = grid.t_end
    d = Y.shape[1]
    probe = Y[: min(64, n)]
    _check_elliptic(model, [(t, x) for t in (0.0, T / 2, T) for x in probe])
    if bandwidth is not None:
        h_fixed = _checked_bandwidth(bandwidth, d)
        if (h_fixed >= Y.std(axis=0, ddof=1)).any():
            warnings.warn("bandwidth override is as large as the cloud scale",
                          stacklevel=2)

    def score_fn(k, s, X):
        v = X.var(axis=0, ddof=1)
        field = KdeField(X, 0.5 * np.sqrt(v) if bandwidth is None else bandwidth)
        logp, score = field.log_density_and_score_at_sources()
        # vacuum: less than ~half a neighbour's mass inside the kernel
        floor = math.log(0.5) + field._log_norm
        vac = ~(logp >= floor) | np.isnan(score).any(axis=1)
        n_vac = int(vac.sum())
        if n_vac > 0.1 * X.shape[0]:
            raise RuntimeError(
                f"{n_vac}/{X.shape[0]} particles in vacuum at step {k}; "
                f"the ensemble is too sparse for self-consistent estimation"
            )
        return score * ((v + field.bandwidth**2) / v)[None, :], vac

    path, diag = _run_loop(model, run_grid, Y, seed, score_fn, drift_clip)
    return ReversalRun(mode="self-consistent", grid=run_grid, horizon=T,
                       epsilon_stop=eps, path=path, diagnostics=diag)


@dataclass
class RepresentationReport:
    times: np.ndarray
    stats: np.ndarray
    max_stat: float
    threshold: float
    passed: bool

    def summary(self):
        state = "pass" if self.passed else "FAIL"
        return (f"max KS over {len(self.times)} snapshots = "
                f"{self.max_stat:.4f} (threshold {self.threshold}) [{state}]")


def verify_representation(run, reference, threshold=0.02):
    """Compare each reversed snapshot with its law ``reference(t)``.

    ``reference`` maps a reversed time t to a Gaussian mixture, the forward
    marginal at T - t.  Each snapshot's statistic is ``_law_stat``, the
    Kolmogorov-Smirnov distance in 1-D and its largest value over 32
    projections in d >= 2, so ``threshold`` is a KS bound in every d.
    """
    stats = np.array([_law_stat(snap.positions, reference(snap.time))
                      for snap in run.path.snapshots])
    mx = float(stats.max())
    return RepresentationReport(times=run.path.times.copy(), stats=stats,
                                max_stat=mx, threshold=float(threshold),
                                passed=mx < threshold)


@dataclass
class IntegrabilityReport:
    """A finite time-integral of the max clipped drift is a proxy.

    Local integrability of div(Sigma p) is assumed, not proved.
    """

    drift_integral: float
    growth_exponent: float
    clip_events: int
    vacuum_events: int


def check_integrability_proxy(run):
    """Integral and blow-up rate of the max drift from run diagnostics.

    Fits max_drift ~ (T - t)^(-alpha) by log-log regression; alpha ~ 0.5
    for a point-source reversal (the cloud scale sqrt(T - t) divided by
    the collapsing variance).  A nonsingular source still gives a positive
    alpha: 0.22-0.25 for the 1-D heat reversal of nu = N(0, 0.25) (T = 1,
    2 * 10^4 particles, 1000 steps, eps 0.01 and 0.05).  The max over
    particles is an extreme-value statistic, so alpha measures the cloud's
    outermost particles, not the density.
    """
    diag = run.diagnostics
    dt = run.grid.dt
    integral = float(np.sum(diag.max_drift) * dt)
    gap = run.horizon - diag.t
    mask = diag.max_drift > 0
    if mask.sum() >= 2:
        slope = np.polyfit(np.log(gap[mask]), np.log(diag.max_drift[mask]), 1)[0]
        alpha = -float(slope)
    else:
        alpha = 0.0
    return IntegrabilityReport(
        drift_integral=integral,
        growth_exponent=alpha,
        clip_events=int(diag.clips.sum()),
        vacuum_events=int(diag.vacuums.sum()),
    )


def export_diagnostics_csv(run, fileobj):
    """Write per-step diagnostics as ``step,t,max_drift,clips,vacuums``.

    One row per step in step order; ``t`` and ``max_drift`` use ``%.17g``
    like :func:`retrodiff.forward.export_snapshots_csv`, through the same
    writer: numpy computes the digits exactly (the 17-digit significand of
    |v| * 10**(16 - E) from Dekker's error-free product) for 2**-13 <= |v|
    < 2**53, and Python's ``%`` formats the other values, nan and inf
    among them.
    """
    d = run.diagnostics
    fileobj.write("step,t,max_drift,clips,vacuums\n")
    _write_csv_rows(fileobj, "", [d.step, d.t, d.max_drift, d.clips, d.vacuums])
