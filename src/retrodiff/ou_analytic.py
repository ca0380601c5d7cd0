"""Closed-form machinery for affine-drift (OU-type) diffusions.

For b(t, x) = C(t) x and space-independent sigma(t), the marginal of a
point source x0 is Gaussian with mean R(t) x0 and covariance Q(t), where R
is the state resolvent and Q the accumulated covariance from
:mod:`retrodiff.resolvents`.  In transform space, with D the adjoint decay
path and T(xi) = E exp(-i<xi, X>),

    T_t(xi) = exp( -1/2 * int_0^t |sigma(s)^T D(s) D^-1(t) xi|^2 ds )
              * T_0( D^-1(t) xi ),

equivalently exp(-<Q(t) xi, xi>/2) T_0(R(t)^T xi); the exponent's inner
resolvent factor is required for consistency with the per-frequency ODE

    d/dt V_t(xi) = -1/2 <Sigma(t) D(t) xi, D(t) xi> V_t(xi),
    V_t(xi) = T_t(D(t) xi),

and with the Gaussian covariance Q(t).  Inverting the terminal transform
amplifies by exp(+1/2 int |sigma^T D xi|^2), which is the ill-posedness of
the backward problem; queries outside a configurable frequency window (or
beyond a configurable amplification exponent) are refused rather than
clipped.

Every time these functions take must be a node of the ``n_steps`` grid on
[0, horizon]; a time off the grid raises a ``ValueError`` that names it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DegenerateDensityError, GaussianMixture
from .grids import TimeGrid
from .resolvents import (
    _rk4_path,
    compute_ou_covariance,
    solve_adjoint_resolvent,
    solve_resolvent,
)


class AmplificationWindowError(ValueError):
    """Raised for transform queries outside the regularized backward window."""


def _node_weights(k):
    """Weights on nodes 0..k of a unit-step grid: composite Simpson, with a
    3/8 end panel for odd k >= 3 (both exact for cubics), the trapezoid for
    k = 1 and no weight for k = 0."""
    if k == 1:
        return np.full(2, 0.5)
    w = np.zeros(k + 1)
    e = k - 3 if k % 2 else k  # Simpson on nodes 0..e, 3/8 on e..k
    if e:
        w[1:e:2], w[2:e:2] = 4.0 / 3.0, 2.0 / 3.0
        w[[0, e]] += 1.0 / 3.0
    if e < k:
        w[e:] += (3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0)
    return w


def _window_exponent(xi, exponent, xi_max, exponent_cap):
    """Amplification exponent of a backward query, refused outside the window.

    ``exponent`` is a thunk; it runs only once |xi| <= xi_max is known.
    """
    r = float(np.linalg.norm(xi))
    if r > xi_max:
        raise AmplificationWindowError(
            f"|xi|={r:.3g} outside the window xi_max={xi_max}"
        )
    w = float(exponent())
    if w > exponent_cap:
        raise AmplificationWindowError(
            f"amplification exponent {w:.3g} exceeds cap {exponent_cap}"
        )
    return w


class OUAnalytic:
    """Eagerly cached resolvent and covariance paths for one OU model.

    A model with constant C and sigma (``ou.constant``) has its paths
    stepped exactly by the semigroup, with no RK4 step; a model with
    time-varying coefficients has them integrated by RK4.  Every lookup
    reads the paths at a grid node.
    """

    def __init__(self, ou, n_steps=1000):
        self.ou = ou
        self.grid = TimeGrid(0.0, ou.horizon, n_steps)
        # constant arrays select the exact steps of the resolvents module
        C, Sigma = (ou.C(0.0), ou.Sigma(0.0)) if ou.constant else (ou.C, ou.Sigma)
        self.resolvent = solve_resolvent(C, self.grid)
        self.adjoint = solve_adjoint_resolvent(C, self.grid)
        self.covariance = compute_ou_covariance(C, Sigma, self.grid)
        # S_j = D_j^T sigma(t_j): the exponent integrates |eta S_j|^2
        sigma = np.stack([ou.dispersion(t, None) for t in self.grid.nodes])
        self._adjoint_sigma = np.swapaxes(self.adjoint.values, 1, 2) @ sigma

    def R(self, t):
        return self.resolvent.at(t)

    def D(self, t):
        return self.adjoint.at(t)

    def D_inv(self, t):
        """Inverse of D(t), which is R(t)^T.

        (R^T)' = R^T C^T is the equation of D^-1, so
        :func:`~retrodiff.resolvents.solve_adjoint_resolvent_inverse`
        returns the transposed resolvent path, and so does this lookup,
        bitwise; R(t)^T D(t) = I holds to the path's own error
        (rounding for exact steps, RK4's error otherwise).
        """
        return self.R(t).T

    def Q(self, t):
        """Covariance at t; exactly symmetric."""
        return self.covariance.at(t)

    # ------------------------------------------------------------------

    def marginal(self, init, t):
        """Marginal law at time t of a Gaussian mixture (point masses are
        zero-covariance components): means R m_k, covariances R V_k R^T + Q."""
        Rt, Qt = self.R(t), self.Q(t)
        means = init.means @ Rt.T
        covs = np.einsum("ij,kjl,ml->kim", Rt, init.covariances, Rt) + Qt
        return GaussianMixture(init.weights, means, covs)

    def amplification_exponent(self, t, eta):
        """1/2 int_0^t |sigma(s)^T D(s) eta|^2 ds by :func:`_node_weights`."""
        k = self.grid.node_index(t)
        eta2 = np.atleast_2d(np.asarray(eta, dtype=float))
        v = eta2 @ self._adjoint_sigma[: k + 1]  # (k + 1, rows, m)
        # one contiguous row of integrand values per eta, summed on its own,
        # so a row's bits do not depend on the other rows of the batch
        f = np.ascontiguousarray(np.sum(v * v, axis=2).T)
        f *= _node_weights(k)
        out = 0.5 * self.grid.dt * f.sum(axis=1)
        return out[0] if np.ndim(eta) == 1 else out

    def char_forward(self, init_transform, t, xi):
        """Forward transform at (t, xi) from the initial transform."""
        xi1 = np.asarray(xi, dtype=float)
        if t == 0.0:
            return init_transform(xi1)
        eta = xi1 @ self.D_inv(t).T
        return np.exp(-self.amplification_exponent(t, eta)) * init_transform(eta)

    def invert_terminal(self, mu_hat, T, xi, xi_max=5.0, exponent_cap=50.0):
        """Initial transform from the terminal one; refuses the ill-posed window."""
        xi1 = np.asarray(xi, dtype=float)
        w = _window_exponent(xi1, lambda: self.amplification_exponent(T, xi1),
                             xi_max, exponent_cap)
        return math.exp(w) * mu_hat(xi1 @ self.D(T).T)

    def gaussian_bound_check(self, nu, t_range, space_box):
        """Two-sided density bounds and a gradient bound on a compact box.

        Extrema of p and |grad p| over 7 grid nodes spanning [t_lo, t_hi]
        (both must be nodes) and a grid of 41 points per axis of the box,
        inflated / deflated by a safety factor of 1.1.  Passes when the
        lower constant is a strictly positive finite number (degenerate
        dispersions fail).
        """
        t_lo, t_hi = t_range
        if not 0.0 < t_lo <= t_hi <= self.ou.horizon:
            raise ValueError("time range must sit inside ]0, horizon]")
        k_lo, k_hi = (self.grid.node_index(t) for t in t_range)
        lo, hi = (np.atleast_1d(np.asarray(v, float)) for v in space_box)
        axes = [np.linspace(a, b, 41) for a, b in zip(lo, hi)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))
        p_min, p_max, g_max = math.inf, 0.0, 0.0
        ok = True
        for k in np.rint(np.linspace(k_lo, k_hi, 7)).astype(int):
            try:
                mix = self.marginal(nu, self.grid.node(k))
                p = mix.pdf(mesh)
                grad = mix.score(mesh) * p[:, None]
            except DegenerateDensityError:
                ok = False
                break
            p_min = min(p_min, float(p.min()))
            p_max = max(p_max, float(p.max()))
            g_max = max(g_max, float(np.abs(grad).max()))
        if not ok:
            return GaussianBoundReport(float("nan"), float("nan"), float("nan"),
                                       passed=False)
        c1, c2, c3 = p_min / 1.1, p_max * 1.1, g_max * 1.1
        passed = math.isfinite(c2) and c1 > 0.0
        return GaussianBoundReport(c1, c2, c3, passed=passed)


@dataclass
class GaussianBoundReport:
    """The constants are grid extrema with a safety factor, not certified."""

    lower: float
    upper: float
    gradient: float
    passed: bool


def analytic(ou, n_steps=1000):
    """The model's OUAnalytic on ``n_steps`` steps, built on first use and
    kept in the model's own dict, so it is freed with the model."""
    if n_steps not in ou._analytic:
        ou._analytic[n_steps] = OUAnalytic(ou, n_steps)
    return ou._analytic[n_steps]


def _unit_transform(xi):
    return np.ones(np.atleast_2d(xi).shape[0])


def _transform_of(init):
    if callable(init):
        return init
    return init.char_transform


def make_fourier_solution(ou, init, n_steps=1000):
    """Forward transform ``(t, xi) -> T_t(xi)`` of one model and initial law."""
    return functools.partial(analytic(ou, n_steps).char_forward,
                             _transform_of(init))


def ou_marginal(ou, init, t, n_steps=1000):
    """Gaussian-mixture marginal at time t of an OU model."""
    return analytic(ou, n_steps).marginal(init, t)


def fourier_ode_solve(ou, nu_hat, xi, grid):
    """Per-frequency linear ODE route, independent of the cached paths.

    Integrates the adjoint decay path jointly with the (log-amplitude of
    the) scalar ODE by RK4 on ``grid`` and returns the transform values at
    every node.  The log-space form of the integration is exact for this
    linear equation and stays stable where direct stepping of the stiff
    amplitude would not.  It stays RK4 for a model with constant
    coefficients too; such a model's accessors return its stored arrays.
    ``xi`` may be (d,) or (M, d).
    """
    nu_hat = _transform_of(nu_hat)
    xi2 = np.atleast_2d(np.asarray(xi, dtype=float))
    d = ou.dim_d
    dd = d * d

    def rhs(t, y):
        # joint state: the d x d decay path D, then one log-amplitude per row
        D = y[:dd].reshape(d, d)
        v = xi2 @ D.T
        a = 0.5 * np.einsum("mi,ij,mj->m", v, ou.Sigma(t), v)
        return np.concatenate([(-ou.C(t).T @ D).ravel(), a])

    y0 = np.concatenate([np.eye(d).ravel(), np.zeros(xi2.shape[0])])
    decay = _rk4_path(rhs, y0, grid)[:, dd:]
    np.exp(np.negative(decay, out=decay), out=decay)  # in place: exp(-A)
    out = nu_hat(xi2) * decay
    return out[:, 0] if np.ndim(xi) == 1 else out


def fourier_invert_terminal(ou, mu_hat, T, xi, xi_max=5.0, exponent_cap=50.0,
                            n_steps=1000):
    """Initial transform recovered from the terminal transform."""
    return analytic(ou, n_steps).invert_terminal(
        _transform_of(mu_hat), T, xi, xi_max=xi_max, exponent_cap=exponent_cap
    )


def ou_reversal_drift(ou, nu, t_reversed, x, n_steps=1000):
    """Exact density drift of the reversed dynamics at reversed time t: the
    closed-form score at T - t through ``DiffusionModel.density_drift``."""
    T = ou.horizon
    if not 0.0 <= t_reversed < T:
        raise DegenerateDensityError(f"reversal drift is singular at "
                                     f"t_reversed={t_reversed} (requires "
                                     f"0 <= t < {T})")
    score = ou_marginal(ou, nu, T - t_reversed, n_steps).score(x)
    return ou.density_drift(T - t_reversed, x, score)


def gaussian_bound_check(ou, nu, t_range, space_box, n_steps=1000):
    return analytic(ou, n_steps).gaussian_bound_check(nu, t_range, space_box)


def consistency_triangle(ou, nu, xi_values, t_values, n_steps=1000):
    """Pairwise agreement of the three forward routes.

    Routes: characteristic transform of the Gaussian marginal (via Q),
    closed-form transform (via the adjoint paths), and the per-frequency
    ODE.  The ODE route is integrated once, on the ``n_steps`` grid over
    [0, horizon] with every (t, D^-1(t) xi) row stacked, and each t is read
    at its own node, so every t must be a node of that grid.  Returns the
    three max absolute errors over the (t, xi) grid.
    """
    cache = analytic(ou, n_steps)
    tr = _transform_of(nu)
    xi2 = np.atleast_2d(np.asarray(xi_values, dtype=float))
    ts = list(t_values)
    nodes = np.repeat([cache.grid.node_index(t) for t in ts], xi2.shape[0])
    eta = np.concatenate([xi2 @ cache.D_inv(t).T for t in ts])
    # With the unit initial transform the every-node result is the real
    # decay factor (half the memory of complex values); the initial
    # transform is applied at the stop nodes only.
    decay = fourier_ode_solve(ou, _unit_transform, eta, cache.grid)
    v_odes = (tr(eta) * decay[nodes, np.arange(len(nodes))]).reshape(len(ts), -1)
    err_mf = err_fo = err_om = 0.0
    for t, v_ode in zip(ts, v_odes):
        mix = cache.marginal(nu, t)
        v_marg = mix.char_transform(xi2)
        v_four = cache.char_forward(tr, t, xi2)
        err_mf = max(err_mf, float(np.abs(v_marg - v_four).max()))
        err_fo = max(err_fo, float(np.abs(v_four - v_ode).max()))
        err_om = max(err_om, float(np.abs(v_ode - v_marg).max()))
    return {
        "marginal_vs_fourier": err_mf,
        "fourier_vs_ode": err_fo,
        "ode_vs_marginal": err_om,
        "max_error": max(err_mf, err_fo, err_om),
    }
