"""Matrix-valued ODEs behind the affine-drift Gaussian machinery.

This module hosts the package's single RK4 integrator, ``_rk4_path``,
which steps forwards from the start of a grid or backwards from its end;
the per-frequency transform ODE and the backward mean ODE of the inverse
routes run through it too.  Three fundamental-solution paths are
integrated with it on a uniform grid:

* the state resolvent   R(t) = I + integral_0^t C(s) R(s) ds,
* its adjoint decay     D(t) = I - integral_0^t C(s)^T D(s) ds,
* the adjoint inverse   E(t) = I + integral_0^t E(s) C(s)^T ds = R(t)^T,

together with the Gaussian covariance accumulated along the flow,

    Q(t) = R(t) [ integral_0^t R(s)^-1 Sigma(s) R(s)^-T ds ] R(t)^T.

The inner integral is advanced jointly with R so no inverse path has to be
stored; per-stage inverses are obtained by LU solves.  Q is symmetrized at
every node to kill roundoff drift.
"""

import numpy as np

from .grids import MatrixPath


def _checked(fn, what):
    def wrapped(t):
        m = np.asarray(fn(t), dtype=float)
        if not np.isfinite(m).all():
            raise ValueError(f"{what} returned a non-finite matrix at t={t}")
        return m

    return wrapped


def _rk4_path(rhs, y0, grid, backward=False):
    """Integrate Y' = rhs(t, Y) with RK4; returns values at every node.

    ``y0`` is the value at ``t_start``, or at ``t_end`` when ``backward``
    (then the steps run from node n down to node 0 with step -dt).  Entry k
    of the result is the value at node k in either direction.
    """
    n = grid.n_steps
    h, step, start = (-grid.dt, -1, n) if backward else (grid.dt, 1, 0)
    out = np.empty((n + 1,) + y0.shape)
    out[start] = y0
    y = y0
    for k in range(start, start + step * n, step):
        t = grid.node(k)
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2) * k1)
        k3 = rhs(t + h / 2, y + (h / 2) * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + step] = y
    return out


def solve_resolvent(C_fn, grid):
    """Fundamental solution of M' = C(t) M, M(0) = I."""
    C = _checked(C_fn, "C_fn")
    d = C(grid.t_start).shape[0]
    values = _rk4_path(lambda t, y: C(t) @ y, np.eye(d), grid)
    return MatrixPath(grid, values)


def solve_adjoint_resolvent(C_fn, grid):
    """Fundamental solution of M' = -C(t)^T M, M(0) = I."""
    C = _checked(C_fn, "C_fn")
    d = C(grid.t_start).shape[0]
    values = _rk4_path(lambda t, y: -C(t).T @ y, np.eye(d), grid)
    return MatrixPath(grid, values)


def solve_adjoint_resolvent_inverse(C_fn, grid):
    """Node-by-node inverse of the adjoint decay path, M(0) = I.

    Differentiating D(t) D(t)^-1 = I gives (D^-1)' = D^-1 C(t)^T, with the
    generator acting on the right; with left multiplication the product
    identity only holds when the C(s) commute.  The scalar case reduces to
    exp(+ integral of c), and the product defect is checked to 1e-8 in the
    tests.
    """
    C = _checked(C_fn, "C_fn")
    d = C(grid.t_start).shape[0]
    values = _rk4_path(lambda t, y: y @ C(t).T, np.eye(d), grid)
    return MatrixPath(grid, values)


def _checked_sigma(Sigma_fn):
    def wrapped(t):
        s = np.asarray(Sigma_fn(t), dtype=float)
        if not np.isfinite(s).all():
            raise ValueError(f"Sigma_fn returned a non-finite matrix at t={t}")
        if np.linalg.norm(s - s.T) > 1e-10 * (1.0 + np.linalg.norm(s)):
            raise ValueError(f"Sigma_fn output is not symmetric at t={t}")
        return s

    return wrapped


def compute_ou_covariance(C_fn, Sigma_fn, grid):
    """Covariance path Q(t) of the affine-drift Gaussian flow.

    Q(0) = 0; every Q(t) is exactly symmetric; with uniformly elliptic
    Sigma, Q(t) is strictly positive definite for t > 0.
    """
    C = _checked(C_fn, "C_fn")
    Sigma = _checked_sigma(Sigma_fn)
    d = C(grid.t_start).shape[0]

    def rhs(t, y):
        R, J = y
        G = np.linalg.solve(R, Sigma(t))
        return np.stack([C(t) @ R, np.linalg.solve(R, G.T).T])

    y0 = np.stack([np.eye(d), np.zeros((d, d))])
    path = _rk4_path(rhs, y0, grid)
    R, J = path[:, 0], path[:, 1]
    Q = np.einsum("kij,kjl,kml->kim", R, J, R)
    Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))
    Q[0] = 0.0
    return MatrixPath(grid, Q)


def integral_defect(path, rhs_fn):
    """Max Frobenius defect of Y(t) = Y(0) + integral of rhs_fn(s, Y(s)).

    The integral is approximated by composite Simpson quadrature on the
    stored nodes (so the defect is evaluated at even-indexed nodes); both
    the integrator and the quadrature are fourth order, which is what the
    step-halving order check in the tests relies on.
    """
    grid, Y = path.grid, path.values
    h = grid.dt
    F = np.array([rhs_fn(grid.node(k), Y[k]) for k in range(len(Y))])
    defect = 0.0
    acc = np.zeros_like(Y[0])
    for k in range(2, len(Y), 2):
        acc = acc + (h / 3.0) * (F[k - 2] + 4.0 * F[k - 1] + F[k])
        defect = max(defect, np.linalg.norm(Y[k] - Y[0] - acc))
    return defect


def min_eigenvalue_path(path):
    """Smallest eigenvalue of each (symmetric) matrix along the path."""
    return np.array([np.linalg.eigvalsh(m)[0] for m in path.values])
