"""Matrix-valued ODEs behind the affine-drift Gaussian machinery.

This module hosts the package's single RK4 integrator, ``_rk4_path``,
which steps forwards from the start of a grid; the fundamental paths
below, the covariance's Lyapunov ODE and the per-frequency transform ODE
of :mod:`retrodiff.ou_analytic` run through it.  Three fundamental-solution
paths are computed on a uniform grid:

* the state resolvent   R(t) = I + integral_0^t C(s) R(s) ds,
* its adjoint decay     D(t) = I - integral_0^t C(s)^T D(s) ds,
* the adjoint inverse   E(t) = D(t)^-1 = R(t)^T,

together with the Gaussian covariance accumulated along the flow, the
solution of the Lyapunov ODE

    Q'(t) = C(t) Q(t) + Q(t) C(t)^T + Sigma(t),   Q(0) = 0.

R and D come from one builder, ``_fundamental_path``, for the generators
C(t) and -C(t)^T, and E is R's path transposed; the affine inverse routes
of :mod:`retrodiff.inverse` build their augmented flow with it too.
Generators given as callables of t are integrated by RK4.

Coefficients given as constant arrays are stepped exactly by the
semigroup instead: R_{k+1} = e^{C dt} R_k, D_{k+1} = e^{-C^T dt} D_k and
Q_{k+1} = e^{C dt} Q_k e^{C^T dt} + Q(dt), where Q(dt) comes from one Van
Loan block exponential (Van Loan, IEEE TAC 23, 1978).  Either way Q is
symmetrized at every node to kill roundoff drift.
"""

import numpy as np

from .grids import MatrixPath


def _checked(fn, what, symmetric=False):
    """``fn`` (a callable of t or a constant array) with each value checked."""
    def wrapped(t):
        m = np.asarray(fn(t) if callable(fn) else fn, dtype=float)
        if not np.isfinite(m).all():
            raise ValueError(f"{what} returned a non-finite matrix at t={t}")
        if symmetric and np.linalg.norm(m - m.T) > 1e-10 * (1.0 + np.linalg.norm(m)):
            raise ValueError(f"{what} output is not symmetric at t={t}")
        return m

    return wrapped


def _rk4_path(rhs, y0, grid):
    """Integrate Y' = rhs(t, Y) from Y(t_start) = ``y0`` with RK4.

    Entry k of the result is the value at node k.
    """
    h = grid.dt
    out = np.empty((grid.n_steps + 1,) + y0.shape)
    out[0] = y = y0
    for k in range(grid.n_steps):
        t = grid.node(k)
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2) * k1)
        k3 = rhs(t + h / 2, y + (h / 2) * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    return out


def _fundamental_path(A, grid, exact):
    """Path of M' = A(t) M, M(0) = I, at the nodes of ``grid``.

    With ``exact`` (A constant) the steps are the semigroup's,
    M_{k+1} = e^{A dt} M_k; otherwise they are RK4's.  A path that
    overflows raises a ``ValueError`` naming its first non-finite node.
    """
    A0 = A(grid.t_start)
    d = A0.shape[0]
    if not exact:
        out = _rk4_path(lambda t, y: A(t) @ y, np.eye(d), grid)
    else:
        from scipy.linalg import expm  # here, so that importing the package skips it

        E = expm(A0 * grid.dt)
        out = np.empty((grid.n_steps + 1, d, d))
        out[0] = np.eye(d)
        for k in range(grid.n_steps):
            np.matmul(E, out[k], out=out[k + 1])
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"non-finite fundamental matrix at node {k} "
                         f"(t = {grid.node(k):g})")
    return MatrixPath(grid, out)


def solve_resolvent(C_fn, grid):
    """Fundamental solution of M' = C(t) M, M(0) = I.

    ``C_fn`` is a callable of t (RK4) or a constant array (exact steps).
    """
    return _fundamental_path(_checked(C_fn, "C_fn"), grid, not callable(C_fn))


def solve_adjoint_resolvent(C_fn, grid):
    """Fundamental solution of M' = -C(t)^T M, M(0) = I.

    ``C_fn`` is a callable of t (RK4) or a constant array (exact steps).
    """
    C = _checked(C_fn, "C_fn")
    return _fundamental_path(lambda t: -C(t).T, grid, not callable(C_fn))


def solve_adjoint_resolvent_inverse(C_fn, grid):
    """Node-by-node inverse of the adjoint decay path, M(0) = I.

    Differentiating D(t) D(t)^-1 = I gives (D^-1)' = D^-1 C(t)^T, the
    transposed equation of the resolvent, so the path is R(t)^T: the
    resolvent path of ``C_fn``, transposed at every node, with the same
    RK4 or exact steps.
    """
    R = _fundamental_path(_checked(C_fn, "C_fn"), grid, not callable(C_fn))
    return MatrixPath(grid, np.swapaxes(R.values, 1, 2))


def compute_ou_covariance(C_fn, Sigma_fn, grid):
    """Covariance path Q(t) of the affine-drift Gaussian flow.

    Q(0) = 0; every Q(t) is exactly symmetric; with uniformly elliptic
    Sigma, Q(t) is strictly positive definite for t > 0.  When ``C_fn`` or
    ``Sigma_fn`` is a callable of t, RK4 integrates the Lyapunov ODE
    Q' = C Q + Q C^T + Sigma; when both are constant arrays the steps are
    exact.
    """
    C = _checked(C_fn, "C_fn")
    Sigma = _checked(Sigma_fn, "Sigma_fn", symmetric=True)
    if not (callable(C_fn) or callable(Sigma_fn)):
        return MatrixPath(grid, _exact_covariance(C(grid.t_start),
                                                  Sigma(grid.t_start), grid))

    def rhs(t, Q):
        CQ = C(t) @ Q
        return CQ + CQ.T + Sigma(t)

    Q = _rk4_path(rhs, np.zeros_like(C(grid.t_start)), grid)
    return MatrixPath(grid, 0.5 * (Q + np.transpose(Q, (0, 2, 1))))


def _exact_covariance(C, Sigma, grid):
    """Q at every node by Q_{k+1} = E Q_k E^T + Q(dt), with E = e^{C dt}.

    The block exponential of [[-C, Sigma], [0, C^T]] dt is
    [[F11, F12], [0, F22]] with F22 = E^T and F22^T F12 = Q(dt) =
    integral_0^dt e^{Cs} Sigma e^{C^T s} ds.
    """
    from scipy.linalg import expm  # here, so that importing the package skips it

    d = C.shape[0]
    F = expm(np.block([[-C, Sigma], [np.zeros((d, d)), C.T]]) * grid.dt)
    E = F[d:, d:].T
    Q_dt = E @ F[:d, d:]
    Q = np.empty((grid.n_steps + 1, d, d))
    Q[0] = 0.0
    for k in range(grid.n_steps):
        q = E @ Q[k] @ E.T + Q_dt
        Q[k + 1] = 0.5 * (q + q.T)
    return Q


def min_eigenvalue_path(path):
    """Smallest eigenvalue of each (symmetric) matrix along the path."""
    return np.array([np.linalg.eigvalsh(m)[0] for m in path.values])
