"""
Resolvent matrices and the accumulated covariance
=================================================
The affine-drift machinery rests on three matrix ODE paths driven by the
drift matrix C(t): the state resolvent R (R' = C R), the adjoint decay D
(D' = -C^T D) and its inverse, plus the covariance Q(t) accumulated along
the flow.  This script integrates them for a rotating, time-dependent
drift, checks the product identity D D^-1 = I, and shows the RK4 order
by halving the step against a matrix-exponential reference.  A constant C
given as an array is stepped exactly by the semigroup instead of by RK4.
"""

import numpy as np
from scipy.linalg import expm

from retrodiff import (
    TimeGrid,
    compute_ou_covariance,
    min_eigenvalue_path,
    solve_adjoint_resolvent,
    solve_adjoint_resolvent_inverse,
    solve_resolvent,
)


def C(t):
    return np.array([[0.2, 1.0 + 0.5 * np.sin(2 * np.pi * t)],
                     [-1.0, -0.3 * t]])


def Sigma(t):
    return np.array([[1.0, 0.2], [0.2, 0.8]])


grid = TimeGrid(0.0, 1.0, 1000)
R = solve_resolvent(C, grid)
D = solve_adjoint_resolvent(C, grid)
Dinv = solve_adjoint_resolvent_inverse(C, grid)
Q = compute_ou_covariance(C, Sigma, grid)

prod = np.einsum("kij,kjl->kil", D.values, Dinv.values)
defect = np.linalg.norm(prod - np.eye(2), axis=(1, 2)).max()
print(f"max ||D D^-1 - I||_F over {grid.n_steps + 1} nodes: {defect:.3e}")

lam = min_eigenvalue_path(Q)
print(f"Q(0) = 0, min eigenvalue of Q(t) for t >= dt: {lam[1:].min():.3e} > 0")
print(f"Q(1) =\n{np.round(Q.at(1.0), 6)}")

# RK4 order: constant drift has the exact exponential as oracle
C0 = np.array([[0.3, 1.2], [-0.7, 0.1]])
errs = []
for n in (40, 80, 160):
    path = solve_resolvent(lambda t: C0, TimeGrid(0.0, 1.0, n))
    errs.append(np.linalg.norm(path.at(1.0) - expm(C0)))
print("step-halving error ratios (expect ~16):",
      [round(errs[i] / errs[i + 1], 1) for i in range(2)])
exact = solve_resolvent(C0, TimeGrid(0.0, 1.0, 40))
print("constant C as an array, exact steps: error at 40 steps "
      f"{np.linalg.norm(exact.at(1.0) - expm(C0)):.1e}")
