"""
Recovering the source location from terminal data
=================================================
Three identification routes: the exact backward mean ODE for affine
drifts (here a rotation, where naive intuition fails and the matrix
exponential is the oracle), its Monte Carlo front end with a propagated
standard error, and brute-force nearest-candidate search for a generic
model.  A Fourier route recovers the location from the phase slope of the
deconvolved transform.
"""

import numpy as np
from scipy.linalg import expm

from retrodiff import (
    AffineDrift,
    DiracMixture,
    TimeGrid,
    euler_maruyama_path,
    extract_source_location,
    gaussian,
    heat_initial_transform,
    reconstruct_dirac_affine,
    reconstruct_dirac_affine_mc,
    reconstruct_dirac_search,
    sample_initial,
)
from retrodiff.models import heat_model, ou_model

# rotation drift: quarter turn over the horizon
b1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
T = np.pi / 2
drift = AffineDrift.constant([0.0, 0.0], b1)
x0 = np.array([1.0, 0.0])
terminal_mean = expm(b1 * T) @ x0
x_hat = reconstruct_dirac_affine(drift, terminal_mean, TimeGrid(0.0, T, 1000))
print(f"rotation: terminal mean {np.round(terminal_mean, 3)} -> "
      f"x_hat {np.round(x_hat, 6)} (true {x0})")

# Monte Carlo route under b = -x
ou = ou_model(C=-1.0, sigma=1.0)
grid = TimeGrid(0.0, 1.0, 400)
init = sample_initial(DiracMixture([[2.0]]), 10**5, seed=7)
cloud = euler_maruyama_path(ou, init, grid, seed=7,
                            store_every=grid.n_steps).terminal
xh, se = reconstruct_dirac_affine_mc(AffineDrift.constant([0.0], [[-1.0]]),
                                     1.0, cloud, grid)
print(f"Monte Carlo: x_hat {xh[0]:.4f} +- {se:.4f} (true 2.0, "
      f"error/stderr = {abs(xh[0] - 2.0) / se:.2f})")

# grid search against a heat cloud
model = heat_model(dim=1)
init = sample_initial(DiracMixture([[0.5]]), 20000, seed=8)
target = euler_maruyama_path(model, init, TimeGrid(0.0, 1.0, 200), seed=8,
                             store_every=200).terminal
res = reconstruct_dirac_search(model, target,
                               [[-1.0], [-0.5], [0.0], [0.5], [1.0]],
                               T=1.0, n=20000, seed=9)
print("grid search scores:")
for cand, dist, tied in res.table:
    mark = " <-- tied" if tied else ""
    print(f"  candidate {cand[0]:+.1f}: W1 = {dist:.4f}{mark}")
print(f"  x_hat = {res.x_hat[0]}")

# Fourier phase route for the unnormalized-Laplacian heat flow
x0 = np.array([1.3, -0.4])
mu_hat = gaussian(x0, 2.0 * 0.7 * np.eye(2)).char_transform
est = extract_source_location(lambda xi: heat_initial_transform(mu_hat, 0.7, xi),
                              dim=2)
print(f"Fourier phase route: x_hat {np.round(est, 6)} (true {x0})")
