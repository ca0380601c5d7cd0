"""
Forward particle clouds and the Gronwall moment bound
=====================================================
Euler-Maruyama ensembles for a mean-reverting model, compared against the
closed-form Gaussian marginal, plus the synchronous-coupling check of the
second-moment growth bound E|X^x_t - X^y_t|^2 <= |y-x|^2 exp(K T) with K
built from sampled Jacobian suprema.
"""

import io

from retrodiff import (
    DiracMixture,
    TimeGrid,
    check_moment_bound,
    empirical_moments,
    euler_maruyama_path,
    export_snapshots_csv,
    ou_marginal,
    sample_initial,
)
from retrodiff.models import ou_model, sin_drift_model

ou = ou_model(C=-1.0, sigma=1.0)
grid = TimeGrid(0.0, 1.0, 500)
init = sample_initial(DiracMixture([[2.0]]), 20000, seed=1)
path = euler_maruyama_path(ou, init, grid, seed=1)

mean, cov = empirical_moments(path.terminal)
exact = ou_marginal(ou, DiracMixture([[2.0]]), 1.0)
print(f"terminal mean {mean[0]:+.4f} vs exact {exact.means[0, 0]:+.4f}")
print(f"terminal var  {cov[0, 0]:.4f} vs exact {exact.covariances[0, 0, 0]:.4f}")

buf = io.StringIO()
export_snapshots_csv(path, buf)
print("snapshot CSV header + first row:")
print("\n".join(buf.getvalue().split("\n")[:2]))

print("\nGronwall bound, sinusoidal drift with state-dependent dispersion:")
model = sin_drift_model(1.0, sigma_spec=("sqrt1px2", 10.0))
rep = check_moment_bound(model, [0.0], [1.0], TimeGrid(0.0, 1.0, 100),
                         n=10000, seed=2)
print(f"  K = {rep.K:.3f}, {rep.summary()}")
print(f"  small-horizon margin K*T/2*e^(K*T/2) = {rep.small_horizon_margin:.2f}"
      f" (uniqueness regime needs < ~0.567)")
