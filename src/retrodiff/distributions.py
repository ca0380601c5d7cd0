"""Initial and terminal laws: Gaussian mixtures, point masses among them.

One class, :class:`GaussianMixture`, holds every law.  A point mass at x0
is the degenerate Gaussian N(x0, 0), so :class:`DiracMixture` only checks
its points and passes zero covariances: the sampler, the transform and
the OU marginal (which carries N(x0, 0) to N(R x0, Q)) each have one rule.

The characteristic transform convention used throughout is

    T(xi) = integral exp(-i <xi, x>) mu(dx),

so for a Gaussian N(m, V) it equals exp(-i<xi, m> - <V xi, xi>/2).

``scipy.special`` is imported inside the methods that call it, so importing
the package loads no scipy module.
"""

import numpy as np

from .models import _row_products


class DegenerateDensityError(ValueError):
    """Raised when a density (or its score) is requested from a singular law."""


def _as_weights(w, count):
    w = np.asarray(w, dtype=float)
    if w.shape != (count,):
        raise ValueError("weights length does not match component count")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w}")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1 (within 1e-12)")
    return w


class GaussianMixture:
    """Finite Gaussian mixture with full covariances.

    Parameters
    ----------
    weights : (K,) non-negative, summing to 1 within 1e-12; kept as given.
    means : (K, d)
    covariances : (K, d, d) symmetric positive semi-definite.
    """

    def __init__(self, weights, means, covariances):
        means = np.atleast_2d(np.asarray(means, dtype=float))
        covs = np.asarray(covariances, dtype=float)
        if covs.ndim == 2:
            covs = covs[None]
        if means.shape[0] != covs.shape[0]:
            raise ValueError("means and covariances must have equal length")
        if covs.shape[1:] != (means.shape[1], means.shape[1]):
            raise ValueError("covariance shape does not match dimension")
        if not (np.isfinite(means).all() and np.isfinite(covs).all()):
            raise ValueError("means and covariances must be finite")
        sym_err = np.abs(covs - np.transpose(covs, (0, 2, 1))).max(initial=0.0)
        if sym_err > 1e-10 * (1.0 + np.abs(covs).max(initial=0.0)):
            raise ValueError("covariances must be symmetric")
        self.weights = _as_weights(weights, means.shape[0])
        self.means = means
        self.covariances = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
        # one eigendecomposition, shared by sampling / density / score
        vals, self._vecs = np.linalg.eigh(self.covariances)
        scale = 1.0 + np.abs(self.covariances).max(initial=0.0)
        if (vals[:, 0] < -1e-10 * scale).any():
            raise ValueError("covariance is not positive semi-definite")
        self._vals = np.clip(vals, 0.0, None)

    @property
    def dim(self):
        return self.means.shape[1]

    @property
    def n_components(self):
        return len(self.weights)

    def sample(self, n, rng):
        """n i.i.d. rows.  With every covariance zero, each row is a copy of
        its component's point and ``rng`` is left just after the component
        draw: no normals are drawn."""
        comp = rng.choice(self.n_components, size=n, p=self.weights)
        if not self._vals.any():
            return self.means[comp]
        z = rng.standard_normal((n, self.dim))
        # (K, d, d) factors L with L L^T = V
        roots = self._vecs * np.sqrt(self._vals)[:, None, :]
        return self.means[comp] + np.einsum("nij,nj->ni", roots[comp], z)

    def _require_density(self):
        if self._vals.min() <= 0.0:
            raise DegenerateDensityError("mixture has a singular component")

    def _log_component_densities(self, x):
        self._require_density()
        x = np.atleast_2d(x)
        vals, vecs = self._vals, self._vecs
        out = np.empty((x.shape[0], self.n_components))
        for k in range(self.n_components):
            y = (x - self.means[k]) @ vecs[k]
            out[:, k] = -0.5 * (
                np.sum(y * y / vals[k], axis=1)
                + np.sum(np.log(vals[k]))
                + self.dim * np.log(2.0 * np.pi)
            )
        return out

    def logpdf(self, x):
        from scipy.special import logsumexp

        single = np.ndim(x) == 1
        lc = self._log_component_densities(x)
        out = logsumexp(lc, axis=1, b=self.weights[None, :])
        return out[0] if single else out

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def score(self, x):
        """Gradient of log density, evaluated row-wise.

        Each component's gradient -V_k^{-1}(x - m_k) is weighted by its
        responsibility, computed with ``logsumexp`` from exact log weights,
        so a zero-weight component has responsibility 0 wherever it lies.
        One component has responsibility exactly 1.0, so its score is the
        gradient itself, with the same bits and without ``logsumexp``.  A
        row whose squared Mahalanobis distance overflows (|x| beyond about
        1e154) therefore gets that gradient, where the responsibility would
        be -inf - (-inf) = nan; with two or more components it gets nan.
        """
        self._require_density()
        single = np.ndim(x) == 1
        x2 = np.atleast_2d(x)
        r = None
        if self.n_components > 1:
            from scipy.special import logsumexp

            with np.errstate(divide="ignore"):
                log_w = np.log(self.weights)
            lw = self._log_component_densities(x2) + log_w[None, :]
            r = np.exp(lw - logsumexp(lw, axis=1, keepdims=True))
        vals, vecs = self._vals, self._vecs
        g = np.zeros_like(x2)
        for k in range(self.n_components):
            y = _row_products(x2 - self.means[k], vecs[k].T)
            grad = _row_products(-(y / vals[k]), vecs[k])
            g += grad if r is None else r[:, k : k + 1] * grad
        return g[0] if single else g

    def cdf1d(self, x):
        from scipy.special import ndtr

        if self.dim != 1:
            raise ValueError("cdf1d requires a one-dimensional mixture")
        self._require_density()
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sd = np.sqrt(self.covariances[:, 0, 0])
        z = (x[:, None] - self.means[:, 0][None, :]) / sd[None, :]
        # the weights sum to 1 only within rounding; a cdf stays at most 1
        return np.minimum(ndtr(z) @ self.weights, 1.0)

    def project(self, u):
        """The law of u.X, a 1-D mixture: means u.m_k, variances u^T S_k u."""
        u = np.asarray(u, dtype=float)
        var = np.einsum("i,kij,j->k", u, self.covariances, u)
        return GaussianMixture(self.weights, (self.means @ u)[:, None],
                               var[:, None, None])

    def char_transform(self, xi):
        """exp(-i<xi,.>) transform; xi of shape (d,) or (M, d)."""
        xi2 = np.atleast_2d(np.asarray(xi, dtype=float))
        phase = xi2 @ self.means.T                      # (M, K)
        quad = np.einsum("mi,kij,mj->mk", xi2, self.covariances, xi2)
        out = np.exp(-1j * phase - 0.5 * quad) @ self.weights
        return out[0] if np.ndim(xi) == 1 else out


class DiracMixture(GaussianMixture):
    """Weighted list of point masses: zero-covariance Gaussian components.

    ``score``, ``logpdf`` and ``cdf1d`` raise :class:`DegenerateDensityError`,
    as for any singular mixture.  ``sample`` returns copies of the points,
    bit for bit (-0.0 included), and draws nothing after the component
    draw.
    """

    def __init__(self, points, weights=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if 0 in points.shape:
            raise ValueError(f"points must be a non-empty (K, d) list with "
                             f"d >= 1, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        K, d = points.shape
        if weights is None:
            weights = np.full(K, 1.0 / K)
        super().__init__(weights, points, np.zeros((K, d, d)))


def gaussian(mean, cov):
    """Single Gaussian as a one-component mixture (scalars allowed in d=1)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov * np.eye(len(mean))
    return GaussianMixture([1.0], [mean], [cov])


def dirac(point):
    """Single point mass."""
    return DiracMixture([np.atleast_1d(np.asarray(point, dtype=float))])
