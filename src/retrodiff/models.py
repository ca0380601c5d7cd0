"""Diffusion coefficient models and their empirical regularity checks.

A model bundles a drift b(t, x) and a dispersion sigma(t, x) together with
their stated derivatives.  Evaluation is vectorized over particles:
``drift(t, x)`` takes x of shape (..., d) and returns (..., d), and
``dispersion(t, x)`` returns (..., d, m) (a constant (d, m) matrix is
accepted and broadcast).  Models are immutable after construction and all
evaluation is reentrant.  An :class:`OUModel` is a :class:`DiffusionModel`
that also keeps its coefficients as functions of t for the closed forms.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .streams import LIPSCHITZ_PROBE, substream


@dataclass(frozen=True)
class DiffusionModel:
    """Coefficients of a forward diffusion on [0, horizon].

    The derivatives are stated, never approximated: ``jac_drift(t, x) ->
    (d, d)`` and ``jac_dispersion(t, x) -> (d, m, d)`` (entry [i, j, l] =
    d sigma_ij / d x_l) feed the Lipschitz estimate, and ``div_sigma_rows(t,
    x) -> (..., d)``, the row divergence of sigma sigma^T, the reversal
    drift.  Each is optional, so a model without them still runs forward,
    but its ``*_at`` accessor raises a ``ValueError`` that names it.  Every
    named family states all three.  The horizon must be positive and finite.
    """

    dim_d: int
    dim_m: int
    drift: callable
    dispersion: callable
    horizon: float = 1.0
    jac_drift: callable = None
    jac_dispersion: callable = None
    div_sigma_rows: callable = None
    name: str = ""

    def __post_init__(self):
        _dimension(self.dim_d)
        _dimension(self.dim_m)
        _horizon(self.horizon)

    def sigma(self, t, x):
        s = np.asarray(self.dispersion(t, x), dtype=float)
        return _over_rows(s, x)

    def sigma_sigma_T(self, t, x):
        """One product for an x-independent sigma, broadcast like sigma."""
        s = np.asarray(self.dispersion(t, x), dtype=float)
        return _over_rows(np.einsum("...ik,...jk->...ij", s, s), x)

    def density_drift(self, t, x, score):
        """div(Sigma p) / p = div_x Sigma_i. + <Sigma_i., score> at forward
        time t, row by row: the one place where Sigma meets a score."""
        dens = np.einsum("...ij,...j->...i", self.sigma_sigma_T(t, x), score)
        return self.div_sigma_rows_at(t, x) + dens

    def as_diffusion_model(self):
        """The model itself, for callers written against a conversion."""
        return self

    # --- the stated derivatives, refused by name when absent ---

    def jac_drift_at(self, t, x):
        return self._derivative("jac_drift", t, x)

    def jac_dispersion_at(self, t, x):
        return self._derivative("jac_dispersion", t, x)

    def div_sigma_rows_at(self, t, x):
        """Row divergence of Sigma = sigma sigma^T, batched over x rows."""
        return self._derivative("div_sigma_rows", t, x)

    def _derivative(self, name, t, x):
        fn = getattr(self, name)
        if fn is None:
            raise ValueError(f"the model states no {name}, which this "
                             f"computation needs")
        return np.asarray(fn(t, x), dtype=float)


def _row_products(x, M):
    """``x @ M.T`` for a batch of rows x, with the bits of that matmul.

    For a 1 x 1 M this is one elementwise product, which at 2.5e4 rows is
    an order faster than numpy's (n, 1) @ (1, 1) matmul.  Adding 0.0 gives
    the matmul's +0.0 accumulator, so a -0.0 product comes out +0.0 as it
    does from the matmul.  A nan M stays on the matmul: there nan times nan
    keeps the sign of x's nan, where numpy's vector loops may keep M's.
    """
    if M.shape != (1, 1) or math.isnan(M[0, 0]):
        return x @ M.T
    out = np.multiply(x, M[0, 0])
    out += 0.0
    return out


def _over_rows(a, x):
    """``a`` broadcast over the rows of a batch x if it is one matrix."""
    rows = np.shape(x)[:-1]
    return np.broadcast_to(a, rows + a.shape) if rows and a.ndim == 2 else a


def _frozen(a):
    """A read-only view: a constant coefficient is shared by every call."""
    a = a.view()
    a.flags.writeable = False
    return a


def _horizon(T):
    """The horizon as a float, refused unless positive and finite."""
    T = float(T)
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {T}")
    return T


def _dimension(d):
    """The state dimension, refused below 1."""
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    return d


class OUModel(DiffusionModel):
    """Affine-drift model b(t, x) = C(t) x with space-independent sigma(t).

    A :class:`DiffusionModel` that keeps ``C`` and ``Sigma`` as functions
    of t for the closed forms.  Each coefficient is either a callable of t
    or a constant array, which is reshaped once here.  When both are
    constant (``constant`` is true), the resolvent and covariance paths of
    :class:`~retrodiff.ou_analytic.OUAnalytic` are stepped exactly by the
    semigroup; callables are integrated by RK4.
    """

    def __init__(self, C_fn, sigma_fn, dim_d, dim_m=None, horizon=1.0):
        d = _dimension(dim_d)
        m = _dimension(d if dim_m is None else dim_m)
        if not callable(C_fn):
            C_fn = _frozen(np.asarray(C_fn, dtype=float).reshape(d, d))
        if not callable(sigma_fn):
            sigma_fn = _frozen(np.asarray(sigma_fn, dtype=float).reshape(d, m))

        def sigma_of_t(t):
            if not callable(sigma_fn):
                return sigma_fn
            return np.asarray(sigma_fn(t), dtype=float).reshape(d, m)

        disp, jac_s, div_rows = _constant_dispersion(sigma_of_t, d, m)
        super().__init__(
            dim_d=d,
            dim_m=m,
            drift=lambda t, x: _row_products(np.asarray(x, float), self.C(t)),
            dispersion=disp,
            horizon=_horizon(horizon),
            jac_drift=lambda t, x: self.C(t),
            jac_dispersion=jac_s,
            div_sigma_rows=div_rows,
            name="ou",
        )
        # past the frozen dataclass's __setattr__: set once, like its fields;
        # _analytic is ou_analytic.analytic's {n_steps: OUAnalytic}
        vars(self).update(
            C_fn=C_fn, sigma_fn=sigma_fn, _analytic={},
            constant=not (callable(C_fn) or callable(sigma_fn)),
            _Sigma=None if callable(sigma_fn) else _frozen(sigma_fn @ sigma_fn.T))

    def C(self, t):
        if not callable(self.C_fn):
            return self.C_fn
        return np.asarray(self.C_fn(t), dtype=float).reshape(self.dim_d, self.dim_d)

    def Sigma(self, t):
        if not callable(self.sigma_fn):
            return self._Sigma
        s = self.dispersion(t, None)
        return s @ s.T


@dataclass
class EllipticityReport:
    """Hoelder regularity of the coefficients is assumed, not certified."""

    epsilon: float
    min_eigenvalue: float
    passed: bool


def check_ellipticity(model, sample_points, epsilon):
    """Smallest eigenvalue of sigma sigma^T over a finite sample of (t, x).

    Passes when the sampled minimum is >= epsilon.  The sample must be
    non-empty.
    """
    pts = list(sample_points)
    if not pts:
        raise ValueError("sample_points must be non-empty")
    best = math.inf
    for t, x in pts:
        S = model.sigma_sigma_T(t, np.asarray(x, dtype=float))
        best = min(best, float(np.linalg.eigvalsh(S)[0]))
    return EllipticityReport(
        epsilon=float(epsilon),
        min_eigenvalue=best,
        passed=best >= epsilon,
    )


@dataclass
class LipschitzEstimate:
    """Sampled suprema of coefficient Jacobian norms.

    K = 2 K_b + sum_j K_sigma_j^2 feeds the Gronwall moment bound.  The
    values are sampled lower bounds of the true suprema, never certified
    upper bounds.
    """

    K_b: float
    K_sigma: np.ndarray
    n_probes: int

    @property
    def K(self):
        return 2.0 * self.K_b + float(np.sum(self.K_sigma**2))


def estimate_lipschitz(model, domain_box, t_samples, n_probes, seed):
    """Monte Carlo estimate of the Jacobian-norm suprema over a box.

    One probe is drawn uniformly per iteration, followed by one local
    refinement draw around the current maximizer; both come from a single
    deterministic stream, so the evaluated set for n probes is a prefix of
    the set for n + k probes and the estimate is monotone in n_probes.
    """
    lo, hi = (np.asarray(v, dtype=float) for v in domain_box)
    if lo.shape != hi.shape or (hi <= lo).any():
        raise ValueError("domain_box must have positive volume")
    t_samples = list(t_samples)
    if not t_samples:
        raise ValueError("t_samples must be non-empty")
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    rng = substream(seed, LIPSCHITZ_PROBE)
    radius = 0.05 * (hi - lo)

    K_b = 0.0
    K_s = np.zeros(model.dim_m)
    best_x = None

    def visit(x):
        nonlocal K_b, K_s, best_x
        for t in t_samples:
            jb = np.linalg.norm(model.jac_drift_at(t, x))
            js = model.jac_dispersion_at(t, x)  # (d, m, d)
            col_norms = np.linalg.norm(js, axis=(0, 2))
            total = 2.0 * jb + np.sum(col_norms**2)
            if best_x is None or total > visit.best_total:
                visit.best_total = total
                best_x = x
            K_b = max(K_b, jb)
            K_s = np.maximum(K_s, col_norms)

    visit.best_total = -math.inf
    for _ in range(int(n_probes)):
        visit(rng.uniform(lo, hi))
        visit(np.clip(best_x + radius * rng.standard_normal(lo.shape), lo, hi))
    return LipschitzEstimate(K_b=float(K_b), K_sigma=K_s, n_probes=int(n_probes))


# ---------------------------------------------------------------------------
# named coefficient families (loadable from the batch-runner config file)
# ---------------------------------------------------------------------------


def _finite(name, value):
    """``value`` as a float array, refused unless every entry is finite."""
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {value}")
    return a


def _constant_dispersion(sigma_of_t, d, m):
    """``(dispersion, jac_dispersion, div_sigma_rows)`` of an x-independent
    (d, m) dispersion ``sigma_of_t(t)``: both derivatives are exact zeros."""
    return (lambda t, x: sigma_of_t(t),
            lambda t, x: np.zeros((d, m, d)),
            lambda t, x: np.zeros(np.shape(x) if np.ndim(x) > 1 else (d,)))


def _sigma_family(spec, dim):
    """Dispersion from a spec: any real constant, or sqrt(1+x^2) clipped."""
    if isinstance(spec, numbers.Real):
        const = float(_finite("sigma_spec", spec)) * np.eye(dim)
        return _constant_dispersion(lambda t: const, dim, dim)
    kind, clip = spec
    if kind != "sqrt1px2" or dim != 1:
        raise ValueError(f"unknown dispersion spec {spec!r}")
    c2 = float(_finite("clip", clip)) ** 2

    def disp(t, x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(1.0 + np.minimum(x * x, c2))[..., None]

    def jac(t, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < np.sqrt(c2)
        g = np.where(inside, x / np.sqrt(1.0 + np.minimum(x * x, c2)), 0.0)
        return np.asarray(g, dtype=float).reshape(1, 1, 1)

    def div_rows(t, x):
        # d/dx (1 + min(x^2, c^2)) = 2x inside the clip, 0 outside
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < np.sqrt(c2), 2.0 * x, 0.0)

    return disp, jac, div_rows


def heat_model(dim=1, scale=1.0, horizon=1.0):
    """Zero drift, sigma = scale * I; marginals from a point are N(x0, scale^2 t I)."""
    dim = _dimension(dim)
    return OUModel(np.zeros((dim, dim)), _finite("scale", scale) * np.eye(dim),
                   dim_d=dim, horizon=horizon)


def ou_model(C, sigma, horizon=1.0):
    """Constant OU model: drift C x, dispersion sigma (d rows, m columns)."""
    C = np.atleast_2d(_finite("C", C))
    sigma = np.atleast_2d(_finite("sigma", sigma))
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"C has shape {C.shape}, but must be square")
    d = C.shape[0]
    if sigma.ndim != 2 or sigma.shape[0] != d:
        raise ValueError(f"sigma has shape {sigma.shape}, but C of shape "
                         f"{C.shape} needs {d} rows")
    return OUModel(C, sigma, dim_d=d, dim_m=sigma.shape[1], horizon=horizon)


def affine_model(b0, b1, sigma_spec=1.0, horizon=1.0):
    """Drift b0 + b1 x with a numeric dispersion spec (see _sigma_family)."""
    b0 = np.atleast_1d(_finite("b0", b0))
    b1 = np.atleast_2d(_finite("b1", b1))
    d = b0.shape[0]
    if b1.shape != (d, d):
        raise ValueError(f"b1 has shape {b1.shape}, but b0 of length {d} "
                         f"needs ({d}, {d})")
    disp, jac_s, div_rows = _sigma_family(sigma_spec, d)
    return DiffusionModel(
        dim_d=d,
        dim_m=d,
        drift=lambda t, x: b0 + _row_products(np.asarray(x, float), b1),
        dispersion=disp,
        horizon=horizon,
        jac_drift=lambda t, x: b1,
        jac_dispersion=jac_s,
        div_sigma_rows=div_rows,
        name="affine",
    )


def sin_drift_model(amplitude=1.0, sigma_spec=1.0, horizon=1.0):
    """One-dimensional drift a*sin(x): bounded, Lipschitz with constant |a|."""
    a = float(_finite("amplitude", amplitude))
    disp, jac_s, div_rows = _sigma_family(sigma_spec, 1)
    return DiffusionModel(
        dim_d=1,
        dim_m=1,
        drift=lambda t, x: a * np.sin(np.asarray(x, float)),
        dispersion=disp,
        horizon=horizon,
        jac_drift=lambda t, x: np.atleast_2d(a * np.cos(np.asarray(x, float))),
        jac_dispersion=jac_s,
        div_sigma_rows=div_rows,
        name="sin-drift",
    )


def piecewise_model(breakpoints, rates, sigmas, horizon=None):
    """Scalar piecewise-homogeneous family: b = rate_k x, sigma = sigma_k.

    Interval k is ]t_{k-1}, t_k], except the first, which is [t_0, t_1]: at
    a breakpoint the left interval applies, to the drift, its Jacobian
    [[rate_k]] and sigma alike.  The horizon is the last breakpoint.
    sigma's derivatives are exact zeros.
    """
    bp = _finite("breakpoints", breakpoints)
    if bp.ndim != 1 or len(bp) < 2:
        raise ValueError("need at least two breakpoints (0 and T)")
    if not (np.diff(bp) > 0).all():
        raise ValueError("breakpoints must be strictly increasing")
    if len(rates) != len(bp) - 1 or len(sigmas) != len(bp) - 1:
        raise ValueError("one coefficient pair per interval is required")
    if horizon is not None and not abs(bp[-1] - horizon) <= 1e-12:
        raise ValueError("last breakpoint must equal the horizon")
    _finite("rates", rates)
    rates = list(rates)
    sigmas = [np.array([[s]]) for s in _finite("sigmas", sigmas)]

    def interval(t):
        if not bp[0] <= t <= bp[-1]:
            raise ValueError(f"t={t} outside [{bp[0]}, {bp[-1]}]")
        if t <= bp[1]:
            return 0
        return int(np.searchsorted(bp[1:], t, side="left"))

    def drift(t, x):
        return rates[interval(t)] * np.asarray(x, dtype=float)

    disp, jac_s, div_rows = _constant_dispersion(
        lambda t: sigmas[interval(t)], 1, 1)
    return DiffusionModel(dim_d=1, dim_m=1, drift=drift, dispersion=disp,
                          horizon=float(bp[-1]),
                          jac_drift=lambda t, x: np.array(
                              [[rates[interval(t)]]], dtype=float),
                          jac_dispersion=jac_s, div_sigma_rows=div_rows,
                          name="piecewise")


def make_model(family, **params):
    """Factory for the named coefficient families."""
    builders = {
        "heat": heat_model,
        "ou": ou_model,
        "affine": affine_model,
        "sin-drift": sin_drift_model,
        "piecewise": piecewise_model,
    }
    if family not in builders:
        raise ValueError(f"unknown model family {family!r}")
    return builders[family](**params)
