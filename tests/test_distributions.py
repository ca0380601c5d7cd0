"""Distribution types: validation, sampling determinism, transforms."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from retrodiff import (
    DegenerateDensityError,
    DiracMixture,
    GaussianMixture,
    dirac,
    gaussian,
    substream,
)
from retrodiff.models import ou_model
from retrodiff.ou_analytic import analytic


def test_weights_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(ValueError, match="non-negative"):
        DiracMixture([[0.0], [1.0]], [-0.5, 1.5])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: DiracMixture([[0.0], [1.0]], [np.nan, np.nan]),
                 "weights must be finite", id="dirac-nan-weights"),
    pytest.param(lambda: DiracMixture([[0.0], [1.0]], [np.inf, -np.inf]),
                 "weights must be finite", id="dirac-inf-weights"),
    pytest.param(lambda: GaussianMixture([np.nan], [[0.0]], [np.eye(1)]),
                 "weights must be finite", id="gaussian-nan-weight"),
    pytest.param(lambda: DiracMixture(np.empty((0, 1))), r"shape \(0, 1\)",
                 id="dirac-no-points"),
    pytest.param(lambda: DiracMixture([]), r"shape \(1, 0\)",
                 id="dirac-empty-list"),
    pytest.param(lambda: DiracMixture(np.empty((0, 1)), np.empty(0)),
                 r"shape \(0, 1\)", id="dirac-no-points-no-weights"),
])
def test_mixtures_refuse_nan_weights_and_empty_points(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_covariance_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMixture([1.0], [[0.0, 0.0]], [np.array([[1.0, 0.5], [0.0, 1.0]])])
    with pytest.raises(ValueError, match="semi-definite"):
        GaussianMixture([1.0], [[0.0, 0.0]], [np.diag([1.0, -0.2])])
    for mean, cov in (([np.nan], 1.0), ([0.0], np.nan), ([np.inf], 1.0),
                      ([0.0], np.inf)):
        with pytest.raises(ValueError, match="finite"):
            gaussian(mean, cov)


def test_gaussian_moments_and_density():
    g = gaussian([1.0, -2.0], np.diag([2.0, 0.5]))
    assert np.array_equal(g.means, [[1.0, -2.0]])
    assert np.array_equal(g.covariances, [np.diag([2.0, 0.5])])
    # peak density of N(m, V)
    oracle = 1.0 / (2 * np.pi * np.sqrt(2.0 * 0.5))
    assert abs(g.pdf(np.array([1.0, -2.0])) - oracle) < 1e-14


def test_gaussian_score_is_exact():
    g = gaussian(0.5, 2.0)
    xs = np.linspace(-3, 3, 7)[:, None]
    assert np.allclose(g.score(xs), -(xs - 0.5) / 2.0, atol=1e-14)
    x = np.array([0.3, -1.2])
    assert np.allclose(gaussian([0.0, 0.0], np.eye(2)).score(x), -x, atol=1e-14)


def _responsibility_score(mix, x):
    """The score as a responsibility-weighted sum of component gradients."""
    lw = mix._log_component_densities(x) + np.log(mix.weights)[None, :]
    r = np.exp(lw - scipy.special.logsumexp(lw, axis=1, keepdims=True))
    g = np.zeros_like(x)
    for k in range(mix.n_components):
        y = (x - mix.means[k]) @ mix._vecs[k]
        g += r[:, k : k + 1] * (-(y / mix._vals[k]) @ mix._vecs[k].T)
    return g


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_component_score_is_the_responsibility_formula(data):
    # one component has responsibility exactly 1.0, so skipping it keeps
    # every bit, for covariances from 1e-3 to 1e3 and points 1e3 away
    d = data.draw(st.integers(1, 3))
    A = data.draw(arrays(np.float64, (d, d), elements=st.floats(-1.0, 1.0)))
    q = np.linalg.qr(A)[0]
    ev = 10.0 ** data.draw(arrays(np.float64, d, elements=st.floats(-3.0, 3.0)))
    cov = (q * ev) @ q.T
    mean = data.draw(arrays(np.float64, d, elements=st.floats(-10.0, 10.0)))
    mix = gaussian(mean, 0.5 * (cov + cov.T))
    offsets = data.draw(arrays(np.float64, (4, d),
                               elements=st.floats(-1e3, 1e3)))
    x = mean + offsets
    assert_array_equal(mix.score(x), _responsibility_score(mix, x))
    assert_array_equal(mix.score(x[0]), _responsibility_score(mix, x[:1])[0])


def test_one_component_score_skips_logsumexp(monkeypatch):
    calls = []
    lse = scipy.special.logsumexp

    def spy(*args, **kwargs):
        calls.append(args)
        return lse(*args, **kwargs)

    monkeypatch.setattr(scipy.special, "logsumexp", spy)
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    gaussian(0.5, 2.0).score(x)
    gaussian([0.0, 1.0], np.eye(2)).score(np.ones(2))
    assert calls == []
    GaussianMixture([0.4, 0.6], [[0.0], [1.0]], [np.eye(1), 2.0 * np.eye(1)]
                    ).score(x)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_zero_weight_components_leave_the_score_alone(data):
    # a zero weight is log 0 = -inf, not e^-690.8: near its own mean a
    # zero-weight component must not take over
    mix = data.draw(mixtures(kinds=("gaussian",)))
    d = mix.dim
    n_zero = data.draw(st.integers(1, 3))
    means = data.draw(arrays(np.float64, (n_zero, d),
                             elements=st.floats(-100.0, 100.0)))
    var = data.draw(arrays(np.float64, n_zero, elements=st.floats(0.01, 4.0)))
    w, m, c = list(mix.weights), list(mix.means), list(mix.covariances)
    for mean, v in zip(means, var):
        at = data.draw(st.integers(0, len(w)))
        w.insert(at, 0.0)
        m.insert(at, mean)
        c.insert(at, v * np.eye(d))
    padded = GaussianMixture(w, m, c)
    near = data.draw(arrays(np.float64, (3, d), elements=st.floats(-4.0, 4.0)))
    x = np.concatenate([near, means])
    with np.errstate(divide="raise", invalid="raise"):
        assert_array_equal(padded.score(x), mix.score(x))


def test_mixture_score_matches_finite_difference():
    mix = GaussianMixture(
        [0.3, 0.7], [[-1.0], [1.0]], [np.array([[0.5]]), np.array([[1.5]])]
    )
    h = 1e-6
    for x in (-0.7, 0.0, 0.4, 2.0):
        fd = (mix.logpdf(np.array([x + h])) - mix.logpdf(np.array([x - h]))) / (2 * h)
        assert abs(mix.score(np.array([x]))[0] - fd) < 1e-7


@st.composite
def mixtures(draw, kinds=("dirac", "gaussian")):
    """A Dirac or Gaussian mixture of 1 to 3 components in 1 to 3 dimensions.

    Covariances are A A^T + 0.25 I, symmetrized.
    """
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    w = draw(arrays(np.float64, k, elements=st.floats(0.1, 1.0)))
    w = w / w.sum()
    means = draw(arrays(np.float64, (k, d), elements=st.floats(-3.0, 3.0)))
    if draw(st.sampled_from(kinds)) == "dirac":
        return DiracMixture(means, w)
    A = draw(arrays(np.float64, (k, d, d), elements=st.floats(-1.0, 1.0)))
    covs = A @ np.transpose(A, (0, 2, 1)) + 0.25 * np.eye(d)
    return GaussianMixture(w, means, 0.5 * (covs + np.transpose(covs, (0, 2, 1))))


def assert_one_at_zero(values, n_components):
    """Transform values at xi = 0: exactly 1 for one component (exp(0) times
    the weight 1.0), within 1e-14 for a mixture."""
    err = np.abs(np.asarray(values) - 1.0)
    assert (err == 0.0).all() if n_components == 1 else (err <= 1e-14).all()


@settings(max_examples=200, deadline=None)
@given(mix=mixtures())
def test_char_transform_is_one_at_zero(mix):
    for xi in (np.zeros(mix.dim), np.zeros((3, mix.dim))):
        assert_one_at_zero(mix.char_transform(xi), len(mix.weights))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mixture_score_matches_central_differences(data):
    mix = data.draw(mixtures(kinds=("gaussian",)))
    x = data.draw(arrays(np.float64, mix.dim, elements=st.floats(-4.0, 4.0)))
    h = 1e-5
    fd = np.array([(mix.logpdf(x + e) - mix.logpdf(x - e)) / (2 * h)
                   for e in h * np.eye(mix.dim)])
    score = mix.score(x)
    assert np.abs(score - fd).max() <= 1e-7 * (1.0 + np.abs(score).max())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_projection_is_the_law_of_u_dot_x(data):
    # the transform of u.X at s is the mixture's transform at s u
    mix = data.draw(mixtures(kinds=("gaussian",)))
    u = data.draw(arrays(np.float64, mix.dim, elements=st.floats(-1.0, 1.0)))
    s = data.draw(arrays(np.float64, (4, 1), elements=st.floats(-3.0, 3.0)))
    proj = mix.project(u)
    assert proj.dim == 1
    assert proj.weights is mix.weights
    assert np.allclose(proj.char_transform(s), mix.char_transform(s * u),
                       rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_weights_keep_their_bits_through_projection_and_marginal(data):
    # weights are checked and stored as given, never divided by their sum,
    # so those that sum to 1 only within rounding pass on with their bits
    d, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
    w = data.draw(arrays(np.float64, k, elements=st.floats(0.1, 1.0)))
    w = w / w.sum()
    means = data.draw(arrays(np.float64, (k, d), elements=st.floats(-3.0, 3.0)))
    var = data.draw(st.sampled_from([0.0, 0.5]))
    nu = GaussianMixture(w, means, var * np.tile(np.eye(d), (k, 1, 1)))
    u = data.draw(arrays(np.float64, d, elements=st.floats(-1.0, 1.0)))
    t = data.draw(st.sampled_from([0.0, 0.35, 1.0]))
    ou = ou_model(-0.5 * np.eye(d), np.eye(d))
    assert nu.weights.tobytes() == w.tobytes()
    assert nu.project(u).weights.tobytes() == w.tobytes()
    assert analytic(ou, 20).marginal(nu, t).weights.tobytes() == w.tobytes()


def test_mixture_cdf1d_stays_at_most_one():
    # thirteen weights of 1/13 pass the 1e-12 sum check, but the product
    # that weighs the components summed them to 1 + 2^-52 (numpy 2.4):
    # far in the tail the cdf must still read 1
    w = np.full(13, 1.0 / 13.0)
    mix = GaussianMixture(w, np.arange(13.0)[:, None], np.ones((13, 1, 1)))
    assert mix.cdf1d(np.array([100.0, 1e300])).tolist() == [1.0, 1.0]


def test_mixture_cdf1d_against_quadrature():
    from scipy.integrate import quad

    mix = GaussianMixture([0.4, 0.6], [[0.0], [2.0]],
                          [np.array([[1.0]]), np.array([[0.3]])])
    for x in (-1.0, 0.5, 2.5):
        val, _ = quad(lambda y: mix.pdf(np.array([y])), -30.0, x, epsabs=1e-12,
                      limit=200)
        assert abs(mix.cdf1d(np.array([x]))[0] - val) < 1e-9


def test_char_transform_gaussian():
    g = gaussian(1.5, 0.7)
    xi = np.array([0.9])
    oracle = np.exp(-1j * 0.9 * 1.5 - 0.5 * 0.7 * 0.81)
    assert abs(g.char_transform(xi) - oracle) < 1e-14
    assert g.char_transform(np.zeros(1)) == 1.0


def test_char_transform_dirac_translation():
    d = dirac([2.0])
    xi = np.array([1.3])
    assert abs(d.char_transform(xi) - np.exp(-1j * 1.3 * 2.0)) < 1e-15


def test_sampling_reproducible_and_correct():
    mix = GaussianMixture([1.0], [[3.0]], [np.array([[4.0]])])
    a = mix.sample(10**5, substream(42, 9))
    b = mix.sample(10**5, substream(42, 9))
    assert np.array_equal(a, b)
    # CLT oracle: mean within 3 sd/sqrt(n), var within 3 * sqrt(2/n) sd^2
    assert abs(a.mean() - 3.0) < 3.0 * 2.0 / np.sqrt(1e5)
    assert abs(a.var(ddof=1) - 4.0) < 3.0 * np.sqrt(2.0 / 1e5) * 4.0


def test_dirac_sampling_copies():
    d = DiracMixture([[1.0, -1.0]])
    out = d.sample(5, substream(0, 1))
    assert np.array_equal(out, np.tile([1.0, -1.0], (5, 1)))
    # the points come back bit for bit, -0.0 included, and the generator is
    # left just after the component draw
    pts = np.array([[-0.0, 2.0], [3.0, -0.0]])
    rng, ref = substream(0, 2), substream(0, 2)
    out = DiracMixture(pts, [0.25, 0.75]).sample(50, rng)
    comp = ref.choice(2, size=50, p=[0.25, 0.75])
    assert out.tobytes() == pts[comp].tobytes()
    assert_array_equal(rng.random(8), ref.random(8))


def test_degenerate_density_raises():
    mix = GaussianMixture([1.0], [[0.0]], [np.array([[0.0]])])
    with pytest.raises(DegenerateDensityError):
        mix.logpdf(np.array([0.0]))
    # a one-component score skips the log densities, not the refusal
    for law in (mix, dirac([0.5, -1.0]),
                gaussian([0.0, 0.0], np.diag([1.0, 0.0]))):
        with pytest.raises(DegenerateDensityError):
            law.score(np.zeros(law.dim))
