"""Closed-form OU machinery: marginals, transforms, reversal drift.

Oracles: the covariance path from the matrix-ODE layer, characteristic
functions of the Gaussian marginals, central differences of log densities,
and grid extrema.
"""

import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retrodiff import (
    AmplificationWindowError,
    DegenerateDensityError,
    DiracMixture,
    TimeGrid,
    consistency_triangle,
    dirac,
    fourier_invert_terminal,
    fourier_ode_solve,
    gaussian,
    gaussian_bound_check,
    make_fourier_solution,
    ou_marginal,
    ou_reversal_drift,
    solve_adjoint_resolvent_inverse,
)
from retrodiff.distributions import GaussianMixture
from retrodiff.models import OUModel, heat_model, ou_model
from retrodiff.ou_analytic import OUAnalytic, analytic
from test_distributions import assert_one_at_zero, mixtures
from test_metrics import SRC


HEAT = heat_model(dim=1)
OU1 = ou_model(C=1.0, sigma=1.0)


def test_marginal_heat_kernel():
    mix = ou_marginal(HEAT, dirac([0.0]), 0.3)
    assert np.allclose(mix.means, 0.0)
    assert abs(mix.covariances[0, 0, 0] - 0.3) < 1e-10


def test_marginal_ou_scalar_oracle():
    # mean e * x0 and variance (e^2 - 1)/2 from the covariance path
    x0 = 0.7
    mix = ou_marginal(OU1, dirac([x0]), 1.0)
    assert abs(mix.means[0, 0] - np.e * x0) < 1e-9
    assert abs(mix.covariances[0, 0, 0] - (np.e**2 - 1.0) / 2.0) < 1e-8


def test_marginal_gaussian_convolution():
    mix = ou_marginal(HEAT, gaussian(2.0, 0.5), 0.4)
    assert abs(mix.means[0, 0] - 2.0) < 1e-12
    assert abs(mix.covariances[0, 0, 0] - 0.9) < 1e-10


def test_marginal_weights_preserved_and_normalized():
    nu = DiracMixture([[0.0], [1.0]], [0.25, 0.75])
    mix = ou_marginal(HEAT, nu, 0.5)
    assert np.allclose(mix.weights, [0.25, 0.75])
    assert mix.weights.sum() == 1.0


@settings(max_examples=50, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), k=st.integers(1, 3))
def test_point_source_marginal_is_the_flowed_point_with_covariance_q(data, d,
                                                                     k):
    # one marginal rule: a point mass is a zero-covariance component, so at
    # every node its marginal has means x_k R^T and covariances Q, bit for bit
    unit = st.floats(-1.0, 1.0)
    C = 1.5 * data.draw(arrays(float, (d, d), elements=unit))
    sigma = np.eye(d) + 0.3 * data.draw(arrays(float, (d, d), elements=unit))
    points = data.draw(arrays(float, (k, d), elements=st.floats(-3.0, 3.0)))
    w = data.draw(arrays(float, k, elements=st.floats(0.1, 1.0)))
    nu = DiracMixture(points, w / w.sum())
    cache = OUAnalytic(ou_model(C, sigma), n_steps=20)
    for t in cache.grid.nodes:
        mix = cache.marginal(nu, t)
        Q = np.broadcast_to(cache.Q(t), (k, d, d))
        assert mix.covariances.tobytes() == np.ascontiguousarray(Q).tobytes()
        assert mix.means.tobytes() == (points @ cache.R(t).T).tobytes()


def test_marginal_dirac_at_zero_rejected():
    # the marginal at t = 0 is the point mass itself, which has no score
    mix = ou_marginal(HEAT, dirac([0.3]), 0.0)
    assert np.array_equal(mix.means, [[0.3]])
    assert np.array_equal(mix.covariances, [[[0.0]]])
    with pytest.raises(DegenerateDensityError, match="singular"):
        mix.score(np.array([0.3]))


def test_fourier_forward_heat():
    sol = make_fourier_solution(HEAT, dirac([0.0]))
    for t in (0.2, 0.7, 1.0):
        for xi in (-2.0, 0.5, 3.0):
            oracle = np.exp(-t * xi * xi / 2.0)
            assert abs(sol(t, np.array([xi])) - oracle) < 1e-12


def test_fourier_forward_translation_phase():
    x0 = 1.3
    sol = make_fourier_solution(HEAT, dirac([x0]))
    xi = np.array([0.8])
    oracle = np.exp(-0.5 * 0.5 * 0.64) * np.exp(-1j * 0.8 * x0)
    assert abs(sol(0.5, xi) - oracle) < 1e-12


def test_fourier_forward_normalization_and_modulus():
    sol = make_fourier_solution(OU1, gaussian(0.3, 0.4))
    assert sol(0.5, np.zeros(1)) == 1.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.integers(0, 1001) / 1000.0  # a node of the 1000-step grid
        xi = rng.uniform(-5.0, 5.0, size=1)
        assert abs(sol(t, xi)) <= 1.0 + 1e-12


def test_fourier_forward_matches_marginal_charfn():
    # the characteristic function of the Gaussian marginal is the oracle
    sol = make_fourier_solution(OU1, dirac([0.0]))
    mix = ou_marginal(OU1, dirac([0.0]), 1.0)
    for xi in (0.5, 1.0, 2.0):
        a = sol(1.0, np.array([xi]))
        b = mix.char_transform(np.array([xi]))
        assert abs(a - b) < 1e-8
    # concrete value at xi = 1: exp(-(e^2-1)/4)
    assert abs(sol(1.0, np.ones(1))
               - np.exp(-(np.e**2 - 1.0) / 4.0)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transform_is_one_at_zero_along_the_flow(data):
    nu = data.draw(mixtures())
    d = nu.dim
    unit = st.floats(-1.0, 1.0)
    C = 1.5 * data.draw(arrays(float, (d, d), elements=unit))
    # diagonally dominant, so Q(t) is positive definite for t > 0
    sigma = np.eye(d) + 0.3 * data.draw(arrays(float, (d, d), elements=unit))
    ou = ou_model(C, sigma)
    t = data.draw(st.integers(1, 50)) / 50.0  # a node of the 50-step grid
    sol = make_fourier_solution(ou, nu, n_steps=50)
    for v in (ou_marginal(ou, nu, t, n_steps=50).char_transform(np.zeros(d)),
              sol(t, np.zeros(d)), sol(t, np.zeros((2, d))),
              sol(0.0, np.zeros((2, d)))):
        assert_one_at_zero(v, len(nu.weights))


def test_fourier_ode_constant_at_zero_frequency():
    vals = fourier_ode_solve(OU1, dirac([0.0]), np.zeros(1), TimeGrid(0, 1, 50))
    assert np.array_equal(vals, np.ones(51, dtype=complex))


def test_fourier_ode_heat_explicit():
    g = TimeGrid(0.0, 1.0, 200)
    vals = fourier_ode_solve(HEAT, dirac([0.0]), np.array([2.0]), g)
    oracle = np.exp(-2.0 * g.nodes)
    assert np.abs(vals - oracle).max() < 1e-12


def test_fourier_ode_matches_closed_form_random_2d():
    rng = np.random.default_rng(7)
    C = rng.uniform(-1.5, 1.5, size=(2, 2))
    sig = rng.uniform(0.5, 1.5, size=(2, 2))
    ou = ou_model(C, sig)
    cache = analytic(ou)
    tr = gaussian([0.2, -0.1], 0.3 * np.eye(2)).char_transform
    sol = make_fourier_solution(ou, tr)
    for t in (0.3, 0.6, 1.0):
        for xi in ([1.0, 0.5], [-2.0, 1.0]):
            xi = np.array(xi)
            eta = cache.D_inv(t) @ xi
            ode_val = fourier_ode_solve(ou, tr, eta, TimeGrid(0.0, t, 500))[-1]
            closed = sol(t, xi)
            assert abs(ode_val - closed) < 1e-8


@settings(max_examples=20, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), varying=st.booleans())
def test_adjoint_inverse_is_the_transposed_resolvent(data, d, varying):
    entries = st.floats(-1.5, 1.5)
    C0 = data.draw(arrays(float, (d, d), elements=entries))
    C1 = data.draw(arrays(float, (d, d), elements=entries)) if varying \
        else np.zeros((d, d))
    ou = OUModel(lambda t: C0 + np.sin(3.0 * t) * C1, lambda t: np.eye(d), d)
    cache = OUAnalytic(ou, n_steps=1000)
    nodes = cache.grid.nodes
    E = solve_adjoint_resolvent_inverse(ou.C, cache.grid).values
    assert np.array_equal(np.stack([cache.D_inv(t) for t in nodes]), E)
    drawn = data.draw(st.lists(st.integers(0, 1000), min_size=1, max_size=5))
    for t in [*nodes[::100], *(cache.grid.node(k) for k in drawn)]:
        assert np.abs(cache.D(t) @ cache.D_inv(t) - np.eye(d)).max() <= 1e-8
        Q = cache.Q(t)
        assert np.array_equal(Q, Q.T)


def test_lookup_within_the_grid_tolerance_is_the_node():
    # 5e-10 is within TimeGrid.node_index's 1e-9 * max(1, |t|) of node 500
    cache = OUAnalytic(OUModel(lambda t: np.array([[np.sin(t)]]),
                               lambda t: np.eye(1), 1), n_steps=1000)
    t = 0.5 + 5e-10
    assert cache.grid.node_index(t) == 500
    assert np.array_equal(cache.R(t), cache.resolvent.values[500])
    assert np.array_equal(cache.R(t), cache.resolvent.at(t))
    assert np.array_equal(cache.D(t), cache.adjoint.values[500])
    assert np.array_equal(cache.Q(t), cache.covariance.values[500])


def _varying_2d():
    C0 = np.array([[-1.0, 0.4], [0.2, -0.5]])
    return OUModel(lambda t: C0 + np.sin(3.0 * t) * np.eye(2),
                   lambda t: np.array([[1.0, 0.0], [0.3, 1.0 + t]]), 2)


def test_a_dropped_model_is_freed_with_its_paths():
    # the model keeps its own OUAnalytic; no module-level cache holds it
    ou = ou_model(-1.0, 1.0)
    cache = analytic(ou, 100)
    assert analytic(ou, 100) is cache
    cache.marginal(dirac([0.5]), 0.5)
    ref = weakref.ref(ou)
    del ou, cache
    gc.collect()
    assert ref() is None


_PTS = dirac([0.5, -0.5])
_LOOKUPS = {
    "R": lambda c, t: c.R(t),
    "D": lambda c, t: c.D(t),
    "D_inv": lambda c, t: c.D_inv(t),
    "Q": lambda c, t: c.Q(t),
    "marginal": lambda c, t: c.marginal(_PTS, t),
    "amplification_exponent": lambda c, t: c.amplification_exponent(
        t, np.ones(2)),
    "char_forward": lambda c, t: c.char_forward(_PTS.char_transform, t,
                                                np.ones(2)),
    "invert_terminal": lambda c, t: c.invert_terminal(_PTS.char_transform, t,
                                                      np.ones(2)),
    "gaussian_bound_check": lambda c, t: c.gaussian_bound_check(
        _PTS, (t, 1.0), ([-1.0, -1.0], [1.0, 1.0])),
    "consistency_triangle": lambda c, t: consistency_triangle(
        c.ou, _PTS, np.ones((1, 2)), [t], n_steps=c.grid.n_steps),
}


@pytest.mark.parametrize("name", sorted(_LOOKUPS))
def test_off_node_lookups_are_refused(name):
    # 0.437 lies strictly between nodes 43 and 44 of the 100-step grid
    cache = OUAnalytic(_varying_2d(), n_steps=100)
    with pytest.raises(ValueError, match=r"t=0\.437 is not a node"):
        _LOOKUPS[name](cache, 0.437)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_node_quadrature_is_exact_for_cubic_integrands(k):
    # C = 0 keeps D = I, so with sigma(s) = sqrt(p(s)) A the exponent's
    # integrand is p(s) |A^T eta|^2: a cubic for Simpson and the 3/8 panel,
    # a line for the trapezoid of k = 1
    if k == 1:
        p, P = (lambda s: 1.0 + 2.0 * s), (lambda s: s + s * s)
    else:
        p = lambda s: 1.0 + s - 2.0 * s**2 + 3.0 * s**3  # noqa: E731
        P = lambda s: s + s**2 / 2.0 - 2.0 * s**3 / 3.0 + 0.75 * s**4  # noqa: E731
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    ou = OUModel(lambda t: np.zeros((2, 2)), lambda t: np.sqrt(p(t)) * A, 2)
    cache = OUAnalytic(ou, n_steps=10)
    t = cache.grid.node(k)
    eta = np.array([[0.7, -0.2], [-1.5, 0.4], [0.3, 2.0]])
    got = cache.amplification_exponent(t, eta)
    exact = 0.5 * P(t) * np.sum((eta @ A) ** 2, axis=1)
    assert np.allclose(got, exact, rtol=1e-13, atol=0.0)
    # a row's bits do not depend on the rest of the batch
    for row, value in zip(eta, got):
        assert cache.amplification_exponent(t, row) == value


def test_closed_form_routes_load_no_spline_or_special_module():
    # the triangle and the inversion read paths at nodes and nothing else
    code = "\n".join([
        "import sys, numpy as np, retrodiff as rd",
        "ou = rd.make_model('ou', C=[[-0.4, 1.0], [-1.0, 0.1]],",
        "                   sigma=[[1.0, 0.2], [0.0, 0.7]])",
        "nu = rd.gaussian([0.2, -0.1], 0.3 * np.eye(2))",
        "xi = np.array([[0.0, 0.0], [1.0, 0.5], [-2.0, 1.0]])",
        "rd.consistency_triangle(ou, nu, xi, [0.25, 1.0], n_steps=100)",
        "rd.fourier_invert_terminal(ou, nu.char_transform, 1.0, xi[1],",
        "                           n_steps=100)",
        "print(sorted(m for m in sys.modules",
        "             if m.startswith(('scipy.interpolate', 'scipy.special'))))",
    ])
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_invert_terminal_heat_round_trip():
    sol = make_fourier_solution(HEAT, dirac([0.0]))
    for xi in (-3.0, -1.0, 0.5, 2.0, 3.0):
        rec = fourier_invert_terminal(
            HEAT, lambda e: sol(1.0, e), 1.0, np.array([xi])
        )
        assert abs(rec - 1.0) < 1e-9  # transform of a point mass at 0


def test_invert_terminal_gaussian_deconvolution():
    mu_hat = gaussian(0.0, 2.0).char_transform
    for xi in (0.5, 1.5, 2.5):
        rec = fourier_invert_terminal(HEAT, mu_hat, 1.0, np.array([xi]))
        oracle = np.exp(-0.5 * xi * xi)  # transform of N(0, 1)
        assert abs(rec - oracle) < 1e-10


def test_invert_terminal_ou_gaussian_source():
    nu = gaussian(0.5, 0.2)
    sol = make_fourier_solution(OU1, nu)
    for xi in np.linspace(-2.0, 2.0, 9):
        rec = fourier_invert_terminal(
            OU1, lambda e: sol(1.0, e), 1.0, np.array([xi])
        )
        assert abs(rec - nu.char_transform(np.array([xi]))) < 1e-6


def test_invert_terminal_window_guards():
    mu_hat = gaussian(0.0, 1.0).char_transform
    with pytest.raises(AmplificationWindowError, match="window"):
        fourier_invert_terminal(HEAT, mu_hat, 1.0, np.array([6.0]))
    with pytest.raises(AmplificationWindowError, match="cap"):
        fourier_invert_terminal(HEAT, mu_hat, 1.0, np.array([4.0]),
                                exponent_cap=2.0)


def test_reversal_drift_heat_point_source():
    # drift(t, x) = -x / (T - t)
    for t in (0.0, 0.5, 0.9):
        for x in (-1.0, 0.3, 2.0):
            v = ou_reversal_drift(HEAT, dirac([0.0]), t, np.array([x]))
            assert abs(v[0] + x / (1.0 - t)) < 1e-9


def test_reversal_drift_heat_gaussian_source():
    v0 = 0.7
    for t in (0.2, 0.8):
        for x in (-0.5, 1.2):
            v = ou_reversal_drift(HEAT, gaussian(0.0, v0), t, np.array([x]))
            assert abs(v[0] + x / (v0 + 1.0 - t)) < 1e-9


def test_reversal_drift_two_point_symmetry_and_fd():
    nu = DiracMixture([[-1.0], [1.0]])
    assert ou_reversal_drift(HEAT, nu, 0.5, np.zeros(1))[0] == 0.0
    # central-difference oracle on the log mixture density, h = 1e-5
    mix = ou_marginal(HEAT, nu, 0.5)
    h, x = 1e-5, 0.3
    fd = (mix.logpdf(np.array([x + h])) - mix.logpdf(np.array([x - h]))) / (2 * h)
    v = ou_reversal_drift(HEAT, nu, 0.5, np.array([x]))
    assert abs(v[0] - fd) < 1e-8


def test_reversal_drift_singular_at_horizon():
    with pytest.raises(DegenerateDensityError, match="singular"):
        ou_reversal_drift(HEAT, dirac([0.0]), 1.0, np.zeros(1))


def test_score_identity_single_gaussian():
    # drift equals Sigma(T-t) grad log p computed analytically
    ou = ou_model(C=-0.5, sigma=1.3)
    nu = gaussian(0.4, 0.6)
    t = 0.35
    mix = ou_marginal(ou, nu, 1.0 - t)
    for x in (-1.0, 0.0, 0.8):
        lhs = ou_reversal_drift(ou, nu, t, np.array([x]))
        rhs = ou.Sigma(1.0 - t) @ mix.score(np.array([x]))
        assert abs(lhs[0] - rhs[0]) < 1e-10


def test_gaussian_bounds_heat_box():
    rep = gaussian_bound_check(HEAT, dirac([0.0]), (0.5, 1.0), ([-1.0], [1.0]))
    assert rep.passed and rep.lower > 0.0
    # max of the kernel over the box is at t = 0.5, x = 0
    assert rep.upper <= 1.1 * (2 * np.pi * 0.5) ** -0.5 + 1e-12
    assert rep.upper >= (2 * np.pi * 0.5) ** -0.5


def test_gaussian_bounds_degenerate_sigma_fails():
    deg = ou_model(C=0.0, sigma=0.0)
    rep = gaussian_bound_check(deg, dirac([0.0]), (0.5, 1.0), ([-1.0], [1.0]))
    assert not rep.passed


def test_gaussian_bounds_mixture_finite():
    rng = np.random.default_rng(5)
    nu = GaussianMixture([0.5, 0.5], [[-0.5], [0.5]],
                         [0.2 * np.eye(1), 0.4 * np.eye(1)])
    rep = gaussian_bound_check(OU1, nu, (0.3, 0.9),
                               (rng.uniform(-2, -1, 1), rng.uniform(1, 2, 1)))
    assert rep.passed
    assert np.isfinite([rep.lower, rep.upper, rep.gradient]).all()


def test_consistency_triangle_small():
    rng = np.random.default_rng(17)
    C = rng.uniform(-1.0, 1.0, size=(2, 2))
    sig = rng.uniform(0.5, 1.5, size=(2, 2))
    ou = ou_model(C, sig)
    nu = gaussian([0.1, -0.2], 0.5 * np.eye(2))
    xi = [[0.5, -1.0], [2.0, 1.0], [0.0, 0.0]]
    rep = consistency_triangle(ou, nu, xi, [0.25, 0.5, 1.0])
    assert rep["max_error"] < 1e-6


def test_invert_then_forward_recovers_terminal():
    mu_hat = gaussian(0.3, 1.7).char_transform

    def init_transform(eta):
        eta2 = np.atleast_2d(eta)
        vals = np.array([
            fourier_invert_terminal(HEAT, mu_hat, 1.0, e) for e in eta2
        ])
        return vals[0] if np.ndim(eta) == 1 else vals

    sol = make_fourier_solution(HEAT, init_transform)
    for xi in np.linspace(-2.0, 2.0, 7):
        a = sol(1.0, np.array([xi]))
        assert abs(a - mu_hat(np.array([xi]))) < 1e-6
