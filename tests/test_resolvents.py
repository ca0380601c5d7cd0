"""Matrix-ODE layer: oracles are scalar/matrix exponentials, independent
RK4 reference runs at finer steps, direct inversion and quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from retrodiff import (
    OUAnalytic,
    OUModel,
    TimeGrid,
    compute_ou_covariance,
    min_eigenvalue_path,
    solve_adjoint_resolvent,
    solve_adjoint_resolvent_inverse,
    solve_resolvent,
)
from retrodiff import resolvents
from retrodiff.models import ou_model
from retrodiff.resolvents import _rk4_path


def grid(T=1.0, n=1000):
    return TimeGrid(0.0, T, n)


def test_time_grid_needs_an_integral_step_count():
    for n in (4, np.int64(4), 4.0, np.float32(4.0)):
        g = TimeGrid(0.0, 1.0, n)
        assert g.n_steps == 4 and type(g.n_steps) is int
    for n in (2.7, 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            TimeGrid(0.0, 1.0, n)
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        TimeGrid(0.0, 1.0, 0)


def test_zero_generator_is_identity():
    path = solve_resolvent(lambda t: np.zeros((2, 2)), grid())
    assert np.array_equal(path.values[0], np.eye(2))
    assert np.abs(path.values - np.eye(2)).max() == 0.0


def test_nilpotent_exponential():
    C = np.array([[0.0, 1.0], [0.0, 0.0]])
    path = solve_resolvent(lambda t: C, grid())
    assert np.abs(path.at(1.0) - (np.eye(2) + C)).max() < 1e-12


def test_scalar_exponential_oracle():
    # d/dt y = 0.3 y  =>  y(1) = e^{0.3}
    oracle = np.exp(0.3)
    path = solve_resolvent(lambda t: np.array([[0.3]]), grid())
    assert abs(path.at(1.0)[0, 0] - oracle) < 1e-12


def test_adjoint_zero_and_nilpotent():
    g = grid()
    path = solve_adjoint_resolvent(lambda t: np.zeros((2, 2)), g)
    assert np.abs(path.values - np.eye(2)).max() == 0.0
    C = np.array([[0.0, 1.0], [0.0, 0.0]])
    path = solve_adjoint_resolvent(lambda t: C, g)
    assert np.abs(path.at(1.0) - (np.eye(2) - C.T)).max() < 1e-12


def _rk4_scalar(fn, y0, T, n):
    # independent scalar RK4 used as the 10x-finer reference
    h = T / n
    y = y0
    for k in range(n):
        t = k * h
        k1 = fn(t, y)
        k2 = fn(t + h / 2, y + h / 2 * k1)
        k3 = fn(t + h / 2, y + h / 2 * k2)
        k4 = fn(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_adjoint_scalar_decay_oracle():
    c = 0.7
    path = solve_adjoint_resolvent(lambda t: np.array([[c]]), grid(n=200))
    ref = _rk4_scalar(lambda t, y: -c * y, 1.0, 1.0, 2000)
    assert abs(path.at(1.0)[0, 0] - ref) < 1e-12
    assert abs(ref - np.exp(-c)) < 1e-12


def test_adjoint_inverse_scalar_oracle():
    c = 0.7
    path = solve_adjoint_resolvent_inverse(lambda t: np.array([[c]]), grid(n=200))
    sol = solve_ivp(lambda t, y: c * y, (0.0, 1.0), [1.0], rtol=1e-12, atol=1e-14)
    assert abs(path.at(1.0)[0, 0] - sol.y[0, -1]) < 1e-9


def _poly_C(t):
    return np.array(
        [
            [0.3 + 0.2 * t, -0.5 * t * t, 0.1],
            [0.4, -0.2 + t, 0.3 * t],
            [-0.1 * t, 0.2, 0.5 - 0.4 * t],
        ]
    )


def test_product_identity_against_direct_inversion():
    g = grid(T=1.0, n=1000)
    D = solve_adjoint_resolvent(_poly_C, g)
    Dinv = solve_adjoint_resolvent_inverse(_poly_C, g)
    prod_err = max(
        np.linalg.norm(D.values[k] @ Dinv.values[k] - np.eye(3))
        for k in range(len(D))
    )
    assert prod_err < 1e-8
    # direct matrix inversion of the decay path as oracle
    inv_err = max(
        np.linalg.norm(np.linalg.inv(D.values[k]) - Dinv.values[k])
        for k in range(0, len(D), 100)
    )
    assert inv_err < 1e-8


def test_rk4_order_on_step_halving():
    rng = np.random.default_rng(5)
    C = rng.uniform(-2.0, 2.0, size=(3, 3))
    oracle = expm(C)  # exact for constant coefficients
    errs = []
    for n in (40, 80):
        path = solve_resolvent(lambda t: C, grid(n=n))
        errs.append(np.linalg.norm(path.at(1.0) - oracle))
    assert errs[0] / errs[1] >= 8.0


def integral_defect(path, rhs_fn):
    """Max Frobenius defect of Y(t) = Y(0) + integral of rhs_fn(s, Y(s)).

    The integral is composite Simpson quadrature on the stored nodes, so
    the defect is read at even-indexed nodes; the integrator and the
    quadrature are both fourth order, which the step-halving check uses.
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


def test_integral_defect_order():
    errs = []
    for n in (40, 80):
        path = solve_resolvent(_poly_C_2d, grid(n=n))
        errs.append(integral_defect(path, lambda t, y: _poly_C_2d(t) @ y))
    assert errs[0] / errs[1] >= 8.0


def _poly_C_2d(t):
    return np.array([[0.5 * t, 1.0 - t], [-0.3, 0.2 + 0.4 * t]])


def test_covariance_brownian():
    g = grid()
    Q = compute_ou_covariance(lambda t: np.zeros((2, 2)), lambda t: np.eye(2), g)
    assert np.abs(Q.values[0]).max() == 0.0
    for k in (250, 500, 1000):
        assert np.abs(Q.values[k] - g.node(k) * np.eye(2)).max() < 1e-12


def test_covariance_scalar_quadrature_oracle():
    # Q(1) for C = 1, Sigma = 1: R(t) = e^t, integrand e^{-2s}
    inner, _ = quad(lambda s: np.exp(-2.0 * s), 0.0, 1.0, epsabs=1e-13)
    oracle = np.exp(2.0) * inner  # = (e^2 - 1) / 2 ~ 3.194528
    assert abs(oracle - (np.exp(2.0) - 1.0) / 2.0) < 1e-12
    Q = compute_ou_covariance(
        lambda t: np.array([[1.0]]), lambda t: np.array([[1.0]]), grid()
    )
    assert abs(Q.at(1.0)[0, 0] - oracle) < 1e-9


@pytest.mark.parametrize("C, T", [
    (lambda t: np.array([[-3.0 - 0.1 * t]]), 6.0),
    (lambda t: np.array([[-8.0, 1.0], [0.0, -5.0 - t]]), 1.0),
], ids=["scalar-long", "stiff-2d"])
def test_covariance_of_a_stiff_or_long_generator_converges(C, T):
    # the Lyapunov ODE at 100 steps against a 20 000-step run of it
    d = C(0.0).shape[0]
    Sigma = lambda t: np.eye(d)  # noqa: E731
    coarse = compute_ou_covariance(C, Sigma, grid(T, 100)).at(T)
    fine = compute_ou_covariance(C, Sigma, grid(T, 20000)).at(T)
    assert np.abs(coarse - fine).max() <= 1e-8


def test_covariance_degenerate_sigma_flagged():
    Q = compute_ou_covariance(
        lambda t: np.array([[1.0]]), lambda t: np.array([[0.0]]), grid(n=100)
    )
    assert np.abs(Q.values).max() == 0.0
    assert (min_eigenvalue_path(Q) == 0.0).all()


def test_covariance_symmetry_and_positivity():
    rng = np.random.default_rng(11)
    A = rng.uniform(-1.5, 1.5, size=(2, 2))
    s = rng.uniform(0.5, 1.5, size=(2, 2))
    Sig = s @ s.T + 0.5 * np.eye(2)

    g = grid(n=500)
    Q = compute_ou_covariance(lambda t: A, lambda t: Sig, g)
    sym = np.abs(Q.values - np.transpose(Q.values, (0, 2, 1))).max()
    assert sym < 1e-12
    assert (min_eigenvalue_path(Q)[1:] > 0.0).all()


def test_nonfinite_generator_reports_node():
    def bad(t):
        return np.array([[np.nan]]) if t > 0.5 else np.array([[1.0]])

    with pytest.raises(ValueError, match="t="):
        solve_resolvent(bad, grid(n=10))


def test_asymmetric_sigma_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        compute_ou_covariance(
            lambda t: np.zeros((2, 2)),
            lambda t: np.array([[1.0, 0.3], [0.0, 1.0]]),
            grid(n=10),
        )


# --- exact semigroup steps for constant coefficients -------------------------


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@st.composite
def constant_coefficients(draw):
    """C with entries in [-1, 1] and a full-rank lower-triangular sigma."""
    d = draw(st.integers(1, 3))
    C = draw(arrays(float, (d, d), elements=st.floats(-1.0, 1.0)))
    s = np.tril(draw(arrays(float, (d, d), elements=st.floats(-1.0, 1.0))), -1)
    s += np.diag(draw(arrays(float, d, elements=st.floats(0.5, 1.5))))
    return C, s


@settings(max_examples=15, deadline=None)
@given(coef=constant_coefficients())
def test_exact_paths_match_rk4(coef):
    C, s = coef
    S = s @ s.T
    g = grid()
    pairs = [
        (solve_resolvent(C, g), solve_resolvent(lambda t: C, g)),
        (solve_adjoint_resolvent(C, g), solve_adjoint_resolvent(lambda t: C, g)),
        (compute_ou_covariance(C, S, g),
         compute_ou_covariance(lambda t: C, lambda t: S, g)),
    ]
    for exact, rk4 in pairs:
        assert _rel(exact.values, rk4.values) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(coef=constant_coefficients())
def test_exact_paths_invariants(coef):
    C, s = coef
    d = C.shape[0]
    g = grid()
    R = solve_resolvent(C, g).values
    D = solve_adjoint_resolvent(C, g).values
    Q = compute_ou_covariance(C, s @ s.T, g).values
    assert _rel(R[-1], expm(C * g.t_end)) <= 1e-12
    assert np.abs(np.einsum("kij,klj->kil", D, R) - np.eye(d)).max() <= 1e-12
    assert np.array_equal(Q, np.transpose(Q, (0, 2, 1)))
    assert not Q[0].any()
    assert (np.linalg.eigvalsh(Q[1:])[:, 0] > 0.0).all()


@settings(max_examples=30, deadline=None)
@given(coef=constant_coefficients())
def test_exact_adjoint_inverse_is_the_transposed_resolvent(coef):
    C, _ = coef
    g = grid(n=40)
    R = solve_resolvent(C, g).values
    D = solve_adjoint_resolvent(C, g).values
    E = solve_adjoint_resolvent_inverse(C, g).values
    assert np.array_equal(E, np.transpose(R, (0, 2, 1)))
    assert np.abs(D @ E - np.eye(C.shape[0])).max() <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_model_build_takes_no_rk4_step(monkeypatch, d):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _rk4_path(*args, **kwargs)

    monkeypatch.setattr(resolvents, "_rk4_path", counting)
    C = np.eye(d) - 0.5 * np.ones((d, d))
    OUAnalytic(ou_model(C, np.eye(d)), n_steps=50)
    assert calls == []
    OUAnalytic(OUModel(lambda t: C, lambda t: np.eye(d), d), n_steps=50)
    assert len(calls) == 3


def test_nonfinite_constant_raises_as_the_callable_does():
    C = np.array([[np.nan]])
    with pytest.raises(ValueError) as callable_err:
        OUAnalytic(OUModel(lambda t: C, lambda t: np.eye(1), 1), n_steps=10)
    # the class, not ou_model, which refuses a non-finite C before any path
    with pytest.raises(ValueError) as constant_err:
        OUAnalytic(OUModel(C, np.eye(1), 1), n_steps=10)
    assert str(constant_err.value) == str(callable_err.value)
    with pytest.raises(ValueError, match="non-finite"):
        compute_ou_covariance(np.zeros((1, 1)), np.array([[np.inf]]), grid(n=10))
    with pytest.raises(ValueError, match="symmetric"):
        compute_ou_covariance(np.zeros((2, 2)), np.array([[1.0, 0.3], [0.0, 1.0]]),
                              grid(n=10))
