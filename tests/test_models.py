"""Coefficient models: ellipticity, Lipschitz estimation, piecewise rules."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retrodiff import (
    DiracMixture,
    TimeGrid,
    check_ellipticity,
    check_moment_bound,
    estimate_lipschitz,
    euler_maruyama_path,
    gaussian,
    injectivity_probe,
    make_model,
    reconstruct_dirac_search,
    sample_initial,
    simulate_reversal_selfconsistent,
)
from retrodiff.models import (
    DiffusionModel,
    OUModel,
    affine_model,
    heat_model,
    ou_model,
    _row_products,
    piecewise_model,
    sin_drift_model,
)


def test_sigma_sigma_T_identity():
    m = heat_model(dim=2).as_diffusion_model()
    S = m.sigma_sigma_T(0.0, np.zeros(2))
    assert np.array_equal(S, np.eye(2))


def test_sigma_sigma_T_rank_one():
    # sigma = [[1], [1]] gives the rank-1 outer product
    m = DiffusionModel(
        dim_d=2, dim_m=1,
        drift=lambda t, x: np.zeros_like(np.atleast_2d(x)),
        dispersion=lambda t, x: np.array([[1.0], [1.0]]),
    )
    S = m.sigma_sigma_T(0.0, np.zeros(2))
    assert np.allclose(S, np.ones((2, 2)))
    assert np.linalg.matrix_rank(S) == 1


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), m=st.integers(1, 4),
       n=st.integers(2, 300))
def test_constant_Sigma_rows_are_the_one_point_product(data, d, m, n):
    # Sigma is formed once for an x-independent sigma and broadcast; each of
    # its rows carries the bits of the one-point value and of the per-row
    # product of the broadcast sigma
    finite = st.floats(-1e3, 1e3, allow_subnormal=False)
    s = data.draw(arrays(float, (d, m), elements=finite))
    X = data.draw(arrays(float, (n, d), elements=finite))
    model = DiffusionModel(d, m, lambda t, x: np.zeros_like(x),
                           lambda t, x: s,
                           jac_drift=lambda t, x: np.zeros((d, d)),
                           jac_dispersion=lambda t, x: np.zeros((d, m, d)),
                           div_sigma_rows=lambda t, x: np.zeros_like(x))
    S = np.ascontiguousarray(model.sigma_sigma_T(0.5, X))
    assert S.shape == (n, d, d)
    one = model.sigma_sigma_T(0.5, X[0])
    rows = model.sigma(0.5, X)
    per_row = np.einsum("...ik,...jk->...ij", rows, rows)
    assert S.tobytes() == np.broadcast_to(one, S.shape).tobytes()
    assert S.tobytes() == per_row.tobytes()
    # and the density term's rows do not depend on the row count
    score = data.draw(arrays(float, (n, d), elements=finite))
    dens = model.density_drift(0.5, X, score)
    for i in range(n):
        row = slice(i, i + 1)
        one_row = model.density_drift(0.5, X[row], score[row])
        assert dens[row].tobytes() == one_row.tobytes()


# every float64 kind: signed zeros, subnormals, +-inf, nan, up to 1e+-308
ANY_FLOAT = st.floats(width=64)


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 30000), st.just(1)),
                elements=ANY_FLOAT, fill=ANY_FLOAT),
       c=ANY_FLOAT)
@example(x=np.array([[-0.0], [0.0], [5e-324], [-1e-308]]), c=-0.0)
def test_one_dimensional_row_products_are_the_matmul(x, c):
    # the elementwise product plus 0.0 has the bits of (n, 1) @ (1, 1),
    # whose accumulator starts at +0.0; so has the d = 1 OU drift
    C = np.array([[c]])
    with np.errstate(all="ignore"):
        want = (x @ C.T).tobytes()
        assert _row_products(x, C).tobytes() == want
        assert OUModel(C, 1.0, dim_d=1).drift(0.0, x).tobytes() == want


def test_sigma_sigma_T_psd_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sig = rng.uniform(-2, 2, size=(3, 2))
        m = DiffusionModel(
            dim_d=3, dim_m=2,
            drift=lambda t, x: np.zeros(3),
            dispersion=lambda t, x, s=sig: s,
        )
        S = m.sigma_sigma_T(0.0, np.zeros(3))
        assert np.linalg.eigvalsh(S).min() >= -1e-12  # eigensolver oracle


def test_ellipticity_pass_and_fail():
    m = heat_model(dim=2).as_diffusion_model()
    pts = [(0.0, np.zeros(2)), (0.5, np.ones(2))]
    rep = check_ellipticity(m, pts, 0.5)
    assert rep.passed and abs(rep.min_eigenvalue - 1.0) < 1e-14

    deg = DiffusionModel(
        dim_d=2, dim_m=2,
        drift=lambda t, x: np.zeros(2),
        dispersion=lambda t, x: np.diag([1.0, 0.0]),
    )
    rep = check_ellipticity(deg, pts, 1e-6)
    assert not rep.passed and rep.min_eigenvalue == 0.0


def test_ellipticity_space_dependent_grid_oracle():
    # sigma(x) = sqrt(1 + x^2): Sigma >= 1, minimized at x = 0
    m = affine_model(0.0, 0.0, sigma_spec=("sqrt1px2", 100.0))
    xs = np.linspace(-2.0, 2.0, 81)
    pts = [(0.0, np.array([x])) for x in xs]
    rep = check_ellipticity(m, pts, 0.9)
    oracle = min(1.0 + x * x for x in xs)
    assert abs(rep.min_eigenvalue - oracle) < 1e-12
    assert rep.passed


def test_ellipticity_empty_sample_rejected():
    m = heat_model().as_diffusion_model()
    with pytest.raises(ValueError):
        check_ellipticity(m, [], 0.1)


def box(lo=-5.0, hi=5.0, d=1):
    return (np.full(d, lo), np.full(d, hi))


def test_lipschitz_constant_coefficients():
    m = DiffusionModel(
        dim_d=1, dim_m=1,
        drift=lambda t, x: np.zeros_like(np.asarray(x, float)),
        dispersion=lambda t, x: np.array([[2.0]]),
        jac_drift=lambda t, x: np.zeros((1, 1)),
        jac_dispersion=lambda t, x: np.zeros((1, 1, 1)),
    )
    est = estimate_lipschitz(m, box(), [0.0, 1.0], 20, seed=0)
    assert est.K_b == 0.0
    assert np.all(est.K_sigma == 0.0)
    assert est.K == 0.0


def test_lipschitz_linear_drift_exact():
    m = affine_model(0.0, 2.0, sigma_spec=1.0)
    est = estimate_lipschitz(m, box(), [0.0], 1, seed=0)
    assert abs(est.K_b - 2.0) < 1e-15
    assert abs(est.K - 4.0) < 1e-15


def test_lipschitz_sin_drift_converges_to_one():
    # dense-grid sup oracle: sup |cos x| over the box is 1
    m = sin_drift_model(1.0, sigma_spec=1.0)
    grid_sup = np.max(np.abs(np.cos(np.linspace(-5, 5, 20001))))
    est = estimate_lipschitz(m, box(), [0.0], 400, seed=1)
    assert est.K_b <= grid_sup + 1e-12
    assert est.K_b > 0.97


def test_lipschitz_monotone_in_probes():
    m = sin_drift_model(1.0, sigma_spec=1.0)
    vals = [estimate_lipschitz(m, box(), [0.0], n, seed=7).K_b
            for n in (1, 3, 10, 30, 100)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_lipschitz_names_a_missing_jac_drift():
    # derivatives are stated or absent, never approximated: a model without
    # them still runs forward, and a computation that needs one names it
    ana = sin_drift_model(1.0, sigma_spec=1.0)
    bare = DiffusionModel(dim_d=1, dim_m=1, drift=ana.drift,
                          dispersion=ana.dispersion)
    init = sample_initial(DiracMixture([[0.5]]), 50, seed=3)
    assert np.array_equal(
        euler_maruyama_path(bare, init, _GRID, seed=3).terminal.positions,
        euler_maruyama_path(ana, init, _GRID, seed=3).terminal.positions)
    with pytest.raises(ValueError, match="states no jac_drift"):
        estimate_lipschitz(bare, box(), [0.0], 50, seed=3)
    for name in ("jac_dispersion", "div_sigma_rows"):
        with pytest.raises(ValueError, match=f"states no {name}"):
            getattr(bare, name + "_at")(0.0, np.zeros(1))


@pytest.mark.parametrize("t_samples, n_probes, message", [
    ([], 5, "t_samples must be non-empty"),
    ([0.0], 0, "n_probes must be >= 1"),
])
def test_lipschitz_settings_rejected(t_samples, n_probes, message):
    with pytest.raises(ValueError, match=message):
        estimate_lipschitz(heat_model(), box(), t_samples, n_probes, seed=0)


def test_lipschitz_degenerate_box_rejected():
    m = heat_model().as_diffusion_model()
    with pytest.raises(ValueError, match="volume"):
        estimate_lipschitz(m, (np.zeros(1), np.zeros(1)), [0.0], 5, seed=0)


def test_piecewise_interval_convention():
    pw = piecewise_model([0.0, 0.5, 1.0], rates=[-1.0, 2.0], sigmas=[1.0, 0.5])
    m = pw.as_diffusion_model()
    x = np.array([[2.0]])
    # interior points
    assert np.allclose(m.drift(0.25, x), -2.0)
    assert np.allclose(m.drift(0.75, x), 4.0)
    # breakpoint takes the left interval; 0.5 belongs to the first
    assert np.allclose(m.drift(0.5, x), -2.0)
    assert np.allclose(m.drift(1.0, x), 4.0)
    assert float(m.sigma(0.5, x)[0, 0, 0]) == 1.0
    assert float(m.sigma(0.50001, x)[0, 0, 0]) == 0.5


def test_piecewise_validation():
    with pytest.raises(ValueError, match="increasing"):
        piecewise_model([0.0, 0.6, 0.5], rates=[1.0, 1.0], sigmas=[1.0, 1.0])


def test_make_model_families():
    assert make_model("heat", dim=1).horizon == 1.0
    assert make_model("ou", C=-1.0, sigma=1.0).dim_d == 1
    assert make_model("affine", b0=[0.0], b1=[[0.5]]).name == "affine"
    assert make_model("sin-drift").name == "sin-drift"
    with pytest.raises(ValueError, match="unknown model family"):
        make_model("pde")


def test_affine_b1_shape_must_match_b0():
    with pytest.raises(ValueError, match=r"\(1, 3\).*\(2, 2\)"):
        affine_model(b0=[0.0, 0.0], b1=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"\(2, 2\).*\(1, 1\)"):
        affine_model(b0=[0.0], b1=np.eye(2))
    assert affine_model(b0=[0.0, 0.0], b1=np.eye(2)).dim_d == 2


@pytest.mark.parametrize("C, sigma, message", [
    pytest.param(-np.eye(2), 1.0,
                 r"sigma has shape \(1, 1\).*\(2, 2\) needs 2 rows",
                 id="sigma-one-row"),
    pytest.param(-np.eye(2), np.ones((3, 2)),
                 r"sigma has shape \(3, 2\).*\(2, 2\) needs 2 rows",
                 id="sigma-three-rows"),
    pytest.param(-np.eye(2), np.ones((2, 2, 2)),
                 r"sigma has shape \(2, 2, 2\)", id="sigma-three-axes"),
    pytest.param(np.ones((2, 3)), np.eye(2), r"C has shape \(2, 3\).*square",
                 id="C-not-square"),
    pytest.param(np.ones((2, 2, 2)), np.eye(2), r"C has shape \(2, 2, 2\)",
                 id="C-three-axes"),
])
def test_ou_shapes_must_agree(C, sigma, message):
    with pytest.raises(ValueError, match=message):
        ou_model(C, sigma)
    # sigma may have any number of columns
    assert ou_model(-np.eye(2), np.ones((2, 3))).dim_m == 3


@pytest.mark.parametrize("build", [
    pytest.param(lambda: heat_model(dim=0), id="heat-0"),
    pytest.param(lambda: heat_model(dim=-1), id="heat-negative"),
    pytest.param(lambda: ou_model(np.zeros((0, 0)), np.zeros((0, 0))),
                 id="ou-empty"),
    pytest.param(lambda: OUModel(lambda t: np.zeros((0, 0)),
                                 lambda t: np.zeros((0, 0)), 0),
                 id="OUModel-0"),
    pytest.param(lambda: OUModel(lambda t: -np.eye(1), lambda t: np.eye(1), 1,
                                 dim_m=0), id="OUModel-m-0"),
    pytest.param(lambda: OUModel(-np.eye(1), np.eye(1), 1, dim_m=-2),
                 id="OUModel-m-negative"),
    pytest.param(lambda: DiffusionModel(0, 1, lambda t, x: x,
                                        lambda t, x: np.eye(1)),
                 id="DiffusionModel-d-0"),
    pytest.param(lambda: DiffusionModel(1, 0, lambda t, x: x,
                                        lambda t, x: np.eye(1)),
                 id="DiffusionModel-m-0"),
    pytest.param(lambda: DiffusionModel(1, -2, lambda t, x: x,
                                        lambda t, x: np.eye(1)),
                 id="DiffusionModel-m-negative"),
])
def test_dimension_below_one_rejected(build):
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        build()


_HORIZON_FACTORIES = {
    "heat": lambda T: heat_model(horizon=T),
    "ou": lambda T: ou_model(-1.0, 1.0, horizon=T),
    "affine": lambda T: affine_model(0.0, -1.0, horizon=T),
    "sin-drift": lambda T: sin_drift_model(horizon=T),
    "piecewise": lambda T: piecewise_model([0.0, 1.0], [1.0], [1.0],
                                           horizon=T),
    "DiffusionModel": lambda T: DiffusionModel(
        1, 1, lambda t, x: x, lambda t, x: np.eye(1), horizon=T),
    "OUModel": lambda T: OUModel(-np.eye(1), np.eye(1), 1, horizon=T),
}


@pytest.mark.parametrize("T", [float("nan"), float("inf"), -float("inf"),
                               0.0, -1.0],
                         ids=["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("family", sorted(_HORIZON_FACTORIES))
def test_horizon_must_be_positive_and_finite(family, T):
    with pytest.raises(ValueError, match="horizon"):
        _HORIZON_FACTORIES[family](T)
    assert _HORIZON_FACTORIES[family](1).horizon == 1.0


_COEFFICIENTS = [
    ("scale", lambda v: heat_model(scale=v)),
    ("C", lambda v: ou_model([[v]], 1.0)),
    ("sigma", lambda v: ou_model(-1.0, [[v]])),
    ("b0", lambda v: affine_model([v], [[0.0]])),
    ("b1", lambda v: affine_model([0.0], [[v]])),
    ("sigma_spec", lambda v: affine_model(0.0, -1.0, sigma_spec=v)),
    ("amplitude", lambda v: sin_drift_model(v)),
    ("clip", lambda v: sin_drift_model(1.0, sigma_spec=("sqrt1px2", v))),
    ("breakpoints", lambda v: piecewise_model([0.0, v], [1.0], [1.0])),
    ("rates", lambda v: piecewise_model([0.0, 1.0], [v], [1.0])),
    ("sigmas", lambda v: piecewise_model([0.0, 1.0], [1.0], [v])),
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, build", _COEFFICIENTS,
                         ids=[name for name, _ in _COEFFICIENTS])
def test_factories_refuse_non_finite_coefficients(name, build, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got"):
        build(bad)
    # a numpy scalar is a real number like any other
    for good in (np.float32(2.0), np.int64(2)):
        model = build(good).as_diffusion_model()
        assert np.isfinite(model.sigma(0.5, np.zeros((3, model.dim_d)))).all()


_CONSTANT_SIGMA = {
    "heat": lambda: heat_model(dim=2, scale=0.5),
    "ou": lambda: ou_model([[-1.0, 0.3], [0.2, -0.5]],
                           [[1.0, 0.5, 0.0], [0.0, 2.0, 1.0]]),
    "affine": lambda: affine_model([0.0, 1.0], [[0.5, -1.0], [2.0, 0.1]],
                                   sigma_spec=2.0),
    "sin-drift": lambda: sin_drift_model(0.5, sigma_spec=3.0),
    "piecewise": lambda: piecewise_model([0.0, 0.5, 1.0], rates=[-1.0, 2.0],
                                         sigmas=[1.0, 0.5]),
}


@pytest.mark.parametrize("family", sorted(_CONSTANT_SIGMA))
def test_constant_dispersion_derivatives_are_exact_zeros(family):
    m = _CONSTANT_SIGMA[family]().as_diffusion_model()
    d, k = m.dim_d, m.dim_m
    x = np.linspace(-1.0, 2.0, d)
    X = np.linspace(-3.0, 3.0, 5 * d).reshape(5, d)
    for t in (0.0, 0.5, 1.0):
        J = m.jac_dispersion_at(t, x)
        assert J.shape == (d, k, d) and not J.any()
        for y in (x, X):
            div = m.div_sigma_rows_at(t, y)
            assert div.shape == y.shape and not div.any()
        # the model broadcasts the one (d, m) matrix over the rows
        S = m.sigma(t, X)
        assert S.shape == (5, d, k)
        assert np.array_equal(S, np.broadcast_to(m.sigma(t, x), S.shape))


_CLIP = 3.0
_STATED = {
    **_CONSTANT_SIGMA,
    "affine-sqrt1px2": lambda: affine_model([0.3], [[-0.7]],
                                            sigma_spec=("sqrt1px2", _CLIP)),
    "sin-drift-sqrt1px2": lambda: sin_drift_model(
        1.5, sigma_spec=("sqrt1px2", _CLIP)),
}


def _central(fn, x, h):
    """Central differences of fn at x along each axis, stacked last."""
    return np.stack([(np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h)
                     for e in h * np.eye(len(x))], axis=-1)


@pytest.mark.parametrize("family", sorted(_STATED))
@settings(max_examples=50, deadline=None)
@given(xs=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2))
@example(xs=[1.0, -2.0])  # inside the sqrt1px2 clip
@example(xs=[-5.0, 0.5])  # outside it
def test_stated_derivatives_match_central_differences(family, xs):
    # each named family's jac_drift, jac_dispersion and div_sigma_rows
    # against central differences of its drift, sigma and Sigma; the times
    # straddle the piecewise breakpoint 0.5, which belongs to the left
    m = _STATED[family]()
    x = np.array(xs[:m.dim_d])
    h = 1e-5
    # sqrt(1 + min(x^2, c^2)) has a kink at |x| = c
    assume(np.abs(np.abs(x) - _CLIP).min() > 1e3 * h)
    for t in (0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0):
        for stated, fn in (
                (m.jac_drift_at(t, x), lambda y: m.drift(t, y)),
                (m.jac_dispersion_at(t, x), lambda y: m.sigma(t, y))):
            assert np.allclose(stated, _central(fn, x, h), rtol=1e-6,
                               atol=1e-6)
        dSigma = _central(lambda y: m.sigma_sigma_T(t, y), x, h)
        assert np.allclose(m.div_sigma_rows_at(t, x),
                           np.einsum("ill->i", dSigma), rtol=1e-6, atol=1e-6)


def test_piecewise_sigma_across_a_breakpoint():
    m = piecewise_model([0.0, 0.5, 1.0], rates=[-1.0, 2.0], sigmas=[1.0, 0.5])
    X = np.linspace(-2.0, 2.0, 7)[:, None]
    for t, s in ((0.25, 1.0), (0.5, 1.0), (0.50001, 0.5), (1.0, 0.5)):
        assert np.array_equal(m.sigma(t, X), np.full((7, 1, 1), s))
        assert np.array_equal(m.sigma(t, X[0]), [[s]])


def test_symmetry_invariant_random_sigma():
    rng = np.random.default_rng(2)
    sig = rng.uniform(-1, 1, size=(4, 3))
    m = DiffusionModel(
        dim_d=4, dim_m=3,
        drift=lambda t, x: np.zeros(4),
        dispersion=lambda t, x: sig,
    )
    S = m.sigma_sigma_T(0.0, np.zeros(4))
    assert np.abs(S - S.T).max() < 1e-14


_GRID = TimeGrid(0.0, 1.0, 10)
_ENTRY_POINTS = {
    "euler_maruyama_path": lambda m: euler_maruyama_path(
        m, sample_initial(DiracMixture([[0.5]]), 50, seed=1), _GRID,
        seed=1).terminal.positions,
    "check_moment_bound": lambda m: check_moment_bound(
        m, [0.0], [1.0], _GRID, 50, seed=2).sup_empirical,
    "check_ellipticity": lambda m: check_ellipticity(
        m, [(0.3, [1.0])], 0.1).min_eigenvalue,
    "estimate_lipschitz": lambda m: estimate_lipschitz(
        m, ([-1.0], [1.0]), [0.0, 0.5], 5, seed=3).K,
    "simulate_reversal_selfconsistent":
        lambda m: simulate_reversal_selfconsistent(
            m, gaussian(0.0, 1.0), _GRID, 50, seed=6).terminal.positions,
    "injectivity_probe": lambda m: injectivity_probe(
        m, [DiracMixture([[0.0]]), DiracMixture([[1.0]])], 1.0, 40, seed=4,
        n_steps=5).distances,
    "reconstruct_dirac_search": lambda m: np.array(reconstruct_dirac_search(
        m, sample_initial(DiracMixture([[0.0]]), 40, seed=5), [[0.0], [1.0]],
        1.0, 40, seed=5, n_steps=5).x_hat),
}


def _plain_ou(c, s):
    """A plain DiffusionModel with the coefficients of a 1-d OU model."""
    C, S = np.array([[c]]), np.array([[s]])
    return DiffusionModel(
        dim_d=1, dim_m=1,
        drift=lambda t, x: np.asarray(x, float) @ C.T,
        dispersion=lambda t, x: S,
        jac_drift=lambda t, x: C,
        jac_dispersion=lambda t, x: np.zeros((1, 1, 1)),
        div_sigma_rows=lambda t, x: np.zeros(np.shape(x) if np.ndim(x) > 1
                                             else (1,)),
    )


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_convert_the_ou_model(entry):
    # an OUModel is a DiffusionModel: every entry point takes it as it is,
    # with the bits of a hand-built model with the same coefficients
    ou = make_model("ou", C=-0.7, sigma=0.9)
    assert isinstance(ou, DiffusionModel)
    assert ou.as_diffusion_model() is ou
    run = _ENTRY_POINTS[entry]
    assert np.array_equal(run(ou), run(_plain_ou(-0.7, 0.9)))
