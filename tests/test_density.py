"""KDE density/score: closed-kernel oracles, finite differences, scaling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retrodiff import (
    KdeField,
    gaussian,
    silverman_bandwidth,
    substream,
)
from retrodiff import density
from retrodiff.density import _interp_uniform, score_bandwidth
from retrodiff.grids import TimeGrid
from retrodiff.models import affine_model, heat_model, ou_model
from retrodiff.reversal import simulate_reversal_selfconsistent
from retrodiff.ou_analytic import ou_marginal, ou_reversal_drift


def kde_density(field, x):
    return np.exp(field.log_density_and_score(x)[0])


def kde_score(field, x):
    return field.log_density_and_score(x)[1]


def test_single_particle_peak():
    f = KdeField([[0.0]], 1.0)
    assert abs(kde_density(f, np.zeros(1)) - (2 * np.pi) ** -0.5) < 1e-12


def test_far_query_small_but_finite():
    f = KdeField([[0.0]], 1.0)
    v = kde_density(f, np.array([20.0]))
    assert 0.0 <= v < 1e-80


def test_density_matches_analytic_large_cloud():
    rng = substream(0, 50)
    X = rng.standard_normal((10**5, 1))
    f = KdeField(X, silverman_bandwidth(X))
    peak = kde_density(f, np.zeros(1))
    assert abs(peak - (2 * np.pi) ** -0.5) < 0.05 * (2 * np.pi) ** -0.5


def test_single_particle_score():
    a = 1.5
    h = 0.7
    f = KdeField([[a]], h)
    for x in (0.0, 1.0, 3.0):
        s = kde_score(f, np.array([x]))
        assert abs(s[0] + (x - a) / h**2) < 1e-9


def test_score_matches_density_finite_difference():
    rng = substream(1, 51)
    X = rng.standard_normal((2000, 1))
    f = KdeField(X, silverman_bandwidth(X))
    h = 1e-5
    for x in np.linspace(-1.5, 1.5, 9):
        num = (np.log(kde_density(f, np.array([x + h])))
               - np.log(kde_density(f, np.array([x - h])))) / (2 * h)
        s = kde_score(f, np.array([x]))[0]
        assert abs(s - num) <= 1e-6 * max(1.0, abs(num))


def test_score_cloud_close_to_gaussian_score():
    rng = substream(2, 52)
    X = rng.standard_normal((10**5, 1))
    f = KdeField(X, score_bandwidth(X))
    xs = np.linspace(-1.0, 1.0, 21)[:, None]
    _, s = f.log_density_and_score(xs)
    assert np.abs(s[:, 0] + xs[:, 0]).max() < 0.1


def test_vacuum_rows_are_minus_inf_and_nan():
    f = KdeField([[0.0]], 0.01)
    logp, s = f.log_density_and_score(np.array([[0.0], [50.0]]))
    assert np.isfinite(logp[0]) and np.isfinite(s[0]).all()
    assert logp[1] == -np.inf and np.isnan(s[1]).all()
    logp, s = f.log_density_and_score(np.array([50.0]))
    assert logp == -np.inf and np.isnan(s).all()


def test_no_overflow_far_field():
    f = KdeField([[0.0]], 1.0)
    assert kde_density(f, np.array([1e6])) == 0.0
    logp = f.log_density_and_score(np.array([1e6]))[0]
    assert logp == -np.inf


def test_silverman_formula_oracle():
    rng = substream(3, 53)
    X = rng.standard_normal((10**4, 1))
    h = silverman_bandwidth(X)
    oracle = X.std(ddof=1) * (4.0 / (3.0 * 10**4)) ** 0.2
    assert abs(h[0] - oracle) < 1e-14
    # doubling the spread doubles h; 4x the particles shrinks it by 4^(-1/5)
    assert abs(silverman_bandwidth(2.0 * X)[0] - 2.0 * h[0]) < 1e-12
    X4 = rng.standard_normal((4 * 10**4, 1))
    ratio = silverman_bandwidth(X4)[0] / (X4.std(ddof=1) * (4.0 / (3.0 * 4e4)) ** 0.2)
    assert abs(ratio - 1.0) < 1e-12


def test_silverman_degenerate_cloud():
    with pytest.raises(ValueError, match="degenerate"):
        silverman_bandwidth(np.zeros((10, 1)))
    with pytest.raises(ValueError):
        silverman_bandwidth(np.zeros((1, 1)))


def test_scale_equivariance_of_score():
    rng = substream(4, 54)
    X = rng.standard_normal((500, 2))
    lam = 3.0
    f1 = KdeField(X, [0.3, 0.4])
    f2 = KdeField(lam * X, [lam * 0.3, lam * 0.4])
    x = np.array([0.2, -0.1])
    s1 = kde_score(f1, x)
    s2 = kde_score(f2, lam * x)
    assert np.allclose(s2, s1 / lam, rtol=1e-12)


def _drift_at(model, mix, t_reversed, x):
    # the reversal's density term fed the exact score at forward time T - t
    t = model.horizon - t_reversed
    return model.density_drift(t, x, mix.score(x))


def test_reversal_drift_constant_diffusion_is_score():
    m = heat_model(dim=1).as_diffusion_model()
    x = np.array([[0.7], [-0.4]])
    drift = _drift_at(m, gaussian(0.0, 1.0), 0.3, x)
    assert np.allclose(drift, -x, atol=1e-14)


def test_reversal_drift_space_dependent_sigma():
    # Sigma = 1 + x^2, exact N(0,1) score: drift = 2x + (1+x^2)(-x) = x - x^3
    m = affine_model(0.0, 0.0, sigma_spec=("sqrt1px2", 100.0))
    mix = gaussian(0.0, 1.0)
    for x in (-1.5, -0.3, 0.0, 0.8, 2.0):
        v = _drift_at(m, mix, 0.2, np.array([[x]]))[0, 0]
        assert abs(v - (x - x**3)) < 1e-8
        assert abs(_drift_at(m, mix, 0.2, np.zeros((1, 1)))[0, 0]) < 1e-15


def test_reversal_drift_fd_oracle_on_div_sigma_p():
    # central-difference oracle for div(Sigma p)/p with Sigma = 1 + x^2
    m = affine_model(0.0, 0.0, sigma_spec=("sqrt1px2", 100.0))
    mix = gaussian(0.0, 1.0)
    h = 1e-5
    for x in (-0.9, 0.4, 1.1):
        def sp(y):
            return (1.0 + y * y) * mix.pdf(np.array([y]))
        fd = (sp(x + h) - sp(x - h)) / (2 * h) / mix.pdf(np.array([x]))
        v = _drift_at(m, mix, 0.2, np.array([[x]]))[0, 0]
        assert abs(v - fd) < 1e-8


@st.composite
def _ou_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    entries = st.floats(-1.0, 1.0)
    C = draw(arrays(float, (d, d), elements=entries))
    sigma = draw(arrays(float, (d, d), elements=entries))
    mean = draw(arrays(float, (d,), elements=entries))
    A = draw(arrays(float, (d, d), elements=entries))
    t = draw(st.integers(0, 950)) / 1000.0  # a node of the 1000-step grid
    x = draw(arrays(float, (3, d), elements=st.floats(-3.0, 3.0)))
    return ou_model(C, sigma), gaussian(mean, A @ A.T + 0.1 * np.eye(d)), t, x


@settings(max_examples=30, deadline=None)
@given(_ou_cases())
def test_reversal_drift_matches_ou_closed_form(case):
    # the density term with the exact marginal score is the OU closed form
    # Sigma grad log p (sigma constant, so no divergence term), written out
    # here with the model's own Sigma rather than through density_drift
    ou, nu, t, x = case
    a = ou_reversal_drift(ou, nu, t, x)
    b = ou_marginal(ou, nu, 1.0 - t).score(x) @ ou.Sigma(1.0 - t).T
    assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
def test_non_finite_bandwidth_is_refused(h):
    X = substream(7, 55).standard_normal((300, 1))
    with pytest.raises(ValueError, match="bandwidth"):
        KdeField(X, h).log_density_and_score_at_sources()
    with pytest.raises(ValueError, match="bandwidth"):
        simulate_reversal_selfconsistent(heat_model(dim=1), gaussian(0.0, 1.0),
                                         TimeGrid(0.0, 1.0, 10), n=300,
                                         bandwidth=h)


@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("n", [500, 5000])
def test_binned_matches_exact_on_the_cloud(n, exclude_self):
    # bimodal cloud, queried at its own particles as the reversal loop does
    rng = substream(n, 51)
    X = np.concatenate([rng.standard_normal((n // 2, 1)) - 1.5,
                        0.5 * rng.standard_normal((n - n // 2, 1)) + 1.0])
    f = KdeField(X, score_bandwidth(X))
    logp_e, score_e = f.log_density_and_score(X, exclude_self=exclude_self)
    logp_b, score_b = f.binned_log_density_and_score(X, exclude_self=exclude_self)
    assert np.isfinite(logp_e).all() and np.isfinite(score_e).all()
    assert np.max(np.abs(np.expm1(logp_b - logp_e))) <= 1e-4
    assert np.max(np.abs(score_b - score_e)) <= 1e-3


def test_binned_error_past_the_cloud():
    # the interpolation error grows away from the particles, to ~2e-4 in
    # the density and ~4e-4 in the score a few bandwidths past the cloud
    rng = substream(5000, 51)
    X = np.concatenate([rng.standard_normal((2500, 1)) - 1.5,
                        0.5 * rng.standard_normal((2500, 1)) + 1.0])
    h = float(silverman_bandwidth(X)[0])
    f = KdeField(X, h)
    q = np.linspace(X.min() - 3 * h, X.max() + 3 * h, 2001)[:, None]
    logp_e, score_e = f.log_density_and_score(q)
    logp_b, score_b = f.binned_log_density_and_score(q)
    assert np.max(np.abs(np.expm1(logp_b - logp_e))) <= 5e-4
    assert np.max(np.abs(score_b - score_e)) <= 1e-3


def test_binned_is_vacuum_outside_its_grid():
    X = substream(1, 52).standard_normal((200, 1))
    f = KdeField(X, 0.3)
    lo, hi = X.min() - 8 * 0.3, X.max() + 8 * 0.3
    q = np.array([[lo - 0.01], [hi + 0.01], [0.0]])
    logp, score = f.binned_log_density_and_score(q)
    assert np.array_equal(logp[:2], [-np.inf, -np.inf])
    assert np.isnan(score[:2]).all()
    assert np.isfinite(logp[2]) and np.isfinite(score[2]).all()
    # the exact evaluator still resolves those tails
    assert np.isfinite(f.log_density_and_score(q)[0]).all()


def bimodal_2d(n, seed):
    rng = substream(n, seed)
    return np.concatenate([rng.standard_normal((n // 2, 2)) - 1.5,
                           0.5 * rng.standard_normal((n - n // 2, 2))
                           + [1.0, 0.5]])


@pytest.mark.parametrize("rule", ["half_std", "score"])
@pytest.mark.parametrize("n", [2000, 20000])
def test_binned_2d_matches_exact_on_the_cloud(n, rule):
    # queried at its own particles without the self-kernel, as the reversal
    # loop does; judged where the density is above 1e-3 of its maximum
    X = bimodal_2d(n, 61)
    h = 0.5 * X.std(axis=0, ddof=1) if rule == "half_std" else score_bandwidth(X)
    f = KdeField(X, h)
    logp_e, score_e = f.log_density_and_score(X, exclude_self=True)
    logp_b, score_b = f._binned_2d(X, exclude_self=True)
    keep = logp_e > logp_e.max() + np.log(1e-3)
    dens_err = np.abs(np.expm1(logp_b - logp_e))[keep]
    score_err = (np.linalg.norm(score_b - score_e, axis=1)[keep]
                 / np.linalg.norm(score_e[keep], axis=1).mean())
    assert np.median(dens_err) <= 1e-2
    assert np.percentile(dens_err, 99) <= 5e-2
    assert np.median(score_err) <= 2e-2
    assert np.percentile(score_err, 99) <= 6e-2


def test_binned_2d_is_vacuum_outside_its_grid():
    X = bimodal_2d(500, 62)
    f = KdeField(X, [0.3, 0.2])
    lo, dg, G = f._tensor_grid
    hi = lo + dg * (G - 1)
    mid = 0.5 * (lo + hi)
    q = np.array([[lo[0] - 0.01, mid[1]], [hi[0] + 0.01, mid[1]],
                  [mid[0], lo[1] - 0.01], [mid[0], hi[1] + 0.01],
                  [np.nan, mid[1]], [0.0, 0.0]])
    logp, score = f._binned_2d(q)
    assert np.array_equal(logp[:5], np.full(5, -np.inf))
    assert np.isnan(score[:5]).all()
    assert np.isfinite(logp[5]) and np.isfinite(score[5]).all()
    # the exact evaluator still resolves the finite queries off the grid
    assert np.isfinite(f.log_density_and_score(q[:4])[0]).all()


def test_binned_2d_grid_has_a_point_cap():
    X = substream(3, 63).standard_normal((1000, 2))
    lo, dg, G = KdeField(X, 0.5)._tensor_grid
    assert (dg <= 0.5 / 4).all() and np.prod(G) <= density._GRID_POINTS_2D
    # a narrow kernel needs more than 2^16 points: no grid, and no binning
    f = KdeField(X, 0.1)
    assert f._tensor_grid is None
    with pytest.raises(ValueError, match="cap"):
        f._binned_2d(X)


def counting(monkeypatch, name):
    calls = []
    method = getattr(KdeField, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(KdeField, name, counted)
    return calls


@pytest.mark.parametrize("bandwidth, path", [(None, "_binned_2d"),
                                             (0.12, "log_density_and_score")])
def test_selfconsistent_2d_dispatch_follows_the_grid_cap(monkeypatch,
                                                         bandwidth, path):
    # the default bandwidth (half the cloud's spread) gives a grid of about
    # 120 x 120 points; h = 0.12 needs over 2^16, so the exact sums run
    rot = ou_model([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))
    calls = {name: counting(monkeypatch, name)
             for name in ("_binned_2d", "log_density_and_score")}
    run = simulate_reversal_selfconsistent(
        rot, gaussian([0.0, 0.0], np.eye(2)), TimeGrid(0.0, 1.0, 4), 2000,
        epsilon_stop=0.25, seed=5, bandwidth=bandwidth)
    assert {name: len(c) for name, c in calls.items()} == {
        name: run.grid.n_steps if name == path else 0 for name in calls}


def test_binned_rejects_multi_d():
    f = KdeField(np.zeros((3, 2)), 1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        f.binned_log_density_and_score(np.zeros((1, 2)))


def assert_same_bits(got, want):
    got = np.ascontiguousarray(got, dtype=float).ravel()
    want = np.ascontiguousarray(want, dtype=float).ravel()
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (
        f"{bad.size} of {got.size} values differ; first at {bad[0]}: "
        f"{float(got[bad[0]]).hex()} != {float(want[bad[0]]).hex()}")


def interp_checked_against_np_interp(grids):
    # wraps the index-based interpolation: every call is compared bit for
    # bit with np.interp on the same grid and values, and its grid recorded
    def checked(x, grid, dg, values):
        got = _interp_uniform(x, grid, dg, values)
        for g, f in zip(got, values):
            assert_same_bits(g, np.interp(x, grid, f))
        grids.append(grid)
        return got
    return checked


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       # n below and above the 4096-point grid: np.interp precomputes its
       # slopes only when the grid is no longer than the query array
       n=st.one_of(st.integers(2, 600), st.integers(4097, 9000)),
       stretched=st.booleans(), exclude_self=st.booleans())
def test_binned_interpolation_has_np_interp_bits(seed, n, stretched,
                                                 exclude_self):
    rng = np.random.default_rng(seed)
    if stretched:
        # spread over thousands of bandwidths: the grid doubles past 4096
        X = np.concatenate([[0.0, 500.0], rng.uniform(0.0, 500.0, n - 2)])[:, None]
        h = 0.1
    else:
        X = np.concatenate([rng.standard_normal((n // 2, 1)) - 1.5,
                            0.5 * rng.standard_normal((n - n // 2, 1)) + 1.0])
        h = 0.1 + rng.uniform() * float(X.std())
    f = KdeField(X, h)
    grids = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_interp_uniform",
                   interp_checked_against_np_interp(grids))
        f.binned_log_density_and_score(X, exclude_self=exclude_self)
        grid = grids[0]
        assert (grid.size > 4096) == stretched
        lo, hi = X.min() - 8.0 * h, X.max() + 8.0 * h
        nodes = grid[rng.integers(0, grid.size, 200)]
        ends = np.array([lo, grid[1], grid[-2], grid[-1], hi])
        q = np.concatenate([
            nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
            0.5 * (grid[:-1] + grid[1:])[rng.integers(0, grid.size - 1, 200)],
            ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
            [lo - h, hi + h, -np.inf, np.inf, np.nan], X[:50, 0],
        ])
        f.binned_log_density_and_score(q[:, None])
    assert len(grids) == 2


@settings(max_examples=200, deadline=None)
@given(G=st.integers(2, 40), lo=st.floats(-1e3, 1e3),
       dg=st.floats(1e-3, 1e2), data=st.data())
def test_interp_uniform_has_np_interp_bits(G, lo, dg, data):
    # arbitrary finite values, signed zeros included: on a node np.interp
    # returns f[j] itself, and at or past the last node f[-1]
    grid = lo + dg * np.arange(G)
    elems = st.floats(-1e100, 1e100, allow_subnormal=True)
    values = [data.draw(arrays(float, G, elements=elems)) for _ in range(2)]
    nodes = data.draw(arrays(np.intp, 12, elements=st.integers(0, G - 1)))
    frac = data.draw(arrays(float, 12, elements=st.floats(0.0, 1.5)))
    q = np.concatenate([grid[nodes], np.nextafter(grid[nodes], np.inf),
                        np.nextafter(grid[nodes], -np.inf),
                        lo + frac * dg * (G - 1)])
    q = q[q >= grid[0]]
    for got, f in zip(_interp_uniform(q, grid, dg, values), values):
        assert_same_bits(got, np.interp(q, grid, f))


def test_exact_evaluation_builds_one_block_per_chunk():
    # each 512-row chunk lives in one (512, N) buffer: squared distances,
    # log-weights and weights in place, freed before the next chunk builds
    # its own, so at most one block is alive
    X = substream(7, 56).standard_normal((2000, 2))
    f = KdeField(X, score_bandwidth(X))
    block = density._CHUNK * X.shape[0] * 8
    tracemalloc.start()
    try:
        f.log_density_and_score(X, exclude_self=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block, f"peak {peak / 1e6:.1f} MB"


def finish_oracle(n, inside, dens, grad, k_self):
    # _binned_finish as first written: masked copies of both inputs, then
    # three np.where selections and a second floor mask
    dens = np.where(inside, dens, 0.0)
    grad = np.where(inside[:, None], grad, 0.0)
    if k_self is not None:
        dens = dens - k_self
    floor = n * 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logp = np.where(dens > 0.0, np.log(np.maximum(dens, 1e-300)), -np.inf)
        score = np.where((dens >= floor)[:, None],
                         grad / np.maximum(dens, 1e-300)[:, None], np.nan)
    logp[dens < floor] = -np.inf
    return logp, score


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 7, 2000]), d=st.integers(1, 2),
       k_self=st.sampled_from([None, 0.0, 1e-300, 0.37]), data=st.data())
def test_binned_finish_has_the_masked_formula_bits(n, d, k_self, data):
    # densities at, one ulp above and one ulp below the floor (before and
    # after the self-kernel), signed zeros, negatives, NaN and infinities;
    # rows off the grid whatever their values
    floor = n * 1e-300
    edges = [floor, np.nextafter(floor, np.inf), np.nextafter(floor, -np.inf)]
    edges += [e + (k_self or 0.0) for e in edges]
    special = edges + [0.0, -0.0, -1.0, -floor, 1e-300, 5e-324, 1.0,
                       np.nan, np.inf, -np.inf]
    m = data.draw(st.integers(0, 24))
    dens = data.draw(arrays(float, m, elements=st.one_of(
        st.sampled_from(special), st.floats(allow_subnormal=True))))
    grad = data.draw(arrays(float, (m, d), elements=st.floats()))
    inside = data.draw(arrays(bool, m, elements=st.booleans()))
    f = KdeField(np.arange(n, dtype=float)[:, None], 1.0)
    got = f._binned_finish(inside, dens.copy(), grad.copy(), k_self)
    for g, w in zip(got, finish_oracle(n, inside, dens, grad, k_self)):
        assert g.shape == w.shape
        assert_same_bits(g, w)


def test_centred_kernel_is_the_rolled_padding():
    K = np.arange(1.0, 12.0)
    kk = np.zeros(32)
    kk[: K.size] = K
    assert_same_bits(density._centred(K, 32), np.roll(kk, -5))
    both = np.stack([K, -K])
    padded = np.zeros((2, 11))
    padded[:, :11] = both
    assert_same_bits(density._centred(both, 11), np.roll(padded, -5, axis=1))


def arrays_held(field):
    # every array the field keeps, also inside tuples
    for v in vars(field).values():
        for a in (v if isinstance(v, tuple) else (v,)):
            if isinstance(a, np.ndarray):
                yield a


def test_binned_path_keeps_no_copy_of_the_cloud():
    # the 1-D binned path reads the cloud itself; the exact sums build
    # their scaled copy on their first query
    X = substream(9, 57).standard_normal((500, 1))
    f = KdeField(X, score_bandwidth(X))
    f.log_density_and_score_at_sources()
    f.binned_log_density_and_score(X[:7])
    rows = [a for a in arrays_held(f) if a.shape[:1] == (f.n,)]
    assert len(rows) == 1 and rows[0] is f.positions
    f.log_density_and_score(X[:7])
    assert sum(a.shape[:1] == (f.n,) for a in arrays_held(f)) == 3


@pytest.mark.parametrize("d, path", [(1, "log_density_and_score"),
                                     (1, "binned_log_density_and_score"),
                                     (2, "log_density_and_score"),
                                     (2, "_binned_2d")])
def test_exclude_self_needs_the_source_cloud(d, path):
    X = substream(d, 58).standard_normal((500, d))
    method = getattr(KdeField(X, 0.3), path)
    with pytest.raises(ValueError, match="exclude_self requires"):
        method(X[:10], exclude_self=True)
    # the cloud itself is accepted, and plain queries need no match
    assert np.isfinite(method(X, exclude_self=True)[0]).all()
    assert np.isfinite(method(X[:10])[0]).all()


def test_2d_grid_is_built_once_per_field(monkeypatch):
    calls = []
    fft_length = density._fft_length
    monkeypatch.setattr(density, "_fft_length",
                        lambda n: calls.append(n) or fft_length(n))
    X = bimodal_2d(500, 64)
    f = KdeField(X, [0.3, 0.2])
    f.log_density_and_score_at_sources()
    f._binned_2d(X[:5])
    assert len(calls) == 2  # one FFT length per axis
