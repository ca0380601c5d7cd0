"""Source recovery: ODE-exactness oracles, matrix exponentials, searches."""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from retrodiff import (
    AffineDrift,
    AmplificationWindowError,
    DiracMixture,
    ParticleEnsemble,
    TimeGrid,
    dirac,
    extract_source_location,
    gaussian,
    heat_initial_transform,
    injectivity_probe,
    reconstruct_dirac_affine,
    reconstruct_dirac_affine_mc,
    reconstruct_dirac_search,
    euler_maruyama_path,
    sample_initial,
)
from retrodiff import inverse
from retrodiff.models import affine_model, heat_model, ou_model
from test_forward import _assert_no_child_left, _cpus, _open_fds, needs_fork

GRID = TimeGrid(0.0, 1.0, 1000)


def test_no_drift_identity_bitwise():
    drift = AffineDrift.constant([0.0], [[0.0]])
    m = np.array([1.2345678901234567])
    out = reconstruct_dirac_affine(drift, m, GRID)
    assert np.array_equal(out, m)


def test_scalar_exponential_oracle():
    c = 0.8
    drift = AffineDrift.constant([0.0], [[c]])
    m = np.array([2.0])
    out = reconstruct_dirac_affine(drift, m, GRID)
    assert abs(out[0] - 2.0 * np.exp(-c)) < 1e-10


def test_rotation_matrix_exponential_oracle():
    b1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    drift = AffineDrift.constant([0.0, 0.0], b1)
    T = np.pi / 2
    grid = TimeGrid(0.0, T, 1000)
    terminal = np.array([0.0, 1.0])
    oracle = expm(-b1 * T) @ terminal
    out = reconstruct_dirac_affine(drift, terminal, grid)
    assert np.abs(out - oracle).max() < 1e-10
    # and the full round trip: push x0 forward with the oracle, come back
    x0 = np.array([1.0, 0.0])
    back = reconstruct_dirac_affine(drift, expm(b1 * T) @ x0, grid)
    assert np.abs(back - x0).max() < 1e-10


def test_reconstruction_is_affine_in_terminal_mean():
    drift = AffineDrift.constant([0.3], [[-0.7]])
    m1, m2, a = np.array([1.0]), np.array([-2.0]), 0.3
    f = lambda m: reconstruct_dirac_affine(drift, m, GRID)  # noqa: E731
    lhs = f(a * m1 + (1 - a) * m2)
    rhs = a * f(m1) + (1 - a) * f(m2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_overflowing_mean_names_the_node():
    # the first step of the augmented flow overflows, exact or RK4
    grid = TimeGrid(0.0, 1.0, 10)
    for drift in (AffineDrift.constant([0.0], [[1e300]]),
                  AffineDrift(b0=lambda t: np.zeros(1),
                              b1=lambda t: np.array([[1e300]]), dim=1)):
        with pytest.warns(RuntimeWarning), pytest.raises(
                ValueError, match=r"non-finite fundamental matrix at node 1 "):
            reconstruct_dirac_affine(drift, np.array([1.0]), grid)


def test_constant_drift_refuses_a_b1_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"b1 has shape \(1, 3\), but b0 of "
                                         r"shape \(2,\) needs \(2, 2\)"):
        AffineDrift.constant([0.0, 0.0], [[1.0, 2.0, 3.0]])


def test_a_constant_drift_is_hashable_and_equal_only_to_itself():
    a, b = (AffineDrift.constant([0.0], [[1.0]]) for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2


def test_terminal_mean_of_the_wrong_length_is_refused():
    drift = AffineDrift.constant([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError, match=r"terminal mean has shape \(3,\), "
                                         r"but the drift needs \(2,\)"):
        reconstruct_dirac_affine(drift, [1.0, 2.0, 3.0], GRID)


@st.composite
def affine_coefficients(draw):
    """Constant (b0, b1) with d = 1-3 and a horizon T in (0, 2]."""
    d = draw(st.integers(1, 3))
    b0 = draw(arrays(float, d, elements=st.floats(-1.0, 1.0)))
    b1 = draw(arrays(float, (d, d), elements=st.floats(-1.0, 1.0)))
    T = draw(st.floats(0.01, 2.0))
    return b0, b1, T


def _augmented(b0, b1):
    d = b0.shape[0]
    return np.block([[b1, b0[:, None]], [np.zeros((1, d + 1))]])


@settings(max_examples=30, deadline=None)
@given(coef=affine_coefficients(),
       x0=arrays(float, 3, elements=st.floats(-2.0, 2.0)))
def test_affine_routes_invert_the_augmented_exponential(coef, x0):
    b0, b1, T = coef
    d = b0.shape[0]
    x0 = x0[:d]
    # RK4's relative error at h = 1e-3 and |b1| <= 3 is below 1e-11
    grid = TimeGrid(0.0, T, 2000)
    m = (expm(_augmented(b0, b1) * T) @ np.append(x0, 1.0))[:d]
    exact = AffineDrift.constant(b0, b1)
    x_hat = reconstruct_dirac_affine(exact, m, grid)
    assert np.abs(x_hat - x0).max() <= 1e-10 * max(1.0, np.abs(x0).max())
    # M(0) of the standard error is expm(-b1 T); a two-point ensemble whose
    # per-coordinate standard error is e_0 reads its 2-norm
    M0 = np.linalg.inv(inverse._affine_flow(exact, grid)[0])
    oracle = expm(-b1 * T)
    assert np.abs(M0 - oracle).max() <= 1e-10 * np.abs(oracle).max()
    X = np.tile(m, (2, 1))
    X[:, 0] += [-1.0, 1.0]
    ens = ParticleEnsemble(time=T, positions=X)
    _, se = reconstruct_dirac_affine_mc(exact, None, ens, grid)
    assert abs(se - np.linalg.norm(oracle, 2)) <= 1e-10 * se
    rk4 = AffineDrift(b0=lambda t: b0, b1=lambda t: b1, dim=d)
    assert (np.abs(reconstruct_dirac_affine(rk4, m, grid) - x_hat).max()
            <= 1e-10 * max(1.0, np.abs(x_hat).max()))


def test_mc_reconstruction_with_forward_data():
    # forward cloud from x0 under b = -x, recovered within 3 stderr
    x0 = 2.0
    model = ou_model(C=-1.0, sigma=1.0)
    init = sample_initial(DiracMixture([[x0]]), 10**5, seed=31)
    path = euler_maruyama_path(model.as_diffusion_model(), init,
                               TimeGrid(0.0, 1.0, 200), seed=31)
    drift = AffineDrift.constant([0.0], [[-1.0]])
    x_hat, se = reconstruct_dirac_affine_mc(drift, 1.0, path.terminal,
                                            TimeGrid(0.0, 1.0, 200))
    assert se > 0.0
    assert abs(x_hat[0] - x0) <= 3.0 * se + 0.01  # small Euler bias allowance


def test_mc_reconstruction_exact_for_constant_ensemble():
    ens = ParticleEnsemble(time=1.0, positions=np.full((50, 1), 0.75))
    drift = AffineDrift.constant([0.0], [[0.0]])
    x_hat, se = reconstruct_dirac_affine_mc(drift, 1.0, ens, GRID)
    assert se == 0.0 and x_hat[0] == 0.75


def test_mc_reconstruction_tiny_ensemble_reports_wide_error():
    model = heat_model()
    init = sample_initial(DiracMixture([[0.0]]), 10, seed=32)
    path = euler_maruyama_path(model.as_diffusion_model(), init,
                               TimeGrid(0.0, 1.0, 50), seed=32)
    drift = AffineDrift.constant([0.0], [[0.0]])
    x_hat, se = reconstruct_dirac_affine_mc(drift, 1.0, path.terminal,
                                            TimeGrid(0.0, 1.0, 50))
    assert se > 0.05  # honest, wide error bar


def test_heat_transform_round_trip():
    # mu from a point source under du/dt = Lap(u): variance 2T, transform
    # exp(-T |xi|^2); the backward factor is exp(+T |xi|^2)
    T = 1.0
    mu_hat = lambda xi: np.exp(-T * np.dot(xi, xi))  # noqa: E731
    for r in (0.5, 1.5, 2.9):
        out = heat_initial_transform(mu_hat, T, np.array([r]), xi_max=3.0,
                                     exponent_cap=50.0)
        assert abs(out - 1.0) < 1e-12


def test_heat_transform_divergence_flagged():
    mu_hat = lambda xi: 1.0 + 0j  # noqa: E731  (point mass terminal datum)
    with pytest.raises(AmplificationWindowError):
        heat_initial_transform(mu_hat, 1.0, np.array([8.0]))
    with pytest.raises(AmplificationWindowError):
        heat_initial_transform(mu_hat, 1.0, np.array([4.0]), xi_max=5.0,
                               exponent_cap=10.0)


def test_heat_transform_phase_recovers_location():
    T, x0 = 0.7, np.array([1.3, -0.4])
    centre = gaussian(x0, 2.0 * T * np.eye(2))

    def recovered(xi):
        return heat_initial_transform(centre.char_transform, T, xi)

    est = extract_source_location(recovered, dim=2)
    assert np.abs(est - x0).max() < 1e-6


def test_injectivity_translated_sources():
    model = heat_model().as_diffusion_model()
    rep = injectivity_probe(model, [dirac([0.0]), dirac([1.0])], T=1.0,
                            n=4000, seed=33)
    assert rep.verdict == "injective"
    assert rep.distances[0, 1] > 0.5
    assert np.allclose(rep.distances, rep.distances.T)
    assert np.all(np.diag(rep.distances) == 0.0)


def test_injectivity_identical_candidates_ambiguous():
    model = heat_model().as_diffusion_model()
    rep = injectivity_probe(model, [dirac([0.5]), dirac([0.5])], T=1.0,
                            n=4000, seed=34)
    assert rep.verdict == "ambiguous"
    assert rep.distances[0, 1] <= 3.0 * rep.noise_floor


def test_injectivity_json_schema():
    model = heat_model().as_diffusion_model()
    rep = injectivity_probe(model, [dirac([0.0]), dirac([1.0])], T=0.5,
                            n=1000, seed=35)
    d = rep.to_json_dict()
    assert set(d) == {"candidates", "distances", "noise_floor", "verdict"}
    assert d["verdict"] in ("injective", "ambiguous")
    assert len(d["distances"]) == 2 and len(d["distances"][0]) == 2


@pytest.mark.parametrize("n", [0, 1])
def test_probe_refuses_fewer_than_two_particles(n):
    model = heat_model().as_diffusion_model()
    with pytest.raises(ValueError, match=f"at least 2 particles, got n = {n}"):
        injectivity_probe(model, [dirac([0.0]), dirac([1.0])], T=0.5, n=n,
                          seed=35, n_steps=5)


def test_search_refuses_a_one_particle_target():
    model = heat_model().as_diffusion_model()
    target = sample_initial(dirac([0.0]), 1, seed=36)
    with pytest.raises(ValueError, match="target ensemble needs at least 2 "
                                         "particles, got 1"):
        reconstruct_dirac_search(model, target, [[0.0], [1.0]], T=0.5, n=40,
                                 seed=36, n_steps=5)


def test_search_recovers_source_on_grid():
    model = heat_model().as_diffusion_model()
    target_init = sample_initial(DiracMixture([[0.5]]), 2 * 10**4, seed=37)
    target = euler_maruyama_path(model, target_init, TimeGrid(0.0, 1.0, 200),
                                 seed=37).terminal
    res = reconstruct_dirac_search(
        model, target, [[-1.0], [-0.5], [0.0], [0.5], [1.0]], T=1.0,
        n=2 * 10**4, seed=38,
    )
    assert res.x_hat[0] == 0.5
    assert len(res.table) == 5


def test_search_self_match_and_tie_break():
    model = heat_model().as_diffusion_model()
    target_init = sample_initial(DiracMixture([[0.0]]), 2000, seed=39)
    target = euler_maruyama_path(model, target_init, TimeGrid(0.0, 1.0, 100),
                                 seed=39).terminal
    # two identical candidates: tie flagged, lexicographically smallest wins
    res = reconstruct_dirac_search(model, target, [[0.0], [0.0]], T=1.0,
                                   n=2000, seed=39)
    ties = [t for _, _, t in res.table]
    assert all(ties)
    assert res.x_hat[0] == 0.0
    with pytest.raises(ValueError, match="empty"):
        reconstruct_dirac_search(model, target, [], T=1.0, n=10, seed=0)


def _probe_bits(d):
    model = heat_model(dim=d)
    cands = [dirac([0.1 * k] * d) for k in range(5)]
    rep = injectivity_probe(model, cands, T=0.5, n=60, seed=40, n_steps=10)
    return rep.distances, np.array([rep.noise_floor]), rep.verdict


def _search_bits(d):
    model = heat_model(dim=d)
    target = sample_initial(gaussian([0.2] * d, 0.5 * np.eye(d)), 80, seed=41)
    res = reconstruct_dirac_search(model, target, [[0.1 * k] * d
                                                   for k in range(5)],
                                   T=0.5, n=60, seed=42, n_steps=10)
    return (np.array([s for _, s, _ in res.table]), res.x_hat,
            np.array([res.noise_floor]))


REPORTS = {
    "probe-w1-1d": lambda: _probe_bits(1),
    "probe-w1-2d": lambda: _probe_bits(2),
    "search-1d": lambda: _search_bits(1),
    "search-2d": lambda: _search_bits(2),
}


def _raw(report):
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in report]


@needs_fork
@pytest.mark.parametrize("case", sorted(REPORTS))
def test_reports_have_the_same_bits_on_any_cpu_count(case, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(1))
    want = _raw(REPORTS[case]())
    assert forks == []
    fds = _open_fds()
    for cpus in (2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", _cpus(cpus))
        assert _raw(REPORTS[case]()) == want
        _assert_no_child_left()
    assert len(forks) > 0
    assert _open_fds() == fds


@needs_fork
@pytest.mark.parametrize("cpus", [1, 3])
def test_a_candidate_that_blows_up_raises_its_own_error(cpus, monkeypatch):
    # the last candidate's cloud overflows, in the third process on 3 CPUs
    model = affine_model([0.0], [[10.0]])
    cands = [[0.0], [0.5], [1e308]]
    target = sample_initial(dirac([0.0]), 20, seed=43)
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(cpus))
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="non-finite position for particle "
                                           "0 at step 1"):
        reconstruct_dirac_search(model, target, cands, T=0.5, n=20, seed=43,
                                 n_steps=5)
    with pytest.raises(RuntimeError, match="non-finite position"):
        injectivity_probe(model, [dirac(c) for c in cands], T=0.5, n=20,
                          seed=43, n_steps=5)
    _assert_no_child_left()
    assert _open_fds() == fds


@needs_fork
def test_an_interrupted_probe_kills_and_reaps_its_children(monkeypatch):
    parent = os.getpid()
    cloud = inverse._terminal_cloud

    def sleep_in_child(*args):
        if os.getpid() != parent:
            time.sleep(60)
            return cloud(*args)
        raise KeyboardInterrupt

    monkeypatch.setattr(inverse, "_terminal_cloud", sleep_in_child)
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(3))
    fds = _open_fds()
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        injectivity_probe(heat_model(), [dirac([0.0]), dirac([1.0]),
                                         dirac([2.0])], T=0.5, n=20, seed=44)
    # the sleeping children were killed, not waited for
    assert time.perf_counter() - t0 < 30
    _assert_no_child_left()
    assert _open_fds() == fds
