"""Reversed McKean dynamics: marginal recovery, mode agreement, proxies.

Oracles: the residual scale sqrt(eps) of a collapsing point-source bridge,
analytic reversed marginals N(0, v0 + T - t), and the analytic-drift run
itself for the self-consistent mode.
"""

import io
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retrodiff import (
    DegenerateDensityError,
    GaussianMixture,
    TimeGrid,
    check_integrability_proxy,
    dirac,
    gaussian,
    ou_marginal,
    simulate_reversal_analytic,
    simulate_reversal_selfconsistent,
    substream,
    verify_representation,
    export_diagnostics_csv,
)
from retrodiff.density import KdeField
from retrodiff.metrics import energy_distance_nd, ks_statistic, wasserstein1
from retrodiff.reversal import StepDiagnostics, _launch, _law_stat, _run_loop
from retrodiff.models import affine_model, heat_model, ou_model
from test_distributions import mixtures

HEAT = heat_model(dim=1)
TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def heat_reference(nu):
    return lambda t: ou_marginal(HEAT, nu, HEAT.horizon - t)


def test_point_source_recovery_bridge_oracle():
    # residual std at the stop time is ~ sqrt(eps) = 0.1
    run = simulate_reversal_analytic(
        HEAT, dirac([0.0]), gaussian(0.0, 1.0), TimeGrid(0.0, 1.0, 500),
        n=5000, epsilon_stop=1e-2, seed=3,
    )
    X = run.terminal.positions
    assert abs(X.mean()) <= 0.05
    assert X.std() <= 0.15
    assert run.grid.t_end == pytest.approx(0.99)


def test_gaussian_source_marginals_match():
    # nu = N(0,1), mu = N(0,2): reversed marginal at t is N(0, 2 - t)
    run = simulate_reversal_analytic(
        HEAT, gaussian(0.0, 1.0), gaussian(0.0, 2.0), TimeGrid(0.0, 1.0, 500),
        n=2 * 10**4, epsilon_stop=1e-2, seed=4,
    )
    rep = verify_representation(run, heat_reference(gaussian(0.0, 1.0)),
                                threshold=0.02)
    assert rep.passed, rep.summary()
    # spot-check the analytic variance law itself
    mid = run.path.snapshots[len(run.path.snapshots) // 2]
    assert abs(mid.positions.var() - (2.0 - mid.time)) < 0.06


def test_run_stops_at_the_last_node_before_the_stop_gap():
    # 150 steps with the default eps = 0.01 T: (T - eps) / dt = 148.5, so
    # the run ends at node 148, a gap of 0.0133; the report keeps eps
    grid = TimeGrid(0.0, 1.0, 150)
    run = simulate_reversal_analytic(HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                                     grid, n=100, seed=1)
    assert run.grid.t_end == 148 * grid.dt
    assert run.epsilon_stop == 0.01
    assert 1.0 - run.grid.t_end == pytest.approx(0.0133, abs=1e-4)


@pytest.mark.parametrize("C, sigma, n_steps, n, eps", [
    # KS reads 0.0099; 1-D KS needs the fine grid to stay below 0.02
    pytest.param([[-1.0]], [[1.0, 0.5]], 1000, 2 * 10**4, None, id="1x2"),
    # the Kolmogorov model, noise on the velocity only: projected KS 0.0126
    # at s = 0.95, where the position variance is about 4e-5
    pytest.param([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], 200, 2 * 10**4,
                 0.05, id="2x1"),
])
def test_non_square_dispersion_reverses_to_its_marginals(C, sigma, n_steps,
                                                         n, eps):
    # the drift sees sigma only through Sigma = sigma sigma^T
    ou = ou_model(C, sigma)
    nu = dirac(np.zeros(ou.dim_d))
    mu = ou_marginal(ou, nu, 1.0, n_steps)
    run = simulate_reversal_analytic(ou, nu, mu, TimeGrid(0.0, 1.0, n_steps),
                                     n=n, epsilon_stop=eps, seed=7)
    assert not run.terminal_check_failed
    rep = verify_representation(
        run, lambda t: ou_marginal(ou, nu, 1.0 - t, n_steps=n_steps))
    assert rep.passed, rep.summary()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_law_stat_is_ks_in_1d_and_permutation_invariant(data):
    law = data.draw(mixtures(kinds=("gaussian",)))
    n = data.draw(st.integers(2, 300))
    X = data.draw(arrays(np.float64, (n, law.dim),
                         elements=st.floats(-6.0, 6.0)))
    stat = _law_stat(X, law)
    assert 0.0 <= stat <= 1.0
    perm = np.random.default_rng(n).permutation(n)
    assert _law_stat(X[perm], law) == stat
    if law.dim == 1:
        ks = ks_statistic(X, law.cdf1d)
        assert np.float64(stat).tobytes() == np.float64(ks).tobytes()


def test_vacuum_rows_keep_only_minus_b():
    # b = 0 and an x-dependent sigma (div Sigma != 0): with every row in
    # vacuum the whole density term, div Sigma included, is dropped
    model = affine_model(0.0, 0.0, sigma_spec=("sqrt1px2", 10.0))
    Y = substream(3, 1).standard_normal((50, 1))

    def score_fn(k, s, X):
        return np.ones_like(X), np.ones(len(X), dtype=bool)

    _, diag = _run_loop(model, TimeGrid(0.0, 0.5, 10), Y, 3, score_fn, None)
    assert np.array_equal(diag.max_drift, np.zeros(10))
    assert np.array_equal(diag.vacuums, np.full(10, 50))


def test_nan_model_horizon_fails_the_horizon_check():
    grid = TimeGrid(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="horizon"):
        simulate_reversal_selfconsistent(heat_model(horizon=float("nan")),
                                         gaussian(0.0, 1.0), grid, n=100)
    # a model that bypasses its constructor's check meets the launch's
    with pytest.raises(ValueError, match="grid horizon must match"):
        _launch(SimpleNamespace(horizon=float("nan")), gaussian(0.0, 1.0),
                grid, 100, None, None, 0)


def test_degenerate_dispersion_rejected():
    dead = ou_model(C=0.0, sigma=0.0)
    with pytest.raises(ValueError, match="elliptic"):
        simulate_reversal_selfconsistent(
            dead, gaussian(0.0, 1.0), TimeGrid(0.0, 1.0, 100), n=200, seed=0
        )


@pytest.mark.parametrize("mu", [
    pytest.param(dirac([0.0]), id="point-mass"),
    pytest.param(GaussianMixture([0.5, 0.5], [[0.0], [1.0]],
                                 [[[1.0]], [[0.0]]]), id="one-point-mass"),
    pytest.param(gaussian([0.0, 0.0], np.diag([1.0, 0.0])), id="rank-one"),
])
def test_selfconsistent_refuses_a_terminal_law_without_density(mu):
    # a kernel estimate of a singular law does not exist; the refusal comes
    # before the terminal draw, which would raise a TypeError here
    model = HEAT if mu.dim == 1 else heat_model(dim=2)
    mu.sample = None
    with pytest.raises(DegenerateDensityError, match="singular component"):
        simulate_reversal_selfconsistent(model, mu, TimeGrid(0.0, 1.0, 20),
                                         n=100, seed=0)


def test_mismatched_terminal_warns_and_fails_verification():
    # N(0, 0.25) is not a reachable terminal law of the point-source flow
    with pytest.warns(UserWarning, match="no consistent solution"):
        run = simulate_reversal_analytic(
            HEAT, dirac([0.0]), gaussian(0.0, 0.25), TimeGrid(0.0, 1.0, 500),
            n=2 * 10**4, epsilon_stop=1e-2, seed=5,
        )
    assert run.terminal_check_failed is True
    rep = verify_representation(run, heat_reference(dirac([0.0])),
                                threshold=0.1)
    assert rep.max_stat > 0.1
    assert not rep.passed


def test_terminal_verdict_is_false_when_consistent_or_unchecked():
    # only the analytic mode checks its terminal law; a kernel run reads False
    grid = TimeGrid(0.0, 1.0, 20)
    good = simulate_reversal_analytic(HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                                      grid, n=2000, seed=5)
    kernel = simulate_reversal_selfconsistent(HEAT, gaussian(0.0, 0.25), grid,
                                              n=300, seed=5)
    assert [r.terminal_check_failed for r in (good, kernel)] == [False, False]


@pytest.mark.parametrize("clip", [-1.0, 0.0, float("nan"), float("inf")])
def test_drift_clip_must_be_positive_finite(clip):
    grid = TimeGrid(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="drift_clip"):
        simulate_reversal_analytic(HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                                   grid, n=100, drift_clip=clip)
    with pytest.raises(ValueError, match="drift_clip"):
        simulate_reversal_selfconsistent(HEAT, gaussian(0.0, 1.0), grid,
                                         n=100, drift_clip=clip)


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_particles_are_refused(n):
    grid = TimeGrid(0.0, 1.0, 20)
    with pytest.raises(ValueError, match=f"at least 2 particles, got n = {n}"):
        simulate_reversal_analytic(HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                                   grid, n=n)
    with pytest.raises(ValueError, match=f"at least 2 particles, got n = {n}"):
        simulate_reversal_selfconsistent(HEAT, gaussian(0.0, 1.0), grid, n=n)


def test_determinism_fixed_seed():
    kw = dict(grid=TimeGrid(0.0, 1.0, 100), n=400, epsilon_stop=0.05)
    a = simulate_reversal_analytic(HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                                   seed=11, **kw)
    b = simulate_reversal_analytic(HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                                   seed=11, **kw)
    assert np.array_equal(a.terminal.positions, b.terminal.positions)
    assert np.array_equal(a.diagnostics.max_drift, b.diagnostics.max_drift)


def test_halving_epsilon_reduces_terminal_std():
    stds = {}
    for eps in (2e-2, 1e-2):
        vals = []
        for seed in range(10):
            run = simulate_reversal_analytic(
                HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                TimeGrid(0.0, 1.0, 200), n=4000, epsilon_stop=eps, seed=seed,
            )
            vals.append(run.terminal.positions.std())
        stds[eps] = np.mean(vals)
    assert stds[1e-2] < stds[2e-2]


def test_rotation_centroid_recovery():
    C = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ou = ou_model(C, np.eye(2))
    nu = dirac([1.0, 0.0])
    mu = ou_marginal(ou, nu, 1.0)
    run = simulate_reversal_analytic(
        ou, nu, mu, TimeGrid(0.0, 1.0, 500), n=10**4, epsilon_stop=1e-2,
        seed=8,
    )
    centroid = run.terminal.positions.mean(axis=0)
    assert np.linalg.norm(centroid - np.array([1.0, 0.0])) < 0.05


def test_integrability_proxy_point_source():
    run = simulate_reversal_analytic(
        HEAT, dirac([0.0]), gaussian(0.0, 1.0), TimeGrid(0.0, 1.0, 1000),
        n=5000, epsilon_stop=1e-2, seed=9,
    )
    rep = check_integrability_proxy(run)
    assert np.isfinite(rep.drift_integral)
    # |x| ~ sqrt(T-t) against the 1/(T-t) score: exponent about 1/2
    assert 0.3 < rep.growth_exponent < 0.7


def test_integrability_proxy_bounded_case():
    run = simulate_reversal_analytic(
        HEAT, gaussian(0.0, 1.0), gaussian(0.0, 2.0), TimeGrid(0.0, 1.0, 500),
        n=5000, epsilon_stop=1e-2, seed=10,
    )
    rep = check_integrability_proxy(run)
    assert abs(rep.growth_exponent) < 0.2
    assert rep.clip_events == 0


def test_clip_events_are_counted():
    run = simulate_reversal_analytic(
        HEAT, dirac([0.0]), gaussian(0.0, 1.0), TimeGrid(0.0, 1.0, 200),
        n=500, epsilon_stop=0.05, seed=12, drift_clip=1.0,
    )
    rep = check_integrability_proxy(run)
    assert rep.clip_events > 0
    assert run.diagnostics.max_drift.max() <= 1.0 + 1e-12


def test_selfconsistent_heat_contracts_to_source():
    run = simulate_reversal_selfconsistent(
        HEAT, gaussian(0.0, 1.0), TimeGrid(0.0, 1.0, 200), n=4000,
        epsilon_stop=1e-2, seed=13,
    )
    X = run.terminal.positions
    assert abs(X.mean()) <= 0.1
    assert X.std() <= 0.3
    # a handful of tail particles may drop to vacuum near the stop time
    assert run.diagnostics.vacuums.sum() <= 0.005 * run.terminal.n * len(
        run.diagnostics.step
    )


def test_selfconsistent_agrees_with_analytic_smoke():
    grid = TimeGrid(0.0, 1.0, 200)
    kw = dict(n=4000, epsilon_stop=1e-2, seed=14)
    sc = simulate_reversal_selfconsistent(HEAT, gaussian(0.0, 1.0), grid, **kw)
    an = simulate_reversal_analytic(HEAT, dirac([0.0]), gaussian(0.0, 1.0),
                                    grid, **kw)
    w1 = wasserstein1(sc.terminal.positions, an.terminal.positions)
    assert w1 <= 0.15


def rotation_selfconsistent(seed):
    rotation = ou_model([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))
    return simulate_reversal_selfconsistent(
        rotation, gaussian([0.3, -0.2], np.eye(2)), TimeGrid(0.0, 1.0, 40),
        2000, epsilon_stop=0.25, seed=seed).terminal.positions


def test_selfconsistent_2d_binned_agrees_with_exact(monkeypatch):
    binned = rotation_selfconsistent(21)
    monkeypatch.setattr(KdeField, "_binned_2d", KdeField.log_density_and_score)
    exact = rotation_selfconsistent(21)
    assert np.abs(binned.mean(axis=0) - exact.mean(axis=0)).max() <= 2e-3
    std_ratio = binned.std(axis=0, ddof=1) / exact.std(axis=0, ddof=1)
    assert np.abs(std_ratio - 1.0).max() <= 0.02
    assert energy_distance_nd(binned, exact) < 1e-3


def test_selfconsistent_2d_bits_ignore_the_blas_thread_count():
    # the binned evaluation does no BLAS product whose rounding depends on
    # how OpenBLAS splits it across threads
    code = ("import hashlib, test_reversal; print(hashlib.sha256("
            "test_reversal.rotation_selfconsistent(22).tobytes()).hexdigest())")
    path = os.pathsep.join([SRC, TESTS, os.environ.get("PYTHONPATH", "")])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_sparse_cloud_documented_failure():
    try:
        run = simulate_reversal_selfconsistent(
            HEAT, gaussian(0.0, 1.0), TimeGrid(0.0, 1.0, 50), n=10,
            epsilon_stop=0.1, seed=15,
        )
    except (RuntimeError, ValueError):
        return  # sparse abort is an accepted outcome
    assert run.diagnostics.max_drift.max() > 0.0


def test_diagnostics_csv_format():
    run = simulate_reversal_analytic(
        HEAT, dirac([0.0]), gaussian(0.0, 1.0), TimeGrid(0.0, 1.0, 50),
        n=100, epsilon_stop=0.1, seed=16,
    )
    buf = io.StringIO()
    export_diagnostics_csv(run, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,t,max_drift,clips,vacuums"
    assert len(lines) == 1 + run.grid.n_steps
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def _oracle_diagnostics_csv(diag):
    """The row-at-a-time writer the block writer replaced: the byte contract."""
    out = ["step,t,max_drift,clips,vacuums\n"]
    for k, t, md, c, v in zip(diag.step, diag.t, diag.max_drift, diag.clips,
                              diag.vacuums):
        out.append(f"{k},{t:.17g},{md:.17g},{c},{v}\n")
    return "".join(out)


# a literal, so the test ids do not move with _CSV_BLOCK: 16 387 rows are
# four 4096-row blocks and three rows
@pytest.mark.parametrize("n", [1, 5, 16387])
def test_diagnostics_csv_bytes_match_row_writer(n):
    rng = np.random.default_rng(n)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e-300,
                        3.0, 2.0**53])
    max_drift = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 8, n)
    max_drift[:min(n, special.size)] = special[:n]
    diag = StepDiagnostics(
        step=np.arange(n), t=np.linspace(0.0, 0.99, n) ** 3,
        max_drift=max_drift, clips=rng.integers(0, 10**6, n),
        vacuums=np.zeros(n, dtype=int))
    buf = io.StringIO()
    export_diagnostics_csv(SimpleNamespace(diagnostics=diag), buf)
    assert buf.getvalue().split("\n") == _oracle_diagnostics_csv(diag).split("\n")
