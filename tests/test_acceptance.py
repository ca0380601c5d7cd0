"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``PASS criterion-k`` line (visible with ``pytest -s``
or on failure) including the measured figure and its budgeted runtime.
Monte Carlo criteria run on frozen seeds; tolerances are the contract, not
calibration knobs.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

import retrodiff as rd
from retrodiff.cli import main as cli_main
from retrodiff.density import score_bandwidth
from retrodiff.models import affine_model, heat_model, ou_model, sin_drift_model


def _line(k, ok, detail, wall, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion-{k}: {detail} [{wall:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion-{k}: {detail}"
    assert wall < budget, f"criterion-{k} exceeded runtime budget ({wall:.1f}s)"


def _random_ou(rng, d):
    C = rng.uniform(-2.0, 2.0, size=(d, d))
    sigma = rng.uniform(0.5, 2.0, size=(d, d))
    return ou_model(C, sigma)


def _xi_grid(d):
    axis = np.linspace(-5.0, 5.0, 9)
    if d == 1:
        return axis[:, None]
    return np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)


def test_criterion_1_consistency_triangle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ts = np.arange(1, 11) / 10.0
    worst = 0.0
    for i in range(20):
        d = 1 + i % 2
        ou = _random_ou(rng, d)
        if i % 3 == 2:
            nu = rd.gaussian(rng.uniform(-1, 1, d),
                             np.diag(rng.uniform(0.2, 0.8, d)))
        else:
            nu = rd.DiracMixture([rng.uniform(-1, 1, d)])
        rep = rd.consistency_triangle(ou, nu, _xi_grid(d), ts)
        worst = max(worst, rep["max_error"])
    _line(1, worst < 1e-6, f"triangle max error {worst:.2e} < 1e-6 "
          f"(20 instances)", time.perf_counter() - t0, 30.0)


def test_criterion_2_resolvent_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    grid = rd.TimeGrid(0.0, 1.0, 1000)
    worst = 0.0
    for i in range(10):
        d = 2 + i % 2
        A = rng.uniform(-2.5, 2.5, size=(d, d))
        B = rng.uniform(-2.5, 2.5, size=(d, d))
        C_fn = lambda t, A=A, B=B: A + B * np.sin(2.0 * np.pi * t)
        D = rd.solve_adjoint_resolvent(C_fn, grid)
        Dinv = rd.solve_adjoint_resolvent_inverse(C_fn, grid)
        prod = np.einsum("kij,kjl->kil", D.values, Dinv.values)
        worst = max(worst, float(
            np.linalg.norm(prod - np.eye(d), axis=(1, 2)).max()
        ))
    order_ok = True
    for i in range(3):
        C = np.random.default_rng(300 + i).uniform(-2, 2, size=(3, 3))
        oracle = expm(C)
        errs = [
            np.linalg.norm(rd.solve_resolvent(lambda t: C,
                                              rd.TimeGrid(0, 1, n)).at(1.0)
                           - oracle)
            for n in (40, 80)
        ]
        order_ok = order_ok and errs[0] / errs[1] >= 8.0
    _line(2, worst < 1e-8 and order_ok,
          f"max product defect {worst:.2e} < 1e-8, order factor >= 8",
          time.perf_counter() - t0, 10.0)


def test_criterion_3_backward_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    xi_vals = np.linspace(-2.0, 2.0, 9)
    worst = 0.0
    for i in range(10):
        d = 1 + i % 2
        ou = _random_ou(rng, d)
        nu = rd.gaussian(rng.uniform(-1, 1, d),
                         np.diag(rng.uniform(0.1, 1.0, d)))
        sol = rd.make_fourier_solution(ou, nu)
        for r in xi_vals:
            xi = np.full(d, r / np.sqrt(d))
            rec = rd.fourier_invert_terminal(ou, lambda e: sol(1.0, e), 1.0,
                                             xi, exponent_cap=700.0)
            worst = max(worst, abs(rec - nu.char_transform(xi)))
    _line(3, worst < 1e-6, f"round-trip max error {worst:.2e} < 1e-6 "
          f"(10 Gaussian sources)", time.perf_counter() - t0, 10.0)


def test_criterion_4_moment_bound():
    t0 = time.perf_counter()
    grid = rd.TimeGrid(0.0, 1.0, 100)
    models = {
        "linear": lambda s: affine_model(0.0, -1.0, sigma_spec=s),
        "sin": lambda s: sin_drift_model(1.0, sigma_spec=s),
    }
    sigmas = {"const": 1.0, "sqrt1px2": ("sqrt1px2", 10.0)}
    box = (np.array([-8.0]), np.array([8.0]))
    all_ok = True
    worst_ratio = 0.0
    for mname, mk in models.items():
        for sname, spec in sigmas.items():
            model = mk(spec)
            est = rd.estimate_lipschitz(model, box, [0.0, 0.5, 1.0], 300,
                                        seed=404)
            for seed in range(50):
                rep = rd.check_moment_bound(model, [0.0], [1.0], grid, 10**4,
                                            seed=seed, lipschitz=est)
                all_ok = all_ok and rep.passed
                worst_ratio = max(worst_ratio,
                                  rep.sup_empirical / (rep.bound + rep.margin))
    _line(4, all_ok, f"Gronwall bound holds in 200/200 runs "
          f"(worst ratio {worst_ratio:.3f})", time.perf_counter() - t0, 120.0)


HEAT = heat_model(dim=1)


def test_criterion_5_heat_reversal():
    t0 = time.perf_counter()
    grid = rd.TimeGrid(0.0, 1.0, 1000)
    run = rd.simulate_reversal_analytic(
        HEAT, rd.dirac([0.0]), rd.gaussian(0.0, 1.0), grid, n=2 * 10**4,
        epsilon_stop=1e-2, seed=505,
    )
    X = run.terminal.positions
    mean_ok = abs(X.mean()) <= 0.05
    std_ok = X.std() <= 0.15
    big = rd.simulate_reversal_analytic(
        HEAT, rd.dirac([0.0]), rd.gaussian(0.0, 1.0), grid, n=5 * 10**4,
        epsilon_stop=1e-2, seed=506,
    )
    ref = lambda t: rd.ou_marginal(HEAT, rd.dirac([0.0]), 1.0 - t)  # noqa: E731
    rep = rd.verify_representation(big, ref, threshold=0.02)
    _line(5, mean_ok and std_ok and rep.passed,
          f"|mean|={abs(X.mean()):.4f}<=0.05 std={X.std():.4f}<=0.15 "
          f"maxKS={rep.max_stat:.4f}<0.02", time.perf_counter() - t0, 120.0)


def test_criterion_6_mode_agreement():
    t0 = time.perf_counter()
    grid = rd.TimeGrid(0.0, 1.0, 1000)
    kw = dict(n=2 * 10**4, epsilon_stop=1e-2, seed=606)
    sc = rd.simulate_reversal_selfconsistent(HEAT, rd.gaussian(0.0, 1.0),
                                             grid, **kw)
    an = rd.simulate_reversal_analytic(HEAT, rd.dirac([0.0]),
                                       rd.gaussian(0.0, 1.0), grid, **kw)
    w1 = rd.wasserstein1(sc.terminal.positions, an.terminal.positions)
    _line(6, w1 <= 0.1, f"terminal W1(self-consistent, analytic) = "
          f"{w1:.4f} <= 0.1", time.perf_counter() - t0, 300.0)


def test_criterion_7_dirac_recovery():
    t0 = time.perf_counter()
    b1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    T = np.pi / 2
    grid = rd.TimeGrid(0.0, T, 1000)
    drift = rd.AffineDrift.constant([0.0, 0.0], b1)
    x0 = np.array([1.0, 0.0])
    x_hat = rd.reconstruct_dirac_affine(drift, expm(b1 * T) @ x0, grid)
    exact_ok = np.abs(x_hat - x0).max() < 1e-6

    ou = ou_model(C=-1.0, sigma=1.0)
    grid1 = rd.TimeGrid(0.0, 1.0, 400)
    adrift = rd.AffineDrift.constant([0.0], [[-1.0]])
    mc_ok = True
    worst_mc = 0.0
    for seed in range(10):
        init = rd.sample_initial(rd.DiracMixture([[2.0]]), 10**5, seed=700 + seed)
        term = rd.euler_maruyama_path(ou.as_diffusion_model(), init, grid1,
                                      seed=700 + seed,
                                      store_every=grid1.n_steps).terminal
        xh, se = rd.reconstruct_dirac_affine_mc(adrift, 1.0, term, grid1)
        ratio = abs(xh[0] - 2.0) / (3.0 * se)
        worst_mc = max(worst_mc, ratio)
        mc_ok = mc_ok and ratio <= 1.0

    model = HEAT.as_diffusion_model()
    init = rd.sample_initial(rd.DiracMixture([[0.5]]), 2 * 10**4, seed=750)
    target = rd.euler_maruyama_path(model, init, rd.TimeGrid(0.0, 1.0, 200),
                                    seed=750, store_every=200).terminal
    res = rd.reconstruct_dirac_search(
        model, target, [[-1.0], [-0.5], [0.0], [0.5], [1.0]], T=1.0,
        n=2 * 10**4, seed=751,
    )
    search_ok = abs(res.x_hat[0] - 0.5) <= 0.5
    _line(7, exact_ok and mc_ok and search_ok,
          f"(a) rotation exact {np.abs(x_hat - x0).max():.1e}<1e-6 "
          f"(b) worst |err|/3se {worst_mc:.2f}<=1 over 10 seeds "
          f"(c) search x_hat={res.x_hat[0]}",
          time.perf_counter() - t0, 180.0)


def test_criterion_8_injectivity_probe():
    t0 = time.perf_counter()
    b1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    model = affine_model([0.0, 0.0], b1)
    axis = np.linspace(-1.0, 1.0, 5)
    cands = [rd.DiracMixture([[a, b]]) for a in axis for b in axis]
    inj = all(
        rd.injectivity_probe(model, cands, T=0.5, n=2000, seed=800 + s,
                             n_steps=100).verdict == "injective"
        for s in range(5)
    )
    control = [rd.DiracMixture([[0.3, -0.2]]) for _ in range(3)]
    amb = all(
        rd.injectivity_probe(model, control, T=0.5, n=2000, seed=850 + s,
                             n_steps=100).verdict == "ambiguous"
        for s in range(5)
    )
    _line(8, inj and amb, "5x5 grid injective 5/5 seeds, "
          "identical-candidate control ambiguous 5/5",
          time.perf_counter() - t0, 180.0)


def test_criterion_9_nonexistence_witness(tmp_path):
    t0 = time.perf_counter()
    # N(0, 0.5^2) is not u^nu(1) for any point source (those have var >= 1)
    with pytest.warns(UserWarning, match="no consistent solution"):
        run = rd.simulate_reversal_analytic(
            HEAT, rd.dirac([0.0]), rd.gaussian(0.0, 0.25),
            rd.TimeGrid(0, 1, 1000), n=2 * 10**4, epsilon_stop=1e-2, seed=909,
        )
    assert run.terminal_check_failed
    ref = lambda t: rd.ou_marginal(HEAT, rd.dirac([0.0]), 1.0 - t)  # noqa: E731
    rep = rd.verify_representation(run, ref, threshold=0.1)
    cfg = tmp_path / "witness.ini"
    cfg.write_text(f"""
[model]
family = heat

[grid]
t_end = 1.0
n_steps = 1000

[run]
seed = 909
particles = 20000
mode = analytic
nu = dirac:0
mu = gaussian:0,0.25
epsilon_stop = 0.01

[thresholds]
ks_max = 0.1

[output]
directory = {tmp_path / "out"}
""")
    exit_code = cli_main(["reverse", "--config", str(cfg)])
    _line(9, rep.max_stat > 0.1 and not rep.passed and exit_code != 0,
          f"max KS {rep.max_stat:.4f} > 0.1 and exit code {exit_code} != 0",
          time.perf_counter() - t0, 120.0)


def test_criterion_10_kde_score():
    t0 = time.perf_counter()
    rng = rd.substream(1001, 1)
    X = rng.standard_normal((2000, 1))
    field = rd.KdeField(X, rd.silverman_bandwidth(X))
    pts = rd.substream(1001, 2).uniform(-2.0, 2.0, size=(100, 1))
    h = 1e-5
    worst_rel = 0.0
    for x in pts:
        num = (field.log_density_and_score(x + h)[0]
               - field.log_density_and_score(x - h)[0]) / (2 * h)
        s = field.log_density_and_score(x)[1][0]
        worst_rel = max(worst_rel, abs(s - num) / max(1.0, abs(num)))
    fd_ok = worst_rel < 1e-6

    Xb = rd.substream(1001, 8).standard_normal((10**5, 1))
    fb = rd.KdeField(Xb, score_bandwidth(Xb))
    xs = np.linspace(-1.0, 1.0, 21)[:, None]
    _, sc = fb.log_density_and_score(xs)
    dev = float(np.abs(sc[:, 0] + xs[:, 0]).max())
    _line(10, fd_ok and dev < 0.1,
          f"FD relative error {worst_rel:.2e} < 1e-6 at 100 points; "
          f"cloud score within {dev:.3f} < 0.1 of -x",
          time.perf_counter() - t0, 30.0)
