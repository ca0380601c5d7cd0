"""Bitwise pins of seeded outputs.

Each case hashes the raw bytes of a seeded run's outputs with SHA-256 and
compares against a digest recorded before the Euler loops, the RK4 loops
and the reversal-drift assemblies were merged into one of each.  A change
that moves any bit of these outputs fails here, so refactors of the
numerical kernels must keep the arithmetic (and its order) unchanged.

The probe and search cases hash the pairwise distance matrix of
``injectivity_probe`` and the scores of ``reconstruct_dirac_search``, as
recorded while every sliced distance still called
``scipy.stats.wasserstein_distance`` once per projection.  The probe case
and the 1-D search case were recorded again when W1 between samples of
equal size became the mean over matched order statistics; the 2-D search
case kept its bits.

The CLI cases hash the CSV files that ``retrodiff reverse`` and
``retrodiff forward`` write, byte for byte, as recorded while the CSV
exports still formatted one row at a time.

The piecewise cases (an Euler path across the breakpoint, the moment
bound, a self-consistent reversal) were recorded while the piecewise
family was still a class of its own that had to be converted before use;
they now pass the model as ``piecewise_model`` returns it.  The moment
bound's case was recorded again when the family's drift Jacobian became
the exact [[rate_k]] instead of a central difference: K and K_b moved from
1.6000000002315617 and 0.8000000001157809 to 1.6 and 0.8, and with them
the bound and ``small_horizon_margin``; the sampled supremum, its time and
the margin kept their bits.

The Fourier-route case hashes the errors of ``consistency_triangle``, the
forward transform of ``make_fourier_solution`` at t = 0 and at a grid node,
and ``fourier_invert_terminal`` values.  It was recorded again when the
amplification exponent moved from 64 Gauss-Legendre points on a cubic
spline of the adjoint path to composite Simpson on the path's own nodes,
and the transform between nodes left the case with the spline: those
errors moved by at most 1.6e-11, the transforms at t = 0.5 by 1.1e-10
and the inverted values by 3.2e-10 (on the case's 100-step grid).  It
was recorded again (``24e5fdc4…`` to ``9aa84f04…``) when the time-varying
covariance became RK4 on its own Lyapunov ODE Q' = CQ + QC^T + Sigma
instead of a joint (R, J) state: the errors against the marginal moved
by at most 3.2e-11 (marginal vs ODE 5.9e-11 to 3.8e-11) and the inverted
values by 3.7e-10; the transforms kept their bits.

The ``dirac_affine_mc`` case, whose coefficients are callables of t, was
recorded again (``9f0a99ce…`` to ``c08886da…``) when both affine inverse
routes moved from two backward RK4 systems to one forward RK4 path of the
augmented generator [[b1, b0], [0, 0]]: x_hat moved by 1.3e-10 and the
standard error by 5.1e-12.

The two analytic-reversal cases were recorded again when constant-
coefficient OU models moved from RK4 to exact semigroup steps; the
constant-model ``fourier_ode_constant`` case, which stays RK4, was
recorded before that change and pins the constant model's RK4 route.

The ``kde_*`` cases hash the KDE evaluators' own outputs (the binned 1-D
path below and above 4096 particles and on a doubled grid, plain and
off-grid queries, the 2-D tensor-grid path and the exact sums), as
recorded while the binned 1-D path still interpolated each grid with
per-query slopes and ``np.roll``ed its kernels into place.

The ``dirac_*`` cases hash a weighted two-point 2-D source's sample, its
OU marginal at a grid node (means, covariances and the score) and its
transform, as recorded while ``DiracMixture`` still had its own sampler
and transform and the marginal its own point-source rule.  The marginal
case also read the marginal between nodes until lookups off the grid were
refused; its node-only digest was recorded again at the last commit with
the spline, and the change that removed it kept those bits.

The digests hold for one floating-point environment (CPU, numpy, BLAS);
on another one, recompute them with ``python tests/test_bits.py`` at a
known-good commit.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest

import retrodiff as rd
from retrodiff import forward
from retrodiff.cli import main
from retrodiff.models import affine_model, piecewise_model


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _diag(run):
    d = run.diagnostics
    return (run.terminal.positions, d.step, d.t, d.max_drift, d.clips,
            d.vacuums)


def em_ou_2d():
    C = [[-0.5, 1.0], [-1.0, -0.2]]
    m = rd.make_model("ou", C=C, sigma=[[1.0, 0.3], [0.0, 0.8]])
    init = rd.sample_initial(rd.gaussian([0.5, -0.5], 0.2 * np.eye(2)), 400,
                             seed=11)
    path = rd.euler_maruyama_path(m.as_diffusion_model(), init,
                                  rd.TimeGrid(0.0, 1.0, 100), seed=11)
    return (path.terminal.positions,)


def em_sqrt1px2():
    m = affine_model(0.3, -0.7, sigma_spec=("sqrt1px2", 3.0))
    init = rd.sample_initial(rd.gaussian([0.2], 0.5), 400, seed=12)
    path = rd.euler_maruyama_path(m, init, rd.TimeGrid(0.0, 1.0, 100), seed=12)
    return (path.terminal.positions,)


def reversal_analytic_1d():
    heat = rd.make_model("heat", dim=1, scale=0.9)
    run = rd.simulate_reversal_analytic(
        heat, rd.dirac([0.4]), rd.gaussian([0.4], 0.81), rd.TimeGrid(0.0, 1.0, 60),
        500, epsilon_stop=0.05, seed=13, drift_clip=2.0)
    return _diag(run)


def reversal_analytic_2d():
    ou = rd.make_model("ou", C=[[0.0, 1.0], [-1.0, -0.3]], sigma=np.eye(2))
    nu = rd.gaussian([0.3, -0.2], 0.1 * np.eye(2))
    mu = rd.ou_marginal(ou, nu, 1.0, n_steps=40)
    run = rd.simulate_reversal_analytic(ou, nu, mu, rd.TimeGrid(0.0, 1.0, 40),
                                        300, epsilon_stop=0.1, seed=14)
    return _diag(run)


def reversal_selfconsistent_1d_binned():
    heat = rd.make_model("heat", dim=1)
    run = rd.simulate_reversal_selfconsistent(
        heat, rd.gaussian([0.1], 1.0), rd.TimeGrid(0.0, 1.0, 20), 400,
        epsilon_stop=0.1, seed=15)
    return _diag(run)


def reversal_selfconsistent_2d_exact():
    rot = rd.make_model("ou", C=[[0.0, 1.0], [-1.0, 0.0]], sigma=np.eye(2))
    run = rd.simulate_reversal_selfconsistent(
        rot, rd.gaussian([0.2, 0.1], np.eye(2)), rd.TimeGrid(0.0, 1.0, 10), 200,
        epsilon_stop=0.2, seed=16)
    return _diag(run)


def dirac_affine_mc():
    drift = rd.AffineDrift(b0=lambda t: np.array([0.2 * t, -0.1]),
                           b1=lambda t: np.array([[-1.0, 0.5 * t], [0.0, -0.3]]),
                           dim=2)
    X = rd.substream(17, 1).standard_normal((1000, 2)) + [1.0, -2.0]
    ens = rd.ParticleEnsemble(time=1.0, positions=X)
    x_hat, stderr = rd.reconstruct_dirac_affine_mc(drift, None, ens,
                                                   rd.TimeGrid(0.0, 1.0, 50))
    return x_hat, np.array(stderr)


def fourier_ode():
    ou = rd.OUModel(lambda t: np.array([[-0.4, t], [-1.0, 0.1]]),
                    lambda t: np.array([[1.0, 0.2 * t], [0.0, 0.7]]), dim_d=2)
    nu = rd.gaussian([0.2, -0.1], 0.3 * np.eye(2))
    xi = np.array([[0.0, 0.0], [1.0, 0.5], [-2.0, 1.0], [3.0, -2.5]])
    return (rd.fourier_ode_solve(ou, nu, xi, rd.TimeGrid(0.0, 1.0, 100)),)


def fourier_ode_constant():
    ou = rd.make_model("ou", C=[[-0.4, 0.8], [-1.0, 0.1]],
                       sigma=[[1.0, 0.2], [0.0, 0.7]])
    nu = rd.gaussian([0.2, -0.1], 0.3 * np.eye(2))
    xi = np.array([[0.0, 0.0], [1.0, 0.5], [-2.0, 1.0], [3.0, -2.5]])
    return (rd.fourier_ode_solve(ou, nu, xi, rd.TimeGrid(0.0, 1.0, 100)),)


def fourier_routes():
    ou = rd.OUModel(lambda t: np.array([[-0.4, t], [-1.0, 0.1]]),
                    lambda t: np.array([[1.0, 0.2 * t], [0.0, 0.7]]), dim_d=2)
    nu = rd.gaussian([0.2, -0.1], 0.3 * np.eye(2))
    xi = np.array([[0.0, 0.0], [1.0, 0.5], [-2.0, 1.0], [1.5, -1.0]])
    tri = rd.consistency_triangle(ou, nu, xi, [0.25, 0.5, 1.0], n_steps=100)
    sol = rd.make_fourier_solution(ou, nu, n_steps=100)
    mu_hat = rd.ou_marginal(ou, nu, 1.0, n_steps=100)
    inverted = [rd.fourier_invert_terminal(ou, mu_hat, 1.0, x, n_steps=100)
                for x in xi]
    return (np.array([tri[k] for k in sorted(tri)]), sol(0.0, xi),
            sol(0.5, xi), np.array(inverted))


def injectivity_probe_2d():
    rot = rd.make_model("affine", b0=[0.0, 0.0], b1=[[0.0, 1.0], [-1.0, 0.0]])
    axis = np.linspace(-1.0, 1.0, 3)
    grid = [rd.dirac([a, b]) for a in axis for b in axis]
    rep = rd.injectivity_probe(rot, grid, T=0.0625, n=100, seed=21,
                               n_steps=20)
    return rep.distances, np.array(rep.noise_floor)


def _search_scores(res):
    return (np.array([d for _, d, _ in res.table]), res.x_hat,
            np.array(res.noise_floor))


def dirac_search_1d():
    heat = rd.make_model("heat", dim=1).as_diffusion_model()
    init = rd.sample_initial(rd.dirac([0.3]), 300, seed=22)
    target = rd.euler_maruyama_path(heat, init, rd.TimeGrid(0.0, 1.0, 20),
                                    seed=22, store_every=20).terminal
    res = rd.reconstruct_dirac_search(heat, target, [[-0.5], [0.0], [0.5]],
                                      T=1.0, n=300, seed=23, n_steps=20)
    return _search_scores(res)


def dirac_search_2d():
    heat = rd.make_model("heat", dim=2).as_diffusion_model()
    init = rd.sample_initial(rd.dirac([0.2, -0.1]), 200, seed=24)
    target = rd.euler_maruyama_path(heat, init, rd.TimeGrid(0.0, 0.5, 20),
                                    seed=24, store_every=20).terminal
    cands = [[0.0, 0.0], [0.5, 0.0], [0.0, -0.5], [0.5, -0.5]]
    res = rd.reconstruct_dirac_search(heat, target, cands, T=0.5, n=200,
                                      seed=25, n_steps=20)
    return _search_scores(res)


def _piecewise():
    return piecewise_model([0.0, 0.5, 1.0], rates=[-0.8, 0.4],
                           sigmas=[1.0, 0.6])


def em_piecewise():
    init = rd.sample_initial(rd.gaussian([0.3], 0.4), 400, seed=26)
    path = rd.euler_maruyama_path(_piecewise(), init,
                                  rd.TimeGrid(0.0, 1.0, 30), seed=26,
                                  store_every=1)
    return tuple(s.positions for s in path.snapshots)


def moment_bound_piecewise():
    rep = rd.check_moment_bound(_piecewise(), [0.0], [0.5],
                                rd.TimeGrid(0.0, 1.0, 20), 200, seed=27)
    return np.array([rep.sup_empirical, rep.sup_time, rep.bound, rep.margin,
                     rep.K, rep.K_b, rep.small_horizon_margin])


def reversal_selfconsistent_piecewise():
    run = rd.simulate_reversal_selfconsistent(
        _piecewise(), rd.gaussian([0.1], 0.8), rd.TimeGrid(0.0, 1.0, 20), 300,
        epsilon_stop=0.1, seed=28)
    return _diag(run)


def _bimodal(n, d, seed):
    rng = rd.substream(seed, n)
    return np.concatenate([rng.standard_normal((n // 2, d)) - 1.5,
                           0.5 * rng.standard_normal((n - n // 2, d)) + 1.0])


def kde_binned_1d_sources():
    # clouds of fewer and of more particles than the 4096-point grid has,
    # at their own particles with the self-kernel left out
    out = []
    for n in (1000, 20000):
        X = _bimodal(n, 1, 31)
        out += rd.KdeField(X, rd.score_bandwidth(X)).log_density_and_score_at_sources()
    return tuple(out)


def kde_binned_1d_stretched():
    # spread over thousands of bandwidths: the grid doubles to 32768 points
    X = np.concatenate([[0.0, 500.0],
                        rd.substream(32, 0).uniform(0.0, 500.0, 2998)])[:, None]
    return rd.KdeField(X, 0.1).log_density_and_score_at_sources()


def kde_binned_1d_queries():
    # plain queries: between and on grid nodes, at and past both grid ends,
    # non-finite, and one single point
    X = _bimodal(2000, 1, 33)
    h = float(rd.score_bandwidth(X)[0])
    f = rd.KdeField(X, h)
    lo, hi = X.min() - 8.0 * h, X.max() + 8.0 * h
    grid = lo + (hi - lo) / 4095 * np.arange(4096)
    ends = np.array([lo, hi, grid[-1]])
    q = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 3001), grid[::97],
                        ends, np.nextafter(ends, -np.inf),
                        np.nextafter(ends, np.inf), [np.nan, -np.inf, np.inf]])
    logp, score = f.binned_log_density_and_score(q[:, None])
    logp1, score1 = f.binned_log_density_and_score([0.25])
    return logp, score, logp1, score1


def kde_binned_2d():
    # the 2-D tensor-grid path at the sources, and plain queries on and off
    # the grid
    X = _bimodal(2000, 2, 34)
    f = rd.KdeField(X, 0.5 * X.std(axis=0, ddof=1))
    q = np.concatenate([X[:200], [[-12.0, 0.0], [0.0, 12.0], [np.nan, 0.0]]])
    return f.log_density_and_score_at_sources() + f._binned_2d(q)


def kde_exact():
    # the exact sums: a small cloud at its sources, plain queries, one point
    X = _bimodal(200, 2, 35)
    f = rd.KdeField(X, rd.score_bandwidth(X))
    q = _bimodal(700, 2, 36)
    return (f.log_density_and_score_at_sources() + f.log_density_and_score(q)
            + f.log_density_and_score([0.1, -0.2]))


def _two_points():
    # a weighted two-point 2-D source with no zero coordinate
    return rd.DiracMixture([[0.7, -1.3], [-0.4, 0.9]], [0.3, 0.7])


def dirac_sample_2d():
    return (rd.sample_initial(_two_points(), 500, seed=41).positions,)


def dirac_marginal_2d():
    # at a grid node: means, covariances and the score
    ou = rd.make_model("ou", C=[[-0.5, 1.0], [-1.0, -0.2]],
                       sigma=[[1.0, 0.3], [0.0, 0.8]])
    x = rd.substream(42, 0).standard_normal((50, 2))
    mix = rd.ou_marginal(ou, _two_points(), 0.5, n_steps=40)
    return mix.means, mix.covariances, mix.score(x)


def dirac_char_transform_2d():
    xi = 3.0 * rd.substream(43, 0).standard_normal((50, 2))
    return (_two_points().char_transform(xi),)


CASES = {
    "em_ou_2d": em_ou_2d,
    "em_sqrt1px2": em_sqrt1px2,
    "reversal_analytic_1d": reversal_analytic_1d,
    "reversal_analytic_2d": reversal_analytic_2d,
    "reversal_selfconsistent_1d_binned": reversal_selfconsistent_1d_binned,
    "reversal_selfconsistent_2d_exact": reversal_selfconsistent_2d_exact,
    "dirac_affine_mc": dirac_affine_mc,
    "fourier_ode": fourier_ode,
    "fourier_ode_constant": fourier_ode_constant,
    "fourier_routes": fourier_routes,
    "injectivity_probe_2d": injectivity_probe_2d,
    "dirac_search_1d": dirac_search_1d,
    "dirac_search_2d": dirac_search_2d,
    "em_piecewise": em_piecewise,
    "moment_bound_piecewise": moment_bound_piecewise,
    "reversal_selfconsistent_piecewise": reversal_selfconsistent_piecewise,
    "kde_binned_1d_sources": kde_binned_1d_sources,
    "kde_binned_1d_stretched": kde_binned_1d_stretched,
    "kde_binned_1d_queries": kde_binned_1d_queries,
    "kde_binned_2d": kde_binned_2d,
    "kde_exact": kde_exact,
    "dirac_sample_2d": dirac_sample_2d,
    "dirac_marginal_2d": dirac_marginal_2d,
    "dirac_char_transform_2d": dirac_char_transform_2d,
}

CLI_REVERSE_2D = """
[model]
family = heat
dim = 2
scale = 0.9

[grid]
t_end = 1.0
n_steps = 40

[run]
seed = 18
particles = 300
mode = analytic
nu = dirac:0.3,-0.2
mu = gaussian:0.3,-0.2,0.81
epsilon_stop = 0.1
"""

CLI_FORWARD_FULL = """
[model]
family = ou
c = -0.5,1.0;-1.0,-0.2
sigma = 1.0,0.3;0.0,0.8

[grid]
t_end = 1.0
n_steps = 20

[run]
seed = 19
particles = 200
init = gaussian:0.5,-0.5,0.2
store_full = true
"""


def _cli_files(command, config, names):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.ini")
        with open(cfg, "w") as fh:
            fh.write(config)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg, "--output", out])
        assert code in (0, 1)
        files = []
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                files.append(fh.read())
    return files


def _bytes_digest(*blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def cli_reverse_snapshots():
    return _cli_files("reverse", CLI_REVERSE_2D, ["snapshots.csv"])


def cli_reverse_diagnostics():
    return _cli_files("reverse", CLI_REVERSE_2D, ["diagnostics.csv"])


def cli_forward_full_snapshots():
    return _cli_files("forward", CLI_FORWARD_FULL, ["snapshots.csv"])


CLI_CASES = {
    "cli_reverse_snapshots": cli_reverse_snapshots,
    "cli_reverse_diagnostics": cli_reverse_diagnostics,
    "cli_forward_full_snapshots": cli_forward_full_snapshots,
}

CLI_DIGESTS = {
    "cli_reverse_snapshots": "53fe64ee93f1f6bc139bf0a1dd2694fae4ddcd4e2c723566b517206e5f31a7f0",
    "cli_reverse_diagnostics": "e158fdabbbeff03df6da3c826ab4f3bea512cfa367b74c52da05c18c2cd4e02e",
    "cli_forward_full_snapshots": "d49aab69898e4a2fdff71634de681ccddeb4eaf1bd44d2bf38790bbe0593e0a2",
}

DIGESTS = {
    "em_ou_2d": "51f1637ac40ccdf5802d0a9529f77a48cabd98903e1817fea5e091b26b0256a8",
    "em_sqrt1px2": "dbb9556f8a201de74064bb24f4f4e59af50b995ba1b93f76e4694eedd197d410",
    "reversal_analytic_1d": "20f37e757c4c9770203b97265ceaf966a41931c4894d22af1badf0a463ff1af4",
    "reversal_analytic_2d": "f0080ec8a0f7d05c5ce7add7934ea81631593c864c83eeba2d90ebe5e63da4da",
    "reversal_selfconsistent_1d_binned": "951a170d6183f07cb791861293610fa9890d63424f38903907b5c344dc9824a3",
    "reversal_selfconsistent_2d_exact": "f4157fc5e62b55ef619bd24c76bd57c7f52abf7db990964580afad167263ff42",
    "dirac_affine_mc": "c08886da30ca85b1a1f39a117d5f8e5611a230bdc04695efcdaf92087cd34a7d",
    "fourier_ode": "85710d37271de835435dfaa901f8bd138573a4b5c0c1bd79c30dc39e332d9e22",
    "fourier_ode_constant": "85d3596b1807873ab8e0aea86c1b5fb0fb7865d6050016fef9e2010d14a9ef58",
    "fourier_routes": "9aa84f04f2a2b3dcd0db9774f3e3681bd5aed5484b94fd252fc6a4fe633e554d",
    "injectivity_probe_2d": "ac69d5d90015c9bf701e7788aa7dd50151a7161878e8e06ba11963a950a9dad9",
    "dirac_search_1d": "e272534c2746727b5c8f4114d882e0cc4dba2dd8a23c0bc91787182779b0e253",
    "dirac_search_2d": "ef5f4689782e1f0188c62bc4f7150ff73ee4debeadca34ab2e9ac049b1f6b5a2",
    "em_piecewise": "508635e3aad5d7041a1d63b17b03c722390ad589f11187694b73544315d94512",
    "moment_bound_piecewise": "eb3b52dbd96f931f1fc671e4eb1ba6eb149e0224ff27e09b1a6d3ffd201fbc62",
    "reversal_selfconsistent_piecewise": "bbb08b0690f0394973ed4dd2c891e6fb780edec3b105bdb9a51178541a30308f",
    "kde_binned_1d_sources": "10d0716e7202c412ae886f2942bbc8c775763dfb286302d3ae9ba9880d4a7978",
    "kde_binned_1d_stretched": "190fd0426c481e87781b8a5f7c3058e409ff390b8d830ddbd1272446ab208ad0",
    "kde_binned_1d_queries": "e38ef0d9c8c699032a48da4af9d182b78a2366943e6b5b7ea8282ad64d9b5f59",
    "kde_binned_2d": "3c8867cdf5ca8e5c1395dec6e8ac66b37adb3dd7c8f6ccb73e43a66ec91271b3",
    "kde_exact": "4aa930c4a4ae2f9292d3a4879ae9fe08838ad2d8c619437dc15a80b4ca9e969d",
    "dirac_sample_2d": "6324fd84f744dac68a837ea07ec7351136e4c205144e41b69a9544fca1e04b72",
    "dirac_marginal_2d": "5c37e2054b842ee9b5dad17c14fbc66ffa37cb56783ae2d2be7511c71e05f39e",
    "dirac_char_transform_2d": "b371c8710e2fcf80f73b9867686778df98024764e1b4516856293906f90529c5",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_bits_are_pinned(name):
    assert _digest(*CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("name", ["injectivity_probe_2d", "dirac_search_1d",
                                  "dirac_search_2d"])
def test_recovery_bits_hold_on_three_cpus(name, monkeypatch):
    # the probe and the search share their clouds among 3 processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert _digest(*CASES[name]()) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_csv_bytes_are_pinned(name):
    assert _bytes_digest(*CLI_CASES[name]()) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_csv_bytes_hold_when_every_export_forks(name, monkeypatch):
    # the small pinned runs take the multi-process export path too
    monkeypatch.setattr(forward, "_FORK_MIN_ROWS", 1)
    assert _bytes_digest(*CLI_CASES[name]()) == CLI_DIGESTS[name]


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}": "{_digest(*case())}",')
    for name, case in CLI_CASES.items():
        print(f'    "{name}": "{_bytes_digest(*case())}",')
