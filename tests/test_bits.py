"""Bitwise pins of seeded outputs.

Each case hashes the raw bytes of a seeded run's outputs with SHA-256 and
compares against a digest recorded before the Euler loops, the RK4 loops
and the reversal-drift assemblies were merged into one of each.  A change
that moves any bit of these outputs fails here, so refactors of the
numerical kernels must keep the arithmetic (and its order) unchanged.

The probe and search cases hash the pairwise distance matrix of
``injectivity_probe`` and the scores of ``reconstruct_dirac_search``, as
recorded while every sliced distance still called
``scipy.stats.wasserstein_distance`` once per projection.

The CLI cases hash the CSV files that ``retrodiff reverse`` and
``retrodiff forward`` write, byte for byte, as recorded while the CSV
exports still formatted one row at a time.

The piecewise cases (an Euler path across the breakpoint, the moment
bound with its finite-difference Lipschitz estimate, a self-consistent
reversal with its finite-difference divergence) were recorded while the
piecewise family was still a class of its own that had to be converted
before use; they now pass the model as ``piecewise_model`` returns it.

The Fourier-route case hashes the errors of ``consistency_triangle``, the
forward transform of ``make_fourier_solution`` at t = 0, at a grid node and
between nodes, and ``fourier_invert_terminal`` values, as recorded while
``make_fourier_solution`` still returned a ``FourierSolution`` object.

The two analytic-reversal cases were recorded again when constant-
coefficient OU models moved from RK4 to exact semigroup steps; the
constant-model ``fourier_ode_constant`` case, which stays RK4, was
recorded before that change and pins the constant model's RK4 route.

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
            sol(0.5, xi), sol(0.537, xi), np.array(inverted))


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
    "dirac_affine_mc": "9f0a99ce4d42981cfff402d2ae8079715333c349def5360d082feb3c4438e33c",
    "fourier_ode": "85710d37271de835435dfaa901f8bd138573a4b5c0c1bd79c30dc39e332d9e22",
    "fourier_ode_constant": "85d3596b1807873ab8e0aea86c1b5fb0fb7865d6050016fef9e2010d14a9ef58",
    "fourier_routes": "8a7c9d8b09b27c1e63e833cf1dcc0f2ff06145f30dd923d7b2c39995bfc6fcca",
    "injectivity_probe_2d": "a07680def8c1e5483eefd3c1ba0e94a9011800d316a262f4e1bb6f6f4ebe3248",
    "dirac_search_1d": "9550dc9167cb9a6008f55e1a062325f77e896d4aaa0e7bb303070b6e2409ac4c",
    "dirac_search_2d": "ef5f4689782e1f0188c62bc4f7150ff73ee4debeadca34ab2e9ac049b1f6b5a2",
    "em_piecewise": "508635e3aad5d7041a1d63b17b03c722390ad589f11187694b73544315d94512",
    "moment_bound_piecewise": "bb13ece8ba7d002fd5a06eaa16619198e188045c37ae66e6dffb0c583ee92bd5",
    "reversal_selfconsistent_piecewise": "bbb08b0690f0394973ed4dd2c891e6fb780edec3b105bdb9a51178541a30308f",
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
