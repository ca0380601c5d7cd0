"""Benchmark workloads: inputs generated from a seed, the run, its checks.

A workload is three functions:

* ``generate(seed, size)`` builds plain data (config text, model
  coefficients, candidate sets, closed-form reference samples) from the
  seed alone.  The library receives only this data; model objects are
  built inside ``run`` so every iteration pays the same construction and
  ``OUAnalytic`` cache misses a CLI user pays.
* ``run(inputs, out_dir)`` calls the library and checks every output
  against its acceptance-suite tolerance.  It returns the checks, some
  informative figures that are reported but not checked, and the
  artifacts whose bytes make the determinism digest.
* the sizes in ``SIZES``: ``full`` is what the benchmark measures, ``tiny``
  exists for the benchmark's own tests.

Every library name is looked up on the ``retrodiff`` package or module at
call time, so tracing wrappers installed on those modules see the calls.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

import retrodiff as rd
from retrodiff import cli

# Acceptance-suite tolerances (tests/test_acceptance.py); the contract.
KS_MAX = 0.02            # criterion 5, also the CLI default ks_max
W1_MAX = 0.1             # criterion 6
MEAN_MAX = 0.05          # criterion 5 terminal mean (reported for 2-D)
TRIANGLE_MAX = 1e-6      # criterion 1
MC_SIGMAS = 3.0          # criterion 7 (b)
STD_FACTOR = 2.0         # 2-D kernel reversal: terminal std vs closed form

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass
class Check:
    """One output compared with its tolerance; ``passed`` is authoritative."""

    name: str
    error: float
    tolerance: float
    passed: bool

    @property
    def ratio(self):
        return self.error / self.tolerance


def flag(name, ok):
    """A pass/fail check with no measured error: ratio 0 on pass, 1 on fail."""
    return Check(name, 0.0 if ok else 1.0, 1.0, bool(ok))


@dataclass
class Result:
    checks: list
    figures: dict
    artifacts: list


def _rng(seed, tag):
    return np.random.default_rng([int(tag), int(seed)])


def _seed_of(rng):
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# reverse-batch: the CLI end to end, the only workload with bulk output.
# Heat point-source reversal with the analytic drift at criterion-5's
# particle count n = 2e4, which KS < 0.02 needs.  A CLI user pays the
# OUAnalytic build, the Euler loop with the closed-form score, the KS
# verification and the CSV export (one row per particle and snapshot).  No
# kernel density estimate runs here.
#
# Reversals here and in reverse-kde coarsen criterion 5/6's time axis (1000
# steps, stop at 0.01) so that about ten runs fit in one measurement, and
# keep its step / stop ratio of 0.1, so Euler resolves the point-source
# singularity up to the stop as well as the criteria do.
# ---------------------------------------------------------------------------


def generate_reverse_batch(seed, size):
    rng = _rng(seed, 1)
    x0 = float(rng.uniform(-1.0, 1.0))
    scale = float(rng.uniform(0.8, 1.25))
    T = 1.0
    config = f"""[model]
family = heat
scale = {scale!r}

[grid]
t_end = {T!r}
n_steps = {size["steps"]}

[run]
seed = {_seed_of(rng)}
particles = {size["n"]}
mode = analytic
nu = dirac:{x0!r}
mu = gaussian:{x0!r},{scale * scale * T!r}
epsilon_stop = {size["eps"]!r}

[thresholds]
ks_max = {KS_MAX!r}
"""
    return {"config": config}


def run_reverse_batch(inputs, out_dir):
    cfg = os.path.join(out_dir, "reverse.ini")
    with open(cfg, "w") as fh:
        fh.write(inputs["config"])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reverse", "--config", cfg, "--output", out_dir,
                         "--force"])
    checks = [flag("exit_code_0", code == 0)]
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path) as fh:
        report = json.load(fh)
    ks = float(report["representation_max_stat"])
    checks.append(Check("max_ks", ks, KS_MAX, ks < KS_MAX))
    artifacts = [os.path.join(out_dir, name)
                 for name in ("report.json", "diagnostics.csv", "snapshots.csv")]
    return Result(checks, {"max_ks": ks}, artifacts)


# ---------------------------------------------------------------------------
# reverse-kde: the self-consistent (kernel-drift) reversal through the
# library; the only workload where `density` runs.
#  * 1-D heat at criterion-6 particle count: takes the binned-FFT KDE path.
#    A multi-d binned KDE must leave this part unchanged.
#  * 2-D rotation OU with the exact O(N^2) KDE: where a multi-d binned KDE
#    must show its gain.  The estimator is known to be biased at this size.
#    On seeds 1-10 the terminal std reads 0.48-0.63 against the closed
#    form's 0.5, the energy distance is 1.3-10 times the same-law floor,
#    and the mean error exceeds criterion 5's 0.05 on 5 seeds, up to 3.4
#    Brownian standard errors.  These are reported as figures.  The one
#    check is wide enough to hold despite that bias: the terminal std of
#    each coordinate lies within a factor STD_FACTOR of the closed form's
#    (|log2| of the ratio 0.05-0.33 on seeds 1-10, against 1).
# ---------------------------------------------------------------------------


def generate_reverse_kde(seed, size):
    rng = _rng(seed, 2)
    T = 1.0
    # 1-D heat N(x0, t) reversed to t = eps1.  Criterion 6's unit scale:
    # its W1 tolerance is absolute and the cloud's width scales with it.
    x0 = float(rng.uniform(-1.0, 1.0))
    eps1 = size["eps1"]
    n1 = size["n1"]
    ref1 = x0 + math.sqrt(eps1) * rng.standard_normal(n1)
    # 2-D rotation: Q(t) = t I exactly, mean expm(C t) x0
    omega = float(rng.uniform(0.5, 1.5))
    C = omega * ROTATION
    y0 = rng.uniform(-1.0, 1.0, size=2)
    eps2 = size["eps2"]
    n2 = size["n2"]
    mean2 = expm(C * eps2) @ y0
    ref2 = mean2 + math.sqrt(eps2) * rng.standard_normal((n2, 2))
    return {
        "T": T,
        "heat": {"x0": x0, "eps": eps1, "n": n1,
                 "steps": size["steps1"], "seed": _seed_of(rng), "ref": ref1},
        "rotation": {"C": C, "mu_mean": expm(C * T) @ y0, "mu_var": T,
                     "eps": eps2, "n": n2, "steps": size["steps2"],
                     "seed": _seed_of(rng), "mean": mean2,
                     "std": math.sqrt(eps2), "ref": ref2},
    }


def run_reverse_kde(inputs, out_dir):
    T = inputs["T"]
    h = inputs["heat"]
    heat = rd.make_model("heat", dim=1, horizon=T)
    run1 = rd.simulate_reversal_selfconsistent(
        heat, rd.gaussian(h["x0"], T),
        rd.TimeGrid(0.0, T, h["steps"]), h["n"], epsilon_stop=h["eps"],
        seed=h["seed"])
    X1 = run1.terminal.positions
    w1 = rd.wasserstein1(X1, h["ref"])

    r = inputs["rotation"]
    rot = rd.make_model("ou", C=r["C"], sigma=np.eye(2), horizon=T)
    run2 = rd.simulate_reversal_selfconsistent(
        rot, rd.gaussian(r["mu_mean"], r["mu_var"] * np.eye(2)),
        rd.TimeGrid(0.0, T, r["steps"]), r["n"], epsilon_stop=r["eps"],
        seed=r["seed"])
    X2 = run2.terminal.positions
    std2 = X2.std(axis=0, ddof=1)
    # NaN (non-finite positions) fails the comparison below
    std_err = float(np.abs(np.log(std2 / r["std"])).max())
    mean_err = float(np.linalg.norm(X2.mean(axis=0) - r["mean"]))
    # Brownian part of the mean's error: sqrt(t_run / n) per coordinate
    mean_se = math.sqrt(run2.grid.t_end / r["n"])
    half = r["n"] // 2
    energy = rd.energy_distance_nd(X2, r["ref"])
    floor = rd.energy_distance_nd(r["ref"][:half], r["ref"][half:])
    checks = [
        Check("heat_terminal_w1", w1, W1_MAX, w1 <= W1_MAX),
        Check("rotation_std_log_ratio", std_err, math.log(STD_FACTOR),
              std_err <= math.log(STD_FACTOR)),
    ]
    figures = {
        "heat_terminal_w1": w1,
        "heat_terminal_std_over_closed_form": float(X1.std(ddof=1))
        / math.sqrt(h["eps"]),
        "rotation_terminal_mean_error": mean_err,
        "rotation_mean_error_over_0.05": mean_err / MEAN_MAX,
        "rotation_mean_error_over_se": mean_err / mean_se,
        "rotation_energy_distance": energy,
        "rotation_energy_floor": floor,
        "rotation_terminal_std": std2.tolist(),
        "rotation_closed_form_std": r["std"],
        "vacuum_events": int(run1.diagnostics.vacuums.sum()
                             + run2.diagnostics.vacuums.sum()),
    }
    return Result(checks, figures, [X1, X2, figures])


# ---------------------------------------------------------------------------
# recover: the inverse side, no bulk output.  The matrix-ODE layer
# (resolvents, fourier_ode_solve) and `metrics` do most of their work here
# and almost none elsewhere; `forward` runs as many small clouds
# (injectivity probe, search) and as one large cloud (Monte Carlo mean-ODE).
# ---------------------------------------------------------------------------


def _xi_grid(d):
    axis = np.linspace(-5.0, 5.0, 9)
    if d == 1:
        return axis[:, None]
    return np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)


def generate_recover(seed, size):
    rng = _rng(seed, 3)
    triangle = []
    for i in range(size["triangle_instances"]):
        d = 1 + i % 2
        inst = {"C": rng.uniform(-2.0, 2.0, (d, d)),
                "sigma": rng.uniform(0.5, 2.0, (d, d))}
        if i % 3 == 2:
            inst["nu_mean"] = rng.uniform(-1.0, 1.0, d)
            inst["nu_cov"] = np.diag(rng.uniform(0.2, 0.8, d))
        else:
            inst["nu_point"] = rng.uniform(-1.0, 1.0, d)
        triangle.append(inst)
    # Criterion 8's grid and rotation model.  Its horizon 0.5 at n = 2000
    # leaves 3 * noise floor / min separation up to 0.94 (3 of 12 seeds
    # above 0.85), so some seeds would read "ambiguous".  The floor scales
    # as sqrt(T / n): horizon 0.0625 at n = 500 does the same kind of work
    # (25 clouds, 325 sliced distances) with that ratio at 0.36-0.69 (30
    # seeds).
    centre = rng.uniform(-0.5, 0.5, 2)
    axis = np.linspace(-1.0, 1.0, 5)
    grid = [centre + [a, b] for a in axis for b in axis]
    control = rng.uniform(-1.0, 1.0, 2)
    search_axis = float(rng.uniform(-0.5, 0.5)) + np.linspace(-1.0, 1.0, 5)
    return {
        "triangle": triangle,
        "triangle_steps": size["triangle_steps"],
        "probe": {"grid": grid, "control": control, "n": size["probe_n"],
                  "steps": 100, "T": 0.0625, "seed": _seed_of(rng)},
        "mc": {"x0": float(rng.uniform(1.0, 3.0)), "n": size["mc_n"],
               "steps": 400, "seed": _seed_of(rng)},
        "search": {"candidates": [[float(v)] for v in search_axis],
                   "x0": float(search_axis[int(rng.integers(5))]),
                   "n": size["search_n"], "steps": 200,
                   "seed": _seed_of(rng)},
    }


def _probe_ratio(rep, expected):
    # the verdict is "injective" iff min off-diagonal > 3 * noise floor
    K = rep.distances.shape[0]
    off = float(rep.distances[~np.eye(K, dtype=bool)].min())
    three_floor = 3.0 * rep.noise_floor
    if expected == "injective":
        return Check("probe_injective", three_floor, off,
                     rep.verdict == expected)
    return Check("probe_control_ambiguous", off, three_floor,
                 rep.verdict == expected)


def run_recover(inputs, out_dir):
    checks = []
    worst = 0.0
    ts = np.arange(1, 11) / 10.0
    for inst in inputs["triangle"]:
        ou = rd.make_model("ou", C=inst["C"], sigma=inst["sigma"])
        if "nu_point" in inst:
            nu = rd.DiracMixture([inst["nu_point"]])
        else:
            nu = rd.gaussian(inst["nu_mean"], inst["nu_cov"])
        rep = rd.consistency_triangle(ou, nu, _xi_grid(ou.dim_d), ts,
                                      n_steps=inputs["triangle_steps"])
        worst = max(worst, rep["max_error"])
    checks.append(Check("triangle_max_error", worst, TRIANGLE_MAX,
                        worst < TRIANGLE_MAX))

    p = inputs["probe"]
    rot = rd.make_model("affine", b0=[0.0, 0.0], b1=ROTATION)
    grid = [rd.DiracMixture([pt]) for pt in p["grid"]]
    control = [rd.DiracMixture([p["control"]]) for _ in range(3)]
    inj = rd.injectivity_probe(rot, grid, T=p["T"], n=p["n"], seed=p["seed"],
                               n_steps=p["steps"])
    amb = rd.injectivity_probe(rot, control, T=p["T"], n=p["n"],
                               seed=p["seed"] + 1, n_steps=p["steps"])
    checks += [_probe_ratio(inj, "injective"), _probe_ratio(amb, "ambiguous")]

    m = inputs["mc"]
    ou1 = rd.make_model("ou", C=-1.0, sigma=1.0)
    grid1 = rd.TimeGrid(0.0, 1.0, m["steps"])
    init = rd.sample_initial(rd.DiracMixture([[m["x0"]]]), m["n"], seed=m["seed"])
    term = rd.euler_maruyama_path(ou1.as_diffusion_model(), init, grid1,
                                  seed=m["seed"],
                                  store_every=grid1.n_steps).terminal
    x_hat, se = rd.reconstruct_dirac_affine_mc(
        rd.AffineDrift.constant([0.0], [[-1.0]]), 1.0, term, grid1)
    mc_err = abs(float(x_hat[0]) - m["x0"])
    checks.append(Check("mc_mean_ode", mc_err, MC_SIGMAS * se,
                        mc_err <= MC_SIGMAS * se))

    s = inputs["search"]
    heat = rd.make_model("heat", dim=1).as_diffusion_model()
    sgrid = rd.TimeGrid(0.0, 1.0, s["steps"])
    init = rd.sample_initial(rd.DiracMixture([[s["x0"]]]), s["n"], seed=s["seed"])
    target = rd.euler_maruyama_path(heat, init, sgrid, seed=s["seed"],
                                    store_every=s["steps"]).terminal
    res = rd.reconstruct_dirac_search(heat, target, s["candidates"], T=1.0,
                                      n=s["n"], seed=s["seed"] + 1,
                                      n_steps=s["steps"])
    spacing = float(np.diff([c[0] for c in s["candidates"]]).min())
    s_err = abs(float(res.x_hat[0]) - s["x0"])
    checks.append(Check("search_within_spacing", s_err, spacing,
                        s_err <= spacing))
    figures = {"triangle_max_error": worst, "mc_error": mc_err,
               "mc_stderr": se, "search_x_hat": float(res.x_hat[0]),
               "probe_noise_floor": inj.noise_floor}
    return Result(checks, figures,
                  [inj.distances, amb.distances, x_hat, res.x_hat, figures])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: callable
    run: callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reverse-batch",
                 "CLI reverse run at criterion-5 particle count: what a CLI user pays, "
                 "the only bulk CSV output, analytic drift and no KDE",
                 generate_reverse_batch, run_reverse_batch),
        Workload("reverse-kde",
                 "kernel-drift reversal: binned 1-D KDE and exact 2-D KDE; "
                 "the only workload where density estimation runs",
                 generate_reverse_kde, run_reverse_kde),
        Workload("recover",
                 "source recovery: matrix ODEs, sliced W1 and many forward "
                 "clouds, with no bulk output and no KDE",
                 generate_recover, run_recover),
    )
}

SIZES = {
    "full": {
        "reverse-batch": {"n": 20000, "steps": 40, "eps": 0.25},
        "reverse-kde": {"n1": 20000, "steps1": 200, "eps1": 0.05,
                        "n2": 2000, "steps2": 40, "eps2": 0.25},
        "recover": {"triangle_instances": 2, "triangle_steps": 500,
                    "probe_n": 500, "mc_n": 25000, "search_n": 5000},
    },
    "tiny": {
        "reverse-batch": {"n": 300, "steps": 40, "eps": 0.25},
        "reverse-kde": {"n1": 400, "steps1": 20, "eps1": 0.05,
                        "n2": 150, "steps2": 10, "eps2": 0.25},
        "recover": {"triangle_instances": 2, "triangle_steps": 50,
                    "probe_n": 100, "mc_n": 500, "search_n": 200},
    },
}


def digest(artifacts):
    """SHA-256 over the artifacts: file bytes, array bytes or JSON text."""
    h = hashlib.sha256()
    for item in artifacts:
        if isinstance(item, str):
            with open(item, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        elif isinstance(item, np.ndarray):
            h.update(f"{item.dtype.str}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()
