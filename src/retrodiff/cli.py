"""Batch experiment runner.

Subcommands bind the library modules to INI-style config files:

    retrodiff <subcommand> --config exp.ini [--output DIR] [--force]

with subcommands ``forward``, ``reverse``, ``ou-verify``, ``invert``,
``moment-check`` and ``injectivity``.  Reports are JSON with deterministic
bytes (reruns of the same config are byte-identical); timestamps and the
wall seconds of each phase live in a separate metadata file; bulk particle
data goes to CSV.  The exit code is 0 iff every configured threshold
passes, 1 on a threshold failure and 2 on usage or configuration errors.
Each command reads all of its settings before its first phase, and that
phase first refuses, with exit 2, every key the command did not read, so
a configured threshold cannot go unchecked.
All randomness derives from the mandatory ``seed`` key.  BLAS threads
follow the standard ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``
variables, which take effect only when set before launch.
"""

import argparse
import configparser
import contextlib
import ctypes
import glob
import itertools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .distributions import DegenerateDensityError, DiracMixture, gaussian
from .forward import (
    check_moment_bound,
    empirical_moments,
    euler_maruyama_path,
    export_snapshots_csv,
    sample_initial,
)
from .grids import TimeGrid
from .inverse import (
    AffineDrift,
    extract_source_location,
    injectivity_probe,
    reconstruct_dirac_affine,
    reconstruct_dirac_affine_mc,
    reconstruct_dirac_search,
)
from .models import OUModel, make_model
from .ou_analytic import (
    consistency_triangle,
    fourier_invert_terminal,
    ou_marginal,
)
from .reversal import (
    _check_elliptic,
    _stop_grid,
    check_integrability_proxy,
    export_diagnostics_csv,
    simulate_reversal_analytic,
    simulate_reversal_selfconsistent,
    verify_representation,
)

SPEC_VERSION = "0.1.0"

_ALLOWED_KEYS = {
    "model": {"family", "dim", "scale", "c", "sigma", "b0", "b1",
              "sigma_kind", "sigma_value", "sigma_clip", "amplitude",
              "breakpoints", "rates", "sigmas"},
    "grid": {"t_end", "n_steps"},
    "run": {"seed", "particles", "init", "nu", "mu", "mode", "epsilon_stop",
            "drift_clip", "bandwidth", "route", "terminal_mean", "x0",
            "candidates", "candidate_box", "x", "y", "store_full"},
    "output": {"directory"},
    "thresholds": {"ks_max", "triangle_max_error", "mc_sigmas",
                   "search_tolerance", "fourier_tolerance",
                   "expected_verdict"},
}


# the key that sets each family's dispersion, named when reverse refuses it
_DISPERSION_KEY = {"heat": "model.scale", "ou": "model.sigma",
                   "affine": "model.sigma_value",
                   "sin-drift": "model.sigma_value",
                   "piecewise": "model.sigmas"}


class ConfigError(ValueError):
    pass


class _Section(dict):
    """One config section's values; it records each key a command reads."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _refuse_unread(cfg):
    """Refuse the keys the command did not read: a key it ignores, such as a
    threshold, would pass unchecked."""
    unread = [f"{section}.{key}" for section, values in cfg.items()
              for key in values if key not in values.read]
    if unread:
        raise ConfigError(f"this command does not read {', '.join(unread)}")


def _parse_vector(text, key):
    try:
        v = [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        v = [math.nan]
    if not all(map(math.isfinite, v)):
        raise ConfigError(f"{key} is not a list of finite numbers: {text!r}")
    return v


def _parse_point(text, key, dim):
    """A vector literal that must have the model's dimension."""
    v = _parse_vector(text, key)
    if len(v) != dim:
        raise ConfigError(f"{key} has {len(v)} coordinates, but the model "
                          f"has dimension {dim}: {text!r}")
    return v


def _parse_matrix(text, key):
    rows = [_parse_vector(r, key) for r in text.split(";")]
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{key}: ragged matrix literal {text!r}")
    return rows


def _parse_distribution(text, key, dim):
    """dirac:<coords> or gaussian:<mean coords>,<variance> in ``dim`` dims."""
    kind, _, rest = text.partition(":")
    if kind == "dirac":
        return DiracMixture([_parse_point(rest, key, dim)])
    if kind == "gaussian":
        mean_s, _, var_s = rest.rpartition(",")
        if not mean_s:
            raise ConfigError(f"gaussian spec {text!r} needs mean,variance")
        mean = _parse_point(mean_s, key, dim)
        var = _parse_vector(var_s, key)
        if len(var) != 1 or var[0] <= 0:
            raise ConfigError(f"{key}: gaussian variance must be one positive "
                              f"number, got {var_s!r}")
        return gaussian(mean, var[0])
    raise ConfigError(f"unknown distribution spec {text!r}")


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = {}
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        cfg[section] = _Section()
        for key, value in parser.items(section):
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            cfg[section][key] = value
    if "run" not in cfg or "seed" not in cfg["run"]:
        raise ConfigError("run.seed is mandatory (runs must be reproducible)")
    return cfg


def _number(cfg, section, key, default, integer=False):
    """``section.key`` as a finite float or int, or ``default`` if absent."""
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        v = int(raw) if integer else float(raw)
        ok = integer or math.isfinite(v)
    except ValueError:
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{section}.{key} is not {kind}: {raw!r}")
    return v


def _positive(cfg, section, key, default, integer=False):
    v = _number(cfg, section, key, default, integer)
    if v <= 0:
        raise ConfigError(f"{section}.{key} must be positive, got {v}")
    return v


def _choice(cfg, section, key, default, choices, fold=str):
    """``section.key``, as ``fold`` reads it, as one of ``choices``, or
    ``default`` if absent."""
    raw = cfg.get(section, {}).get(key, default)
    if fold(raw) not in choices:
        raise ConfigError(f"{section}.{key} must be one of "
                          f"{', '.join(sorted(choices))}; got {raw!r}")
    return fold(raw)


def _require(cfg, what, *keys):
    """Refuse a config that lacks any of ``keys``, each ``section.key``."""
    if any(key not in cfg.get(section, {})
           for section, key in (k.split(".") for k in keys)):
        raise ConfigError(f"{what} needs {' and '.join(keys)}")


def _seed(cfg):
    v = _number(cfg, "run", "seed", None, integer=True)
    if v < 0:
        raise ConfigError(f"run.seed must be non-negative, got {v}")
    return v


def _particles(cfg, default):
    n = _number(cfg, "run", "particles", default, integer=True)
    if n < 2:
        raise ConfigError(f"run.particles must be at least 2, got {n}")
    return n


def build_model(cfg, horizon):
    _require(cfg, "model", "model.family")
    m = cfg["model"]
    family = m["family"]
    if family == "heat":
        params = {"dim": _number(cfg, "model", "dim", 1, integer=True),
                  "scale": _number(cfg, "model", "scale", 1.0)}
    elif family == "ou":
        _require(cfg, "ou family", "model.c", "model.sigma")
        params = {"C": _parse_matrix(m["c"], "model.c"),
                  "sigma": _parse_matrix(m["sigma"], "model.sigma")}
    elif family == "piecewise":
        keys = ("breakpoints", "rates", "sigmas")
        _require(cfg, "piecewise family", *(f"model.{k}" for k in keys))
        params = {k: _parse_vector(m[k], f"model.{k}") for k in keys}
    else:
        # affine and sin-drift; make_model refuses an unknown family
        kind = _choice(cfg, "model", "sigma_kind", "const",
                       ("const", "sqrt1px2"))
        if kind == "const":
            spec = _number(cfg, "model", "sigma_value", 1.0)
        else:
            spec = ("sqrt1px2", _number(cfg, "model", "sigma_clip", 10.0))
        params = {"sigma_spec": spec}
        if family == "affine":
            _require(cfg, "affine family", "model.b0", "model.b1")
            params["b0"] = _parse_vector(m["b0"], "model.b0")
            params["b1"] = _parse_matrix(m["b1"], "model.b1")
        else:
            params["amplitude"] = _number(cfg, "model", "amplitude", 1.0)
    try:
        return make_model(family, horizon=horizon, **params)
    except ValueError as exc:
        raise ConfigError(f"{family} family: {exc}") from exc


def _blas_threads():
    """BLAS threads in effect, read from numpy's bundled OpenBLAS; else None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                get = getattr(lib, sym)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


class _Emitter:
    """Writes every artifact under the output directory, refusing clobbers.

    The directory is made on the first write, so a run that stops at a
    configuration error leaves none behind.  Every command reads all of its
    settings before its first phase, so that phase first refuses the keys
    of ``cfg`` that were not read.
    """

    def __init__(self, directory, force, cfg):
        self.dir = directory
        self.force = force
        self.cfg = cfg
        self.phase_seconds = {}
        self.export_processes = None

    def path(self, name):
        os.makedirs(self.dir, exist_ok=True)
        p = os.path.join(self.dir, name)
        if os.path.exists(p) and not self.force:
            raise ConfigError(
                f"refusing to overwrite {p} (pass --force to allow)"
            )
        return p

    def json(self, name, payload):
        # strict JSON: a non-finite float raises before the file is opened
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        with open(self.path(name), "w") as fh:
            fh.write(text + "\n")

    @contextlib.contextmanager
    def phase(self, name):
        """Record the wall seconds of the enclosed block in metadata.json."""
        if not self.phase_seconds:
            _refuse_unread(self.cfg)
        t0 = time.perf_counter()
        yield
        self.phase_seconds[name] = time.perf_counter() - t0

    def metadata(self, command, config_path):
        self.json("metadata.json", {
            "blas_threads": _blas_threads(),
            "command": command,
            "config": os.path.abspath(config_path),
            "export_processes": self.export_processes,
            "phase_seconds": self.phase_seconds,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "version": __version__,
        })


def _grid(cfg):
    t_end = _positive(cfg, "grid", "t_end", default=1.0)
    n_steps = _positive(cfg, "grid", "n_steps", default=1000, integer=True)
    return TimeGrid(0.0, t_end, n_steps)


def _threshold(cfg, key, default):
    return _positive(cfg, "thresholds", key, default=default)


def _candidate_points(run_cfg, dim):
    """``run.candidates``: a list of 1-D candidate points."""
    if dim != 1:
        raise ConfigError(f"run.candidates lists 1-D points, but the model has "
                          f"dimension {dim}")
    return [[v] for v in _parse_vector(run_cfg["candidates"], "run.candidates")]


def _point_source_cloud(model, x0, n, grid, seed):
    """The terminal cloud of n particles from ``x0``: the data to invert."""
    init = sample_initial(DiracMixture([x0]), n, seed)
    return euler_maruyama_path(model, init, grid, seed,
                               store_every=grid.n_steps).terminal


def cmd_forward(cfg, emitter, grid, model, seed):
    n = _particles(cfg, 10000)
    _require(cfg, "forward", "run.init")
    init_dist = _parse_distribution(cfg["run"]["init"], "run.init",
                                    model.dim_d)
    states = configparser.ConfigParser.BOOLEAN_STATES
    full = states[_choice(cfg, "run", "store_full", "false", states,
                          fold=str.lower)]
    with emitter.phase("simulate"):
        init = sample_initial(init_dist, n, seed)
        path = euler_maruyama_path(model, init, grid, seed,
                                   store_every=1 if full else None)
    with emitter.phase("export"), open(emitter.path("snapshots.csv"), "w") as fh:
        emitter.export_processes = export_snapshots_csv(path, fh)
    with emitter.phase("verify"):
        mean, cov = empirical_moments(path.terminal)
    return [], {
        "terminal_mean": mean.tolist(),
        "terminal_cov": cov.tolist(),
        "n_snapshots": len(path),
        "particles": n,
    }


def cmd_reverse(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    n = _particles(cfg, 20000)
    mode = _choice(cfg, "run", "mode", "analytic",
                   ("analytic", "self-consistent"))
    _require(cfg, "reverse", "run.mu")
    mu = _parse_distribution(run_cfg["mu"], "run.mu", model.dim_d)
    # run.nu is read only where the run uses it: by the analytic score and by
    # the check against the closed-form marginals, both of an ou/heat model
    nu = (_parse_distribution(run_cfg["nu"], "run.nu", model.dim_d)
          if isinstance(model, OUModel) and "nu" in run_cfg else None)
    if mode == "analytic" and nu is None:
        raise ConfigError("analytic mode needs an ou/heat model and run.nu")
    eps = _number(cfg, "run", "epsilon_stop", None)
    try:
        _stop_grid(grid, eps)
    except ValueError as exc:
        raise ConfigError(f"run.epsilon_stop: {exc} "
                          f"(T = {grid.t_end:g}, dt = {grid.dt:g})") from exc
    # none, or absent, leaves the mode's default
    options = {key: _positive(cfg, "run", key, None)
               for key in ("drift_clip", "bandwidth")
               if run_cfg.get(key, "none") != "none"}
    if mode == "analytic" and "bandwidth" in options:
        raise ConfigError("run.bandwidth sets the self-consistent mode's "
                          "kernel; the analytic mode has none")
    # each mode's own rule: the analytic reversal needs a marginal with a
    # density, which the run itself checks; the self-consistent one an
    # elliptic sigma sigma^T, probed here at the origin and by the run at
    # its particles
    dispersion = _DISPERSION_KEY[cfg["model"]["family"]]
    try:
        if mode == "self-consistent":
            _check_elliptic(model, [(t, np.zeros(model.dim_d)) for t in
                                    (0.0, grid.t_end / 2, grid.t_end)])
    except ValueError as exc:
        raise ConfigError(f"{dispersion}: {exc}") from exc
    ks_max = None if nu is None else _threshold(cfg, "ks_max", 0.02)

    with emitter.phase("simulate"):
        if mode == "analytic":
            # the terminal verdict is reported, not printed
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    run = simulate_reversal_analytic(
                        model, nu, mu, grid, n, epsilon_stop=eps, seed=seed,
                        **options)
                except DegenerateDensityError as exc:
                    raise ConfigError(f"{dispersion}: the marginal of run.nu "
                                      f"has no density ({exc})") from exc
        else:
            try:
                run = simulate_reversal_selfconsistent(
                    model, mu, grid, n, epsilon_stop=eps, seed=seed,
                    **options)
            except DegenerateDensityError as exc:
                raise ConfigError(f"run.mu has no density, which the "
                                  f"self-consistent mode needs ({exc})") from exc

    with emitter.phase("export"):
        with open(emitter.path("snapshots.csv"), "w") as fh:
            emitter.export_processes = export_snapshots_csv(run.path, fh)
        with open(emitter.path("diagnostics.csv"), "w") as fh:
            export_diagnostics_csv(run, fh)

    with emitter.phase("verify"):
        X = run.terminal.positions
        proxy = check_integrability_proxy(run)
        payload = {
            "mode": run.mode,
            "terminal_mean": X.mean(axis=0).tolist(),
            "terminal_std": X.std(axis=0, ddof=1).tolist(),
            "epsilon_stop": run.epsilon_stop,
            "drift_integral": proxy.drift_integral,
            "drift_growth_exponent": proxy.growth_exponent,
            "clip_events": proxy.clip_events,
            "vacuum_events": proxy.vacuum_events,
            "terminal_consistency_warning": run.terminal_check_failed,
        }
        failures = []
        if nu is not None:
            # the run's own grid, so the cached OUAnalytic of the run is reused
            ref = lambda t: ou_marginal(model, nu, grid.t_end - t,  # noqa: E731
                                        n_steps=grid.n_steps)
            rep = verify_representation(run, ref, threshold=ks_max)
            payload["representation_max_stat"] = rep.max_stat
            payload["representation_threshold"] = ks_max
            if not rep.passed:
                failures.append("representation_max_stat")
    return failures, payload


def cmd_ou_verify(cfg, emitter, grid, model, seed):
    if not isinstance(model, OUModel):
        raise ConfigError("ou-verify needs the heat or ou family")
    d = model.dim_d
    # the default source is a Dirac mass at the origin
    nu = _parse_distribution(cfg["run"].get("nu", "dirac:" + " 0" * d),
                             "run.nu", d)
    if d > 2:
        raise ConfigError("ou-verify supports d <= 2")
    if grid.n_steps % 10:
        raise ConfigError("ou-verify checks t = 0.1 T, 0.2 T, ..., T, which "
                          "must be grid nodes: grid.n_steps must be a "
                          "multiple of 10")
    tol = _threshold(cfg, "triangle_max_error", 1e-6)
    axis = np.linspace(-5.0, 5.0, 9)
    xi = np.stack(np.meshgrid(*[axis] * d), axis=-1).reshape(-1, d)
    ts = np.linspace(0.1 * grid.t_end, grid.t_end, 10)
    with emitter.phase("compute"):
        rep = consistency_triangle(model, nu, xi, ts, n_steps=grid.n_steps)
    with emitter.phase("check"):
        failures = [] if rep["max_error"] < tol else ["triangle_max_error"]
        payload = {k: v for k, v in rep.items()}
        payload["threshold"] = tol
        payload["seed"] = seed
    return failures, payload


def cmd_invert(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    d = model.dim_d
    route = _choice(cfg, "run", "route", "mean-ode",
                    ("mean-ode", "mean-ode-mc", "search", "fourier"))
    failures = []

    def affine_of(model):
        if model.name not in ("ou", "affine"):
            raise ConfigError("mean-ode routes need an affine-drift model")
        return AffineDrift.constant(model.drift(0.0, np.zeros(d)),
                                    model.jac_drift_at(0.0, np.zeros(d)))

    if route == "mean-ode":
        _require(cfg, "mean-ode route", "run.terminal_mean")
        m = np.array(_parse_point(run_cfg["terminal_mean"],
                                  "run.terminal_mean", d))
        drift = affine_of(model)
        with emitter.phase("compute"):
            x_hat = reconstruct_dirac_affine(drift, m, grid)
        with emitter.phase("check"):
            payload = {"route": route, "x_hat": x_hat.tolist()}
    elif route == "mean-ode-mc":
        _require(cfg, "mean-ode-mc route", "run.x0")
        x0 = np.array(_parse_point(run_cfg["x0"], "run.x0", d))
        n = _particles(cfg, 100000)
        drift = affine_of(model)
        k_sig = _threshold(cfg, "mc_sigmas", 3.0)
        with emitter.phase("compute"):
            term = _point_source_cloud(model, x0, n, grid, seed)
            x_hat, se = reconstruct_dirac_affine_mc(drift, None, term, grid)
        with emitter.phase("check"):
            err = float(np.linalg.norm(x_hat - x0))
            if err > k_sig * se + 1e-12:
                failures.append("mc_recovery")
            payload = {"route": route, "x_hat": x_hat.tolist(), "stderr": se,
                       "true_x0": x0.tolist(), "error": err}
    elif route == "search":
        _require(cfg, "search route", "run.x0", "run.candidates")
        x0 = np.array(_parse_point(run_cfg["x0"], "run.x0", d))
        cands = _candidate_points(run_cfg, d)
        n = _particles(cfg, 20000)
        spacings = np.diff(sorted(c[0] for c in cands))
        spacing = float(spacings[spacings > 0].min()) if (spacings > 0).any() else 1.0
        tol = _threshold(cfg, "search_tolerance", default=spacing)
        with emitter.phase("compute"):
            target = _point_source_cloud(model, x0, n, grid, seed)
            res = reconstruct_dirac_search(model, target, cands, grid.t_end, n,
                                           seed + 1, n_steps=grid.n_steps)
        with emitter.phase("check"):
            err = float(np.linalg.norm(res.x_hat - x0))
            if err > tol:
                failures.append("search_recovery")
            emitter.json("scores.json", res.to_json_dict())
            payload = {"route": route, "x_hat": res.x_hat.tolist(),
                       "true_x0": x0.tolist(), "error": err, "tolerance": tol}
    else:
        if not isinstance(model, OUModel) or "x0" not in run_cfg:
            raise ConfigError("fourier route needs an ou/heat model and run.x0")
        x0 = np.array(_parse_point(run_cfg["x0"], "run.x0", d))
        tol = _threshold(cfg, "fourier_tolerance", 1e-4)
        T = grid.t_end
        # the terminal law of a point source at x0 under the configured model
        mu_hat = ou_marginal(model, DiracMixture([x0]), T, n_steps=grid.n_steps)

        def recovered(xi):
            return fourier_invert_terminal(model, mu_hat, T, xi,
                                           n_steps=grid.n_steps)

        with emitter.phase("compute"):
            est = extract_source_location(recovered, dim=d)
        with emitter.phase("check"):
            err = float(np.abs(est - x0).max())
            if err > tol:
                failures.append("fourier_recovery")
            payload = {"route": route, "x_hat": est.tolist(),
                       "true_x0": x0.tolist(), "error": err, "tolerance": tol}
    return failures, payload


def cmd_moment_check(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    n = _particles(cfg, 10000)
    _require(cfg, "moment-check", "run.x", "run.y")
    x = _parse_point(run_cfg["x"], "run.x", model.dim_d)
    y = _parse_point(run_cfg["y"], "run.y", model.dim_d)
    with emitter.phase("compute"):
        rep = check_moment_bound(model, x, y, grid, n, seed)
    with emitter.phase("check"):
        failures = [] if rep.passed else ["moment_bound"]
        # past the float range the Gronwall bound holds vacuously: null
        payload = {
            "sup_empirical": rep.sup_empirical,
            "sup_time": rep.sup_time,
            "bound": rep.bound,
            "margin": rep.margin,
            "K": rep.K,
            "small_horizon_margin": rep.small_horizon_margin,
        }
        for key in ("bound", "small_horizon_margin"):
            if not math.isfinite(payload[key]):
                payload[key] = None
    return failures, payload


def cmd_injectivity(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    d = model.dim_d
    n = _particles(cfg, 4000)
    if "candidates" in run_cfg:
        pts = _candidate_points(run_cfg, d)
        if len(pts) < 2:
            raise ConfigError("injectivity needs at least two run.candidates")
    elif "candidate_box" in run_cfg:
        box = _parse_vector(run_cfg["candidate_box"], "run.candidate_box")
        if len(box) != 3:
            raise ConfigError("run.candidate_box needs lo, hi and a count")
        lo, hi, count = box
        if not (count.is_integer() and count >= 2):
            raise ConfigError(f"run.candidate_box count must be an integer "
                              f">= 2, got {count:g}")
        if d not in (1, 2):
            raise ConfigError(f"run.candidate_box needs a 1-D or 2-D model, "
                              f"but the model has dimension {d}")
        pts = list(itertools.product(np.linspace(lo, hi, int(count)), repeat=d))
    else:
        raise ConfigError("injectivity needs run.candidates or run.candidate_box")
    expected = _choice(cfg, "thresholds", "expected_verdict", "injective",
                       ("injective", "ambiguous"))
    cands = [DiracMixture([p]) for p in pts]
    with emitter.phase("compute"):
        rep = injectivity_probe(model, cands, grid.t_end, n, seed,
                                n_steps=grid.n_steps)
    with emitter.phase("check"):
        failures = [] if rep.verdict == expected else ["verdict"]
        payload = rep.to_json_dict()
        payload["expected_verdict"] = expected
    return failures, payload


_COMMANDS = {
    "forward": cmd_forward,
    "reverse": cmd_reverse,
    "ou-verify": cmd_ou_verify,
    "invert": cmd_invert,
    "moment-check": cmd_moment_check,
    "injectivity": cmd_injectivity,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="retrodiff",
        description="Time-reversed diffusion experiments from config files.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--output", default=None,
                        help="output directory (overrides config)")
    parser.add_argument("--force", action="store_true",
                        help="allow overwriting existing outputs")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        # read even when --output overrides it
        out_dir = cfg.get("output", {}).get("directory", "out")
        out_dir = args.output or out_dir
        emitter = _Emitter(out_dir, args.force, cfg)
        grid = _grid(cfg)
        model = build_model(cfg, grid.t_end)
        failures, payload = _COMMANDS[args.command](cfg, emitter, grid, model,
                                                    _seed(cfg))
        payload.update(spec_version=SPEC_VERSION, passed=not failures,
                       failed_criteria=sorted(failures))
        emitter.json("report.json", payload)
        emitter.metadata(args.command, args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = payload["passed"]
    print(json.dumps({"passed": ok, "failed_criteria": payload["failed_criteria"],
                      "report": os.path.join(out_dir, "report.json")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
