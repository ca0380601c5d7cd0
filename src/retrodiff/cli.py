"""Batch experiment runner.

Subcommands bind the library modules to INI-style config files:

    retrodiff <subcommand> --config exp.ini [--output DIR] [--force]

with subcommands ``forward``, ``reverse``, ``ou-verify``, ``invert``,
``moment-check`` and ``injectivity``.  Reports are JSON with deterministic
bytes (reruns of the same config are byte-identical); timestamps and the
wall seconds of each phase live in a separate metadata file; bulk particle
data goes to CSV.  The exit code is 0 iff every configured threshold
passes, 1 on a threshold failure and 2 on usage or configuration errors.
All randomness derives from the mandatory ``seed`` key.  BLAS threads
follow the standard ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``
variables, which take effect only when set before launch.
"""

import argparse
import configparser
import contextlib
import ctypes
import glob
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .distributions import DiracMixture, gaussian
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
    _stop_grid,
    check_integrability_proxy,
    export_diagnostics_csv,
    simulate_reversal_analytic,
    simulate_reversal_selfconsistent,
    verify_representation,
)

SPEC_VERSION = "0.1.0"

_COMMON_RUN_KEYS = {"seed", "particles"}
_ALLOWED_KEYS = {
    "model": {"family", "dim", "scale", "c", "sigma", "b0", "b1",
              "sigma_kind", "sigma_value", "sigma_clip", "amplitude",
              "breakpoints", "rates", "sigmas"},
    "grid": {"t_end", "n_steps"},
    "run": _COMMON_RUN_KEYS | {
        "init", "nu", "mu", "mode", "epsilon_stop", "drift_clip",
        "bandwidth", "route", "terminal_mean", "x0", "candidates",
        "candidate_box", "x", "y", "metric", "store_full",
    },
    "output": {"directory"},
    "thresholds": {"ks_max", "triangle_max_error", "mc_sigmas",
                   "search_tolerance", "fourier_tolerance",
                   "expected_verdict"},
}


class ConfigError(ValueError):
    pass


def _parse_vector(text, key):
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{key} is not a list of numbers: {text!r}") from exc


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
        try:
            var = float(var_s)
        except ValueError as exc:
            raise ConfigError(f"{key}: gaussian variance is not a number: "
                              f"{var_s!r}") from exc
        if var <= 0 or not np.isfinite(var):
            raise ConfigError(f"gaussian variance must be finite positive, got {var}")
        return gaussian(mean, var)
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
        cfg[section] = {}
        for key, value in parser.items(section):
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            cfg[section][key] = value
    if "run" not in cfg or "seed" not in cfg["run"]:
        raise ConfigError("run.seed is mandatory (runs must be reproducible)")
    return cfg


def _number(cfg, section, key, default, integer=False):
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return int(raw) if integer else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} is not a number: {raw!r}") from exc


def _positive(cfg, section, key, default, integer=False):
    v = _number(cfg, section, key, default, integer)
    if v <= 0 or not math.isfinite(v):
        raise ConfigError(f"{section}.{key} must be positive finite, got {v}")
    return v


def _seed(cfg):
    raw = cfg["run"]["seed"]
    try:
        v = int(raw)
    except ValueError as exc:
        raise ConfigError(f"run.seed is not an integer: {raw!r}") from exc
    if v < 0:
        raise ConfigError(f"run.seed must be non-negative, got {v}")
    return v


def build_model(cfg, horizon):
    m = cfg.get("model", {})
    family = m.get("family")
    if family is None:
        raise ConfigError("model.family is required")
    if family == "heat":
        params = {"dim": _number(cfg, "model", "dim", 1, integer=True),
                  "scale": _number(cfg, "model", "scale", 1.0)}
    elif family == "ou":
        if "c" not in m or "sigma" not in m:
            raise ConfigError("ou family needs model.c and model.sigma")
        params = {"C": _parse_matrix(m["c"], "model.c"),
                  "sigma": _parse_matrix(m["sigma"], "model.sigma")}
    elif family in ("affine", "sin-drift"):
        kind = m.get("sigma_kind", "const")
        if kind == "const":
            spec = _number(cfg, "model", "sigma_value", 1.0)
        elif kind == "sqrt1px2":
            spec = ("sqrt1px2", _number(cfg, "model", "sigma_clip", 10.0))
        else:
            raise ConfigError(f"unknown model.sigma_kind {kind!r}")
        params = {"sigma_spec": spec}
        if family == "affine":
            if "b0" not in m or "b1" not in m:
                raise ConfigError("affine family needs model.b0 and model.b1")
            params["b0"] = _parse_vector(m["b0"], "model.b0")
            params["b1"] = _parse_matrix(m["b1"], "model.b1")
        else:
            params["amplitude"] = _number(cfg, "model", "amplitude", 1.0)
    elif family == "piecewise":
        for key in ("breakpoints", "rates", "sigmas"):
            if key not in m:
                raise ConfigError(f"piecewise family needs model.{key}")
        params = {key: _parse_vector(m[key], f"model.{key}")
                  for key in ("breakpoints", "rates", "sigmas")}
    else:
        raise ConfigError(f"unknown model.family {family!r}")
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
    configuration error leaves none behind.
    """

    def __init__(self, directory, force):
        self.dir = directory
        self.force = force
        self.phase_seconds = {}

    def path(self, name):
        os.makedirs(self.dir, exist_ok=True)
        p = os.path.join(self.dir, name)
        if os.path.exists(p) and not self.force:
            raise ConfigError(
                f"refusing to overwrite {p} (pass --force to allow)"
            )
        return p

    def json(self, name, payload):
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @contextlib.contextmanager
    def phase(self, name):
        """Record the wall seconds of the enclosed block in metadata.json."""
        t0 = time.perf_counter()
        yield
        self.phase_seconds[name] = time.perf_counter() - t0

    def metadata(self, command, config_path):
        with open(os.path.join(self.dir, "metadata.json"), "w") as fh:
            json.dump(
                {
                    "blas_threads": _blas_threads(),
                    "command": command,
                    "config": os.path.abspath(config_path),
                    "phase_seconds": self.phase_seconds,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "version": __version__,
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")


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


def _report(failures, payload):
    payload["spec_version"] = SPEC_VERSION
    payload["passed"] = not failures
    payload["failed_criteria"] = sorted(failures)
    return payload


def cmd_forward(cfg, emitter, grid, model, seed):
    n = _positive(cfg, "run", "particles", default=10000, integer=True)
    if "init" not in cfg["run"]:
        raise ConfigError("forward needs run.init")
    init_dist = _parse_distribution(cfg["run"]["init"], "run.init",
                                    model.dim_d)
    raw = cfg["run"].get("store_full", "false")
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ConfigError(f"run.store_full is not a boolean: {raw!r}")
    full = configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    with emitter.phase("simulate"):
        init = sample_initial(init_dist, n, seed)
        path = euler_maruyama_path(model, init, grid, seed,
                                   store_every=1 if full else None)
    with emitter.phase("export"), open(emitter.path("snapshots.csv"), "w") as fh:
        export_snapshots_csv(path, fh)
    with emitter.phase("verify"):
        mean, cov = empirical_moments(path.terminal)
    return _report([], {
        "terminal_mean": mean.tolist(),
        "terminal_cov": cov.tolist(),
        "n_snapshots": len(path),
        "particles": n,
    })


def cmd_reverse(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    n = _positive(cfg, "run", "particles", default=20000, integer=True)
    eps = _positive(cfg, "run", "epsilon_stop", default=0.01 * grid.t_end)
    try:
        _stop_grid(grid, eps)
    except ValueError as exc:
        raise ConfigError(f"run.epsilon_stop = {eps:g}: {exc} "
                          f"(T = {grid.t_end:g}, dt = {grid.dt:g})") from exc
    # none, or absent, is the mode's default
    clip, bw = (None if run_cfg.get(key, "none") == "none"
                else _positive(cfg, "run", key, None)
                for key in ("drift_clip", "bandwidth"))
    mode = run_cfg.get("mode", "analytic")
    if "mu" not in run_cfg:
        raise ConfigError("reverse needs run.mu (terminal sampler)")
    mu = _parse_distribution(run_cfg["mu"], "run.mu", model.dim_d)
    nu = (_parse_distribution(run_cfg["nu"], "run.nu", model.dim_d)
          if "nu" in run_cfg else None)
    is_ou = isinstance(model, OUModel)

    if mode not in ("analytic", "self-consistent"):
        raise ConfigError(f"unknown run.mode {mode!r}")
    if mode == "analytic" and (not is_ou or nu is None):
        raise ConfigError("analytic mode needs an ou/heat model and run.nu")

    with emitter.phase("simulate"):
        if mode == "analytic":
            # the terminal verdict is reported, not printed
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run = simulate_reversal_analytic(
                    model, nu, mu, grid, n, epsilon_stop=eps, seed=seed,
                    drift_clip=clip,
                )
        else:
            run = simulate_reversal_selfconsistent(
                model, mu, grid, n, epsilon_stop=eps,
                drift_clip=1e3 if clip is None else clip, seed=seed,
                bandwidth=bw,
            )

    with emitter.phase("export"):
        with open(emitter.path("snapshots.csv"), "w") as fh:
            export_snapshots_csv(run.path, fh)
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
        if is_ou and nu is not None:
            ks_max = _threshold(cfg, "ks_max", 0.02)
            # the run's own grid, so the cached OUAnalytic of the run is reused
            ref = lambda t: ou_marginal(model, nu, grid.t_end - t,  # noqa: E731
                                        n_steps=grid.n_steps)
            rep = verify_representation(run, ref, threshold=ks_max)
            payload["representation_max_stat"] = rep.max_stat
            payload["representation_threshold"] = ks_max
            if not rep.passed:
                failures.append("representation_max_stat")
    return _report(failures, payload)


def cmd_ou_verify(cfg, emitter, grid, model, seed):
    if not isinstance(model, OUModel):
        raise ConfigError("ou-verify needs the heat or ou family")
    d = model.dim_d
    # the default source is a Dirac mass at the origin
    nu = _parse_distribution(cfg["run"].get("nu", "dirac:" + " 0" * d),
                             "run.nu", d)
    axis = np.linspace(-5.0, 5.0, 9)
    if d == 1:
        xi = axis[:, None]
    elif d == 2:
        xi = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    else:
        raise ConfigError("ou-verify supports d <= 2")
    if grid.n_steps % 10:
        raise ConfigError("ou-verify checks t = 0.1 T, 0.2 T, ..., T, which "
                          "must be grid nodes: grid.n_steps must be a "
                          "multiple of 10")
    tol = _threshold(cfg, "triangle_max_error", 1e-6)
    ts = np.linspace(0.1 * grid.t_end, grid.t_end, 10)
    with emitter.phase("compute"):
        rep = consistency_triangle(model, nu, xi, ts, n_steps=grid.n_steps)
    with emitter.phase("check"):
        failures = [] if rep["max_error"] < tol else ["triangle_max_error"]
        payload = {k: v for k, v in rep.items()}
        payload["threshold"] = tol
        payload["seed"] = seed
    return _report(failures, payload)


def cmd_invert(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    d = model.dim_d
    route = run_cfg.get("route", "mean-ode")
    failures = []

    def affine_of(model):
        if isinstance(model, OUModel):
            return AffineDrift(b0=lambda t: np.zeros(d), b1=model.C, dim=d)
        if getattr(model, "name", "") == "affine":
            return AffineDrift(b0=lambda t: model.drift(t, np.zeros(d)),
                               b1=lambda t: model.jac_drift_at(t, np.zeros(d)),
                               dim=d)
        raise ConfigError("mean-ode routes need an affine-drift model")

    if route == "mean-ode":
        if "terminal_mean" not in run_cfg:
            raise ConfigError("mean-ode route needs run.terminal_mean")
        m = np.array(_parse_point(run_cfg["terminal_mean"],
                                  "run.terminal_mean", d))
        drift = affine_of(model)
        with emitter.phase("compute"):
            x_hat = reconstruct_dirac_affine(drift, m, grid)
        with emitter.phase("check"):
            payload = {"route": route, "x_hat": x_hat.tolist()}
    elif route == "mean-ode-mc":
        if "x0" not in run_cfg:
            raise ConfigError("mean-ode-mc route needs run.x0 (data generator)")
        x0 = np.array(_parse_point(run_cfg["x0"], "run.x0", d))
        n = _positive(cfg, "run", "particles", default=100000, integer=True)
        drift = affine_of(model)
        k_sig = _threshold(cfg, "mc_sigmas", 3.0)
        with emitter.phase("compute"):
            init = sample_initial(DiracMixture([x0]), n, seed)
            term = euler_maruyama_path(model, init, grid, seed,
                                       store_every=grid.n_steps).terminal
            x_hat, se = reconstruct_dirac_affine_mc(drift, None, term, grid)
        with emitter.phase("check"):
            err = float(np.linalg.norm(x_hat - x0))
            if err > k_sig * se + 1e-12:
                failures.append("mc_recovery")
            payload = {"route": route, "x_hat": x_hat.tolist(), "stderr": se,
                       "true_x0": x0.tolist(), "error": err}
    elif route == "search":
        if "x0" not in run_cfg or "candidates" not in run_cfg:
            raise ConfigError("search route needs run.x0 and run.candidates")
        x0 = np.array(_parse_point(run_cfg["x0"], "run.x0", d))
        cands = _candidate_points(run_cfg, d)
        n = _positive(cfg, "run", "particles", default=20000, integer=True)
        spacings = np.diff(sorted(c[0] for c in cands))
        spacing = float(spacings[spacings > 0].min()) if (spacings > 0).any() else 1.0
        tol = _threshold(cfg, "search_tolerance", default=spacing)
        with emitter.phase("compute"):
            init = sample_initial(DiracMixture([x0]), n, seed)
            target = euler_maruyama_path(model, init, grid, seed,
                                         store_every=grid.n_steps).terminal
            res = reconstruct_dirac_search(model, target, cands, grid.t_end, n,
                                           seed + 1, n_steps=grid.n_steps)
        with emitter.phase("check"):
            err = float(np.linalg.norm(res.x_hat - x0))
            if err > tol:
                failures.append("search_recovery")
            emitter.json("scores.json", res.to_json_dict())
            payload = {"route": route, "x_hat": res.x_hat.tolist(),
                       "true_x0": x0.tolist(), "error": err, "tolerance": tol}
    elif route == "fourier":
        if not isinstance(model, OUModel) or "x0" not in run_cfg:
            raise ConfigError("fourier route needs an ou/heat model and run.x0")
        x0 = np.array(_parse_point(run_cfg["x0"], "run.x0", d))
        T = grid.t_end
        # the terminal law of a point source at x0 under the configured model
        mu_hat = ou_marginal(model, DiracMixture([x0]), T, n_steps=grid.n_steps)
        tol = _threshold(cfg, "fourier_tolerance", 1e-4)

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
    else:
        raise ConfigError(f"unknown run.route {route!r}")
    return _report(failures, payload)


def cmd_moment_check(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    n = _positive(cfg, "run", "particles", default=10000, integer=True)
    if "x" not in run_cfg or "y" not in run_cfg:
        raise ConfigError("moment-check needs run.x and run.y")
    x = _parse_point(run_cfg["x"], "run.x", model.dim_d)
    y = _parse_point(run_cfg["y"], "run.y", model.dim_d)
    with emitter.phase("compute"):
        rep = check_moment_bound(model, x, y, grid, n, seed)
    with emitter.phase("check"):
        failures = [] if rep.passed else ["moment_bound"]
        payload = {
            "sup_empirical": rep.sup_empirical,
            "sup_time": rep.sup_time,
            "bound": rep.bound,
            "margin": rep.margin,
            "K": rep.K,
            "small_horizon_margin": rep.small_horizon_margin,
        }
    return _report(failures, payload)


def cmd_injectivity(cfg, emitter, grid, model, seed):
    run_cfg = cfg["run"]
    n = _positive(cfg, "run", "particles", default=4000, integer=True)
    if "candidates" in run_cfg:
        pts = _candidate_points(run_cfg, model.dim_d)
    elif "candidate_box" in run_cfg:
        box = _parse_vector(run_cfg["candidate_box"], "run.candidate_box")
        if len(box) != 3:
            raise ConfigError("run.candidate_box needs lo, hi and a count")
        lo, hi, count = box
        if not (count.is_integer() and count >= 2):
            raise ConfigError(f"run.candidate_box count must be an integer "
                              f">= 2, got {count:g}")
        if model.dim_d not in (1, 2):
            raise ConfigError(f"run.candidate_box needs a 1-D or 2-D model, "
                              f"but the model has dimension {model.dim_d}")
        axis = np.linspace(lo, hi, int(count))
        if model.dim_d == 2:
            pts = [[a, b] for a in axis for b in axis]
        else:
            pts = [[a] for a in axis]
    else:
        raise ConfigError("injectivity needs run.candidates or run.candidate_box")
    expected = cfg.get("thresholds", {}).get("expected_verdict", "injective")
    if expected not in ("injective", "ambiguous"):
        raise ConfigError("thresholds.expected_verdict must be "
                          "'injective' or 'ambiguous'")
    metric = run_cfg.get("metric", "wasserstein1")
    if metric not in ("wasserstein1", "mean"):
        raise ConfigError(f"run.metric must be 'wasserstein1' or 'mean', "
                          f"got {metric!r}")
    cands = [DiracMixture([p]) for p in pts]
    with emitter.phase("compute"):
        rep = injectivity_probe(model, cands, grid.t_end, n, seed,
                                metric=metric, n_steps=grid.n_steps)
    with emitter.phase("check"):
        failures = [] if rep.verdict == expected else ["verdict"]
        payload = rep.to_json_dict()
        payload["expected_verdict"] = expected
    return _report(failures, payload)


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
        out_dir = args.output or cfg.get("output", {}).get("directory", "out")
        emitter = _Emitter(out_dir, args.force)
        grid = _grid(cfg)
        model = build_model(cfg, grid.t_end)
        payload = _COMMANDS[args.command](cfg, emitter, grid, model, _seed(cfg))
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
