"""Per-layer tracing installed from outside the library.

The layers are the ``retrodiff`` modules.  ``install`` wraps each module's
public entry points (``TARGETS``) and replaces the original object at every
binding site: modules import names directly (``from .metrics import
sliced_wasserstein1`` in ``inverse``), so patching only the defining module
would miss calls.  Methods are wrapped on their class, which every binding
shares.

A wrapped call records a span (name, start, end, parent, run id) in memory,
or, for hot coefficient calls, only a counter.  A layer's self time is its
spans' duration minus the time their child spans cover.  Hooks read the
call's arguments and result after the span closes and add work counts
(rows, particle steps, kernel evaluations, ...), so they cost no span time.
"""

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


class Tracer:
    """In-memory spans and counters; one ``begin_run`` per traced iteration."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.run_ids = [], []
        self.stack = []
        self.run_id = -1
        self.begin_run()

    def begin_run(self):
        self.run_id += 1
        self.first_span = len(self.names)
        self.counts = Counter()
        self.projections = set()
        self.ode_groups = defaultdict(list)

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.run_ids.append(self.run_id)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def top(self):
        return self.names[self.stack[-1]] if self.stack else None

    def self_times(self):
        """Self time per span name over the current run."""
        lo = self.first_span
        dur = np.array(self.ends[lo:]) - np.array(self.starts[lo:])
        own = dur.copy()
        for i, p in enumerate(self.parents[lo:]):
            if p >= lo:
                own[p - lo] -= dur[i]
        out = defaultdict(float)
        for name, s in zip(self.names[lo:], own):
            out[name] += float(s)
        return dict(out)

    def spans(self):
        """All spans as rows [name, start, end, parent, run id]."""
        return [list(r) for r in zip(self.names, self.starts, self.ends,
                                     self.parents, self.run_ids)]


@dataclass
class Call:
    args: dict
    result: object
    span: int
    inline: bool
    duration: float


def _cloud_key(X):
    X = np.atleast_2d(X)
    return (X.__array_interface__["data"][0], X.shape, X.strides,
            X[:2].tobytes(), X[-2:].tobytes())


# --- hooks: work counts read from a finished call --------------------------


def _export(tr, c):
    tr.counts["forward.export.rows"] += sum(s.n for s in c.args["path"].snapshots)
    tr.counts["forward.export.bytes"] += c.args["fileobj"].tell()


def _reversal(tr, c):
    run = c.result
    tr.counts["reversal.particle_steps"] += run.terminal.n * run.grid.n_steps
    tr.counts["reversal.loop_s"] += c.duration
    tr.counts["reversal.clip_events"] += int(run.diagnostics.clips.sum())
    tr.counts["reversal.vacuum_events"] += int(run.diagnostics.vacuums.sum())


def _score(tr, c):
    tr.counts["distributions.score.rows"] += np.atleast_2d(c.args["x"]).shape[0]


def _exact(tr, c):
    field = c.args["self"]
    m = np.atleast_2d(c.args["x"]).shape[0]
    tr.counts["density.exact.kernel_evals"] += m * field.n


def _binned(tr, c):
    # Mirrors the 1-D grid rule of KdeField.binned_log_density_and_score;
    # a multi-d binned path needs a new rule here, so fail rather than guess.
    field = c.args["self"]
    if field.dim != 1:
        raise NotImplementedError(
            "density.binned.grid_points counts the 1-D grid rule only")
    src = field.positions[:, 0]
    h = float(field.bandwidth[0])
    lo, hi = src.min() - 8.0 * h, src.max() + 8.0 * h
    G = int(c.args.get("grid_size", 4096))
    while (hi - lo) / (G - 1) > h / 4.0 and G < (1 << 20):
        G *= 2
    tr.counts["density.binned.grid_points"] += G


def _fourier_ode(tr, c):
    steps = c.args["grid"].n_steps
    tr.counts["ou_analytic.fourier_ode.rk4_steps"] += steps
    parent = tr.parents[c.span]
    # one integration per consistency_triangle instance would cover all t
    group = parent if parent >= 0 and tr.names[parent] == "ou_analytic" else c.span
    tr.ode_groups[group].append(steps)


def _resolvents(tr, c):
    tr.counts["resolvents.rk4_steps"] += c.args["grid"].n_steps


def _em(tr, c):
    tr.counts["forward.em.particle_steps"] += (c.args["init"].n
                                               * c.args["grid"].n_steps)
    tr.counts["forward.em.loop_s"] += c.duration


def _probe(tr, c):
    k = len(c.args["candidates"])
    tr.counts["inverse.probe.pairs"] += k * (k - 1) // 2


def _sliced(tr, c):
    X, Y = np.atleast_2d(c.args["X"]), np.atleast_2d(c.args["Y"])
    if X.shape[1] == 1:
        tr.projections.update({(_cloud_key(X),), (_cloud_key(Y),)})
        return
    n_proj, seed = c.args.get("n_projections", 32), c.args.get("seed", 0)
    for cloud in (X, Y):
        key = _cloud_key(cloud)
        tr.projections.update((key, seed, n_proj, j) for j in range(n_proj))


def _w1(tr, c):
    tr.counts["metrics.sorts"] += 2
    if not c.inline:
        tr.projections.update({(_cloud_key(c.args["a"]),),
                               (_cloud_key(c.args["b"]),)})


@dataclass(frozen=True)
class Target:
    """``attr`` in ``retrodiff.<module>``, as ``name`` or ``Class.name``.

    ``span=False`` keeps only a call counter.  Calls made while a span in
    ``inline_under`` is open add counts but no span, so their time stays in
    that span's self time.
    """

    module: str
    attr: str
    name: str
    span: bool = True
    hook: callable = None
    inline_under: tuple = ()


TARGETS = [
    Target("cli", "main", "cli"),
    Target("forward", "export_snapshots_csv", "forward.export", hook=_export),
    Target("forward", "euler_maruyama_path", "forward.em", hook=_em),
    Target("forward", "sample_initial", "forward"),
    Target("forward", "empirical_moments", "forward"),
    Target("forward", "check_moment_bound", "forward"),
    Target("reversal", "simulate_reversal_analytic", "reversal", hook=_reversal),
    Target("reversal", "simulate_reversal_selfconsistent", "reversal",
           hook=_reversal),
    Target("reversal", "check_integrability_proxy", "reversal"),
    Target("reversal", "export_diagnostics_csv", "reversal"),
    Target("reversal", "verify_representation", "reversal.verify"),
    Target("distributions", "GaussianMixture.score", "distributions.score",
           hook=_score),
    Target("density", "KdeField.__init__", "density.field_builds", span=False),
    Target("density", "KdeField.log_density_and_score", "density.exact",
           hook=_exact),
    Target("density", "KdeField.binned_log_density_and_score",
           "density.binned", hook=_binned),
    Target("ou_analytic", "OUAnalytic.__init__", "ou_analytic.build"),
    Target("ou_analytic", "analytic", "ou_analytic.analytic", span=False),
    Target("ou_analytic", "fourier_ode_solve", "ou_analytic.fourier_ode",
           hook=_fourier_ode),
    *(Target("ou_analytic", f, "ou_analytic")
      for f in ("consistency_triangle", "make_fourier_solution", "ou_marginal",
                "fourier_invert_terminal", "ou_reversal_drift",
                "gaussian_bound_check")),
    *(Target("resolvents", f, "resolvents", hook=_resolvents)
      for f in ("solve_resolvent", "solve_adjoint_resolvent",
                "solve_adjoint_resolvent_inverse", "compute_ou_covariance")),
    Target("models", "OUModel.C", "models.C", span=False),
    Target("models", "OUModel.Sigma", "models.Sigma", span=False),
    Target("metrics", "sliced_wasserstein1", "metrics.sliced", hook=_sliced),
    Target("metrics", "wasserstein1", "metrics.w1", hook=_w1,
           inline_under=("metrics.sliced",)),
    Target("metrics", "ks_statistic", "metrics.ks"),
    Target("metrics", "ks_two_sample", "metrics.ks"),
    Target("metrics", "energy_distance_nd", "metrics.energy"),
    Target("inverse", "injectivity_probe", "inverse", hook=_probe),
    *(Target("inverse", f, "inverse")
      for f in ("reconstruct_dirac_search", "reconstruct_dirac_affine",
                "reconstruct_dirac_affine_mc", "heat_initial_transform",
                "extract_source_location")),
    Target("streams", "substream", "streams.substream"),
]


def _wrap(tracer, target, fn):
    calls = target.name + ".calls"
    if not target.span:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[calls] += 1
            return fn(*args, **kwargs)
        return counted

    sig = inspect.signature(fn) if target.hook else None

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        inline = tracer.top() in target.inline_under
        idx = -1 if inline else tracer.open(target.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            if idx >= 0:
                tracer.close(idx)
        tracer.counts[calls] += 1
        if target.hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            duration = 0.0 if inline else tracer.ends[idx] - tracer.starts[idx]
            target.hook(tracer, Call(bound.arguments, result, idx, inline,
                                     duration))
        return result
    return spanned


def install(tracer, targets=TARGETS):
    """Wrap every target at every binding site; returns a function that undoes it."""
    owners = {t.module: importlib.import_module("retrodiff." + t.module)
              for t in targets}
    modules = [m for n, m in list(sys.modules.items())
               if n == "retrodiff" or n.startswith("retrodiff.")]
    undo = []
    for t in targets:
        cls_name, _, attr = t.attr.rpartition(".")
        if cls_name:
            cls = getattr(owners[t.module], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, t, original))
            continue
        original = getattr(owners[t.module], attr)
        wrapper = _wrap(tracer, t, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, name, original))
                    setattr(m, name, wrapper)

    def uninstall():
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)

    return uninstall


# --- per-layer metrics ------------------------------------------------------

# (name, unit); every workload reports all of them, zero where a layer is idle
LAYER_METRICS = [
    ("cli.self_s", "s"),
    ("forward.export.self_s", "s"),
    ("forward.export.rows", "count"),
    ("forward.export.bytes", "B"),
    ("reversal.self_s", "s"),
    ("reversal.particle_steps", "count"),
    ("reversal.particle_steps_per_s", "1/s"),
    ("reversal.verify.self_s", "s"),
    ("reversal.clip_events", "count"),
    ("reversal.vacuum_events", "count"),
    ("distributions.score.self_s", "s"),
    ("distributions.score.calls", "count"),
    ("distributions.score.rows", "count"),
    ("density.exact.self_s", "s"),
    ("density.exact.calls", "count"),
    ("density.exact.kernel_evals", "count"),
    ("density.binned.self_s", "s"),
    ("density.binned.calls", "count"),
    ("density.binned.grid_points", "count"),
    ("density.field_builds", "count"),
    ("ou_analytic.self_s", "s"),
    ("ou_analytic.build.self_s", "s"),
    ("ou_analytic.build.calls", "count"),
    ("ou_analytic.cache_hit_ratio", "ratio"),
    ("ou_analytic.fourier_ode.self_s", "s"),
    ("ou_analytic.fourier_ode.rk4_steps", "count"),
    ("ou_analytic.fourier_ode.useful_ratio", "ratio"),
    ("resolvents.self_s", "s"),
    ("resolvents.calls", "count"),
    ("resolvents.rk4_steps", "count"),
    ("models.C.calls", "count"),
    ("models.Sigma.calls", "count"),
    ("metrics.sliced.self_s", "s"),
    ("metrics.sliced.calls", "count"),
    ("metrics.w1.self_s", "s"),
    ("metrics.w1.calls", "count"),
    ("metrics.ks.self_s", "s"),
    ("metrics.energy.self_s", "s"),
    ("metrics.sort_useful_ratio", "ratio"),
    ("forward.self_s", "s"),
    ("forward.em.self_s", "s"),
    ("forward.em.calls", "count"),
    ("forward.em.particle_steps", "count"),
    ("forward.em.particle_steps_per_s", "1/s"),
    ("inverse.self_s", "s"),
    ("inverse.probe.pairs", "count"),
    ("streams.substream.self_s", "s"),
    ("streams.substream.calls", "count"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("checks.error_ratio", "ratio"),
    ("checks.fail_rate", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def run_metrics(tracer):
    """Per-layer values of the current run, before the trace.* and checks.* ones."""
    c = tracer.counts
    own = tracer.self_times()
    out = {f"{name}.self_s": s for name, s in own.items()}
    out.update({k: v for k, v in c.items() if k.endswith(".calls")})
    for key in ("forward.export.rows", "forward.export.bytes",
                "reversal.particle_steps", "reversal.clip_events",
                "reversal.vacuum_events", "distributions.score.rows",
                "density.exact.kernel_evals", "density.binned.grid_points",
                "ou_analytic.fourier_ode.rk4_steps", "resolvents.rk4_steps",
                "forward.em.particle_steps", "inverse.probe.pairs"):
        out[key] = c[key]
    out["density.field_builds"] = c["density.field_builds.calls"]
    out["reversal.particle_steps_per_s"] = _ratio(c["reversal.particle_steps"],
                                                  c["reversal.loop_s"])
    out["forward.em.particle_steps_per_s"] = _ratio(
        c["forward.em.particle_steps"], c["forward.em.loop_s"])
    out["ou_analytic.cache_hit_ratio"] = _ratio(
        c["ou_analytic.analytic.calls"] - c["ou_analytic.build.calls"],
        c["ou_analytic.analytic.calls"])
    needed = sum(max(g) for g in tracer.ode_groups.values())
    out["ou_analytic.fourier_ode.useful_ratio"] = _ratio(
        needed, c["ou_analytic.fourier_ode.rk4_steps"])
    out["metrics.sort_useful_ratio"] = _ratio(len(tracer.projections),
                                              c["metrics.sorts"])
    return out


def median_metrics(runs):
    """Median of each metric over several runs (counts repeat exactly)."""
    names = [n for n, _ in LAYER_METRICS]
    return {n: statistics.median(r.get(n, 0.0) for r in runs) for n in names}
