"""Timed and traced runs of one workload, and the result they print.

A run generates the workload's inputs from the seed once, then repeats the
workload on them until the time is up.  Every iteration is timed from the
generated inputs to the checked outputs; its determinism digest is taken
afterwards, untimed, and its output directory is removed.  Set-up (interpreter
start, imports, input generation) is timed separately in fresh
interpreters.  A traced run alternates untraced and traced iterations, so
the tracing overhead is measured on the same inputs and across the same
spells of machine speed.

The host's speed changes in spells of a quarter or more that outlast a
run, so the reported ``wall_s`` and ``setup_s`` are taken at a nominal
machine speed: a fixed reference computation (``bench/reference.py``) is
timed right before and right after every timed iteration and set-up, and
each time is scaled by the reference's nominal time over the mean of those
two.  The raw times are printed and recorded beside them.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy

from bench import reference
from bench import tracer as tr
from bench import workloads

SETUP_REPS = 5
MIN_ITERATIONS = 2
OUT_DIR = ".bench_out"


@dataclass
class Iteration:
    wall: float
    result: object          # workloads.Result, or None when the run raised
    error: str
    digest: str
    layers: dict = None     # per-layer metrics of a traced iteration


def blas_threads():
    """BLAS threads in effect, read from numpy's bundled OpenBLAS if present."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(out_dir):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "thread_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_effect": blas_threads(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "output_dir": out_dir,
    }


def normalise(times, refs):
    """Each time at the nominal machine speed.

    ``refs[i]`` and ``refs[i + 1]`` are the reference passes timed just
    before and just after ``times[i]``.
    """
    return [t * 2.0 * reference.NOMINAL_S / (a + b)
            for t, a, b in zip(times, refs, refs[1:])]


def measure_setup(root, name, seed, size):
    """Wall times of fresh interpreters that import and generate the inputs,
    and the reference passes timed around them (one more than the times).

    The full size sets up ``SETUP_REPS`` times; the tiny size used by the
    benchmark's own tests once.
    """
    reps = SETUP_REPS if size == "full" else 1
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "from bench import workloads as w; "
            "w.WORKLOADS[sys.argv[3]].generate(int(sys.argv[4]), "
            "w.SIZES[sys.argv[5]][sys.argv[3]])")
    argv = [sys.executable, "-c", code, os.path.join(root, "src"), root,
            name, str(seed), size]
    times, refs = [], [reference.run_once()]
    for _ in range(reps):
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which would round every time up to that step.
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=root, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        refs.append(reference.run_once())
    return times, refs


def iterate(workload, inputs, out_root, tracer=None):
    out_dir = tempfile.mkdtemp(prefix=workload.name + "-", dir=out_root)
    result, error, digest = None, None, None
    try:
        if tracer is not None:
            tracer.begin_run()
        t0 = time.perf_counter()
        root = tracer.open("bench") if tracer is not None else -1
        try:
            result = workload.run(inputs, out_dir)
        except Exception:  # a run that raises is a failed check, not a crash
            error = traceback.format_exc()
        finally:
            if root >= 0:
                tracer.close(root)
        wall = time.perf_counter() - t0
        if result is not None:
            digest = workloads.digest(result.artifacts)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    it = Iteration(wall, result, error, digest)
    if tracer is not None:
        it.layers = tr.run_metrics(tracer)
        it.layers["trace.wall_s"] = wall
        # Only the harness's own gap around the "bench" root span: library
        # calls that are not wrapped count in their caller's self time.
        root_span = tracer.ends[root] - tracer.starts[root]
        it.layers["trace.unattributed_s"] = wall - root_span
    return it


def tail_percentile(samples):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def describe(name, samples, unit):
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_s = (f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail else
              "no percentile has 10 samples beyond it")
    return f"{name}: median {med:.6g} {unit}, {tail_s}, n={len(samples)}"


def tally(iterations):
    """(attempted, failed, worst error ratio) over all checks of all iterations.

    Completion of the run is itself a check, so a run that raised counts
    as one failed check.
    """
    attempted = failed = 0
    worst = 0.0
    for it in iterations:
        attempted += 1
        if it.result is None:
            failed += 1
            worst = max(worst, 1.0)
            continue
        for c in it.result.checks:
            attempted += 1
            failed += not c.passed
            worst = max(worst, c.ratio)
    return attempted, failed, worst


def run(name, seed, seconds, trace, root, size="full"):
    """Run one workload; returns the result object printed as the last line.

    ``root`` is the checkout (its ``src`` and ``bench`` are imported by the
    set-up interpreters); outputs and records go under ``<root>/.bench_out``.
    """
    workload = workloads.WORKLOADS[name]
    out_root = os.path.join(root, OUT_DIR)
    os.makedirs(out_root, exist_ok=True)
    env = environment(os.path.relpath(out_root, root))
    print(f"# workload {name} seed {seed}: {workload.why}")
    print("# environment " + json.dumps(env, sort_keys=True))

    setup, setup_refs = ([], []) if trace else measure_setup(root, name,
                                                             seed, size)
    inputs = workload.generate(seed, workloads.SIZES[size][name])

    end = time.perf_counter() + seconds
    plain, traced, refs = [], [], []
    if trace:
        tracer = tr.Tracer()
        while not traced or time.perf_counter() < end:
            plain.append(iterate(workload, inputs, out_root))
            print(_iteration_line(len(plain), plain[-1]))
            uninstall = tr.install(tracer)
            try:
                traced.append(iterate(workload, inputs, out_root, tracer))
            finally:
                uninstall()
            print(_iteration_line(len(traced), traced[-1], "traced "))
    else:
        refs.append(reference.run_once())
        while len(plain) < MIN_ITERATIONS or time.perf_counter() < end:
            plain.append(iterate(workload, inputs, out_root))
            refs.append(reference.run_once())
            print(_iteration_line(len(plain), plain[-1]) +
                  f", reference {refs[-1]:.4f} s")

    iterations = plain + traced
    attempted, failed, worst = tally(iterations)
    digests = sorted({it.digest for it in iterations if it.digest})
    walls = [it.wall for it in plain]
    norm_walls = normalise(walls, refs)
    norm_setup = normalise(setup, setup_refs)
    print("# " + describe("raw wall", walls, "s"))
    if not trace:
        print("# " + describe("reference", refs + setup_refs, "s") +
              f" (nominal {reference.NOMINAL_S:g} s)")
        print("# " + describe("wall_s", norm_walls, "s"))
        print("# " + describe("raw setup", setup, "s"))
        print("# " + describe("setup_s", norm_setup, "s"))
    print(f"# checks: fail_rate {failed}/{attempted}, error_ratio {worst:.6g}")
    for c in (iterations[-1].result.checks if iterations[-1].result else []):
        print(f"#   {c.name}: {c.error:.6g} vs {c.tolerance:.6g} "
              f"{'pass' if c.passed else 'FAIL'}")
    if iterations[-1].result is not None:
        print("# figures " + json.dumps(iterations[-1].result.figures,
                                        sort_keys=True))
    for it in iterations:
        if it.error:
            print("# run failed:\n# " + it.error.rstrip().replace("\n", "\n# "))
    print(f"# determinism: {len(digests)} distinct digest(s) over "
          f"{len(iterations)} runs: {' '.join(digests)}")

    if trace:
        layers = tr.median_metrics([it.layers for it in traced])
        layers["trace.overhead_ratio"] = (layers["trace.wall_s"]
                                          / statistics.median(walls) - 1.0)
        layers["checks.error_ratio"] = worst
        layers["checks.fail_rate"] = failed / attempted
        _log_accounting(layers)
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u in tr.LAYER_METRICS}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(norm_walls), "unit": "s"},
            "setup_s": {"value": statistics.median(norm_setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    _write_record(out_root, name, seed, trace, {
        "workload": name, "seed": seed, "trace": trace, "environment": env,
        "digests": digests, "deterministic": len(digests) <= 1,
        "raw_wall_s": walls, "raw_setup_s": setup,
        "reference_s": refs, "setup_reference_s": setup_refs,
        "wall_s": norm_walls, "setup_s": norm_setup,
        "traced_wall_s": [it.wall for it in traced],
        "attempted": attempted, "failed": failed, "error_ratio": worst,
        "figures": iterations[-1].result.figures if iterations[-1].result else None,
        "metrics": metrics,
    }, tracer.spans() if trace else None)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _iteration_line(k, it, kind=""):
    state = "raised" if it.error else (
        "pass" if all(c.passed for c in it.result.checks) else "FAIL")
    return f"# {kind}iteration {k}: {it.wall:.4f} s, checks {state}"


def _log_accounting(layers):
    wall = layers["trace.wall_s"]
    selfs = sorted(((n, v) for n, v in layers.items() if n.endswith(".self_s")),
                   key=lambda kv: -kv[1])
    print(f"# traced wall {wall:.4f} s; self time by layer "
          "(layers + bench + unattributed = traced wall; library calls "
          "that are not wrapped count in their caller's self time):")
    for n, v in selfs:
        if v > 0:
            print(f"#   {n:34s} {v:10.4f} s {100 * v / wall:6.2f} %")
    print(f"#   {'unattributed (harness gap only)':34s} "
          f"{layers['trace.unattributed_s']:10.4f} s")
    print(f"# tracing overhead {100 * layers['trace.overhead_ratio']:.2f} % "
          "of the untraced median wall")


def _write_record(out_root, name, seed, trace, record, spans):
    rec_dir = os.path.join(out_root, "records")
    os.makedirs(rec_dir, exist_ok=True)
    stem = os.path.join(rec_dir, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run"],
                       "spans": spans}, fh)
