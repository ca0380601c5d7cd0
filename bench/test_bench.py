"""The benchmark's own tests, on tiny sizes.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
import os

import numpy as np
import pytest

import retrodiff as rd
from bench import harness, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(name, trace):
    return harness.run(name, seed=3, seconds=0, trace=trace, root=ROOT,
                       size="tiny")


@pytest.fixture(scope="module")
def results():
    return {(name, trace): _run(name, trace)
            for name in workloads.WORKLOADS for trace in (False, True)}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        tracer.LAYER_METRICS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(results, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        res = results[name, trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        assert got == want
        for m in res["metrics"].values():
            assert isinstance(m["value"], (int, float))


# layer counters that must be non-zero, and those predicted to be zero
EXPECTED = {
    "reverse-batch": (
        ["forward.export.rows", "forward.export.bytes", "cli.self_s",
         "reversal.particle_steps", "reversal.verify.self_s",
         "distributions.score.calls", "ou_analytic.build.calls",
         "resolvents.calls", "models.C.calls", "metrics.ks.self_s",
         "streams.substream.calls"],
        ["density.exact.calls", "density.binned.calls", "density.field_builds",
         "metrics.sliced.calls", "forward.em.calls"]),
    "reverse-kde": (
        ["density.exact.calls", "density.exact.kernel_evals",
         "density.binned.calls", "density.binned.grid_points",
         "density.field_builds", "reversal.particle_steps",
         "metrics.energy.self_s", "metrics.w1.calls",
         "streams.substream.calls"],
        ["forward.export.rows", "metrics.sliced.calls", "forward.em.calls",
         "cli.self_s"]),
    "recover": (
        ["ou_analytic.build.calls", "ou_analytic.fourier_ode.rk4_steps",
         "resolvents.rk4_steps", "models.C.calls", "models.Sigma.calls",
         "metrics.sliced.calls", "metrics.w1.calls", "forward.em.calls",
         "forward.em.particle_steps", "inverse.probe.pairs",
         "streams.substream.calls"],
        ["density.exact.calls", "density.binned.calls", "density.field_builds",
         "forward.export.rows", "reversal.particle_steps"]),
}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_layer_wrappers_see_their_workload(results, name):
    metrics = results[name, True]["metrics"]
    busy, idle = EXPECTED[name]
    assert [k for k in busy if not metrics[k]["value"] > 0] == []
    assert [k for k in idle if metrics[k]["value"] != 0] == []


def test_install_covers_every_binding_and_uninstalls():
    originals = {id(rd.sliced_wasserstein1), id(rd.substream),
                 id(rd.euler_maruyama_path)}
    undo = tracer.install(tracer.Tracer())
    try:
        import retrodiff.inverse as inv
        import retrodiff.reversal as rev

        assert id(inv.sliced_wasserstein1) not in originals
        assert id(inv.euler_maruyama_path) not in originals
        assert id(rev.substream) not in originals
    finally:
        undo()
    import retrodiff.inverse as inv

    assert id(inv.sliced_wasserstein1) in originals


def test_binned_grid_points_match_the_library(monkeypatch):
    # G is the length of the density grid the library bins the sources on
    seen = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        seen.append(minlength - 1)
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    # a cloud stretched over many bandwidths makes the grid rule double G
    field = rd.KdeField(np.linspace(0.0, 500.0, 50)[:, None], 0.1)
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        field.binned_log_density_and_score(np.zeros((3, 1)))
    finally:
        undo()
    assert seen[0] > 4096
    assert t.counts["density.binned.grid_points"] == seen[0]


@pytest.mark.parametrize("name, value", [("W1_MAX", 1e-12),
                                         ("STD_FACTOR", 1.0 + 1e-12)])
def test_missed_tolerance_raises_fail_rate(monkeypatch, name, value):
    monkeypatch.setattr(workloads, name, value)
    res = _run("reverse-kde", False)
    assert not res["correct"]
    assert res["failed"] >= 2  # the check fails in each of two runs


def test_run_that_raises_is_a_failed_check(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("vacuum")

    monkeypatch.setattr(rd, "simulate_reversal_selfconsistent", broken)
    res = _run("reverse-kde", True)
    assert res["failed"] == res["attempted"] == 2
    assert res["metrics"]["checks.fail_rate"]["value"] == 1.0


def test_times_are_scaled_to_the_nominal_machine_speed():
    nominal = harness.reference.NOMINAL_S
    # a time taken while the reference ran at half speed counts half
    assert harness.normalise([3.0, 1.0], [nominal, 2 * nominal, 2 * nominal]) \
        == pytest.approx([2.0, 0.5])
    assert harness.reference.run_once() > 0
