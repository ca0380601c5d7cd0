"""Batch runner: config validation, emitted files, exit codes, rerun bytes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from retrodiff.cli import _ALLOWED_KEYS, main


def write_config(path, body):
    path.write_text(body)
    return str(path)


HEAT_FORWARD = """
[model]
family = heat
dim = 1

[grid]
t_end = 1.0
n_steps = 200

[run]
seed = 5
particles = 2000
init = dirac:0

[output]
directory = {out}
"""


def assert_phase_seconds(out, names=("export", "simulate", "verify")):
    meta = json.loads((out / "metadata.json").read_text())
    phases = meta["phase_seconds"]
    assert sorted(phases) == sorted(names)
    assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())
    # the BLAS thread count in effect, None without a bundled OpenBLAS
    threads = meta["blas_threads"]
    assert threads is None or (type(threads) is int and threads >= 1)
    # the processes that formatted snapshots.csv, on the commands that write it
    procs = meta["export_processes"]
    if "export" in names:
        assert type(procs) is int and 1 <= procs <= os.cpu_count()
    else:
        assert procs is None
    report = (out / "report.json").read_text()
    assert all(key not in report for key in
               ("phase_seconds", "blas_threads", "export_processes"))


# the phases of ou-verify, invert, moment-check and injectivity
COMPUTE_CHECK = ("check", "compute")


def assert_rerun_report_identical(command, cfg, out):
    first = (out / "report.json").read_bytes()
    assert main([command, "--config", cfg, "--force"]) in (0, 1)
    assert (out / "report.json").read_bytes() == first


def test_forward_emits_files_and_passes(tmp_path):
    cfg = write_config(tmp_path / "c.ini",
                       HEAT_FORWARD.format(out=tmp_path / "out"))
    assert main(["forward", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "snapshots.csv").exists()
    assert_phase_seconds(out)
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["spec_version"]
    assert abs(report["terminal_cov"][0][0] - 1.0) < 0.15


def test_missing_seed_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.ini", """
[model]
family = heat

[run]
particles = 100
init = dirac:0
""")
    assert main(["forward", "--config", cfg]) == 2


@pytest.mark.parametrize("key, extra", [
    pytest.param("run.walrus", "walrus = 3\n", id="run.walrus"),
    # accepted once, but no command ever read it
    pytest.param("thresholds.recovery_tolerance",
                 "\n[thresholds]\nrecovery_tolerance = 0.05\n",
                 id="thresholds.recovery_tolerance"),
])
def test_unknown_key_rejected(tmp_path, capsys, key, extra):
    cfg = write_config(tmp_path / "c.ini", """
[model]
family = heat

[run]
seed = 1
init = dirac:0
""" + extra)
    assert main(["forward", "--config", cfg]) == 2
    assert key in capsys.readouterr().err


def test_malformed_config_reports_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.ini", "model]\nfamily - heat\n")
    assert main(["forward", "--config", cfg]) == 2
    assert "malformed config" in capsys.readouterr().err


HEAT = "family = heat"
HEAT_2D = "family = heat\ndim = 2"
PIECEWISE = "family = piecewise\nbreakpoints = 0 0.5 1\nrates = 0 0\nsigmas = 1 1"


@pytest.mark.parametrize("command, model, run, extra, unread", [
    pytest.param("forward", HEAT, "init = dirac:0",
                 "\n[thresholds]\nks_max = 1e-9\n", ["thresholds.ks_max"],
                 id="forward-threshold"),
    pytest.param("forward", HEAT + "\nc = 1",
                 "init = dirac:0", "", ["model.c"], id="heat-model.c"),
    pytest.param("invert", HEAT,
                 "route = mean-ode\nterminal_mean = 0",
                 "\n[thresholds]\nsearch_tolerance = 0.1\n",
                 ["thresholds.search_tolerance"], id="mean-ode-search-tolerance"),
    # every allowed key here is one that forward does not read
    pytest.param("forward", HEAT + "\nc = 1",
                 "init = dirac:0\nmu = dirac:0\nbandwidth = 0.1",
                 "\n[thresholds]\nks_max = 1e-9\ntriangle_max_error = 1e-30\n",
                 ["model.c", "run.mu", "run.bandwidth", "thresholds.ks_max",
                  "thresholds.triangle_max_error"], id="forward-five-keys"),
    # a self-consistent reverse checks its clouds against closed-form
    # marginals only for an ou/heat model with a source: else it verifies
    # nothing and reads neither run.nu nor thresholds.ks_max
    pytest.param("reverse", "family = sin-drift",
                 "mode = self-consistent\nnu = dirac:0.3\nmu = gaussian:0,1",
                 "\n[thresholds]\nks_max = 0.0001\n",
                 ["run.nu", "thresholds.ks_max"], id="reverse-non-ou-nu"),
    pytest.param("reverse", HEAT, "mode = self-consistent\nmu = gaussian:0,1",
                 "\n[thresholds]\nks_max = 0.0001\n", ["thresholds.ks_max"],
                 id="reverse-ou-without-nu"),
])
def test_unread_keys_exit_2_before_any_output(tmp_path, capsys, command, model,
                                               run, extra, unread):
    # an allowed key that the command ignores would pass unchecked: a
    # threshold it never tests must not read as a passed threshold
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
{model}

[grid]
n_steps = 20

[run]
seed = 1
{run}

[output]
directory = {tmp_path / "out"}
""" + extra)
    assert main([command, "--config", cfg]) == 2
    assert f"does not read {', '.join(unread)}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, model, t_end, run, message", [
    pytest.param("invert", HEAT, 1, "route = mean-ode\nterminal_mean = 0 abc",
                 "run.terminal_mean", id="vector-literal"),
    pytest.param("forward", "family = heat\ndim = two", 1, "init = dirac:0",
                 "model.dim", id="integer-literal"),
    pytest.param("forward", HEAT, 1, "init = gaussian:0,abc", "run.init",
                 id="variance-literal"),
    pytest.param("forward", "family = piecewise\nbreakpoints = 0 0.6 0.5 1\n"
                 "rates = 0 0 0\nsigmas = 1 1 1", 1, "init = dirac:0",
                 "strictly increasing", id="breakpoints-order"),
    pytest.param("forward", PIECEWISE, 2, "init = dirac:0", "horizon",
                 id="breakpoints-horizon"),
    pytest.param("invert", "family = sin-drift", 1,
                 "route = fourier\nx0 = 0.5", "ou/heat model",
                 id="fourier-needs-ou"),
    # a literal whose dimension differs from the model's
    pytest.param("forward", HEAT, 1, "init = dirac:", "run.init",
                 id="empty-init"),
    pytest.param("forward", HEAT_2D, 1, "init = gaussian:0,1", "run.init",
                 id="init-dimension"),
    pytest.param("reverse", HEAT_2D, 1, "mu = dirac:0 0 0", "run.mu",
                 id="mu-dimension"),
    pytest.param("reverse", HEAT_2D, 1, "mu = gaussian:0 0,1\nnu = dirac:0",
                 "run.nu", id="nu-dimension"),
    pytest.param("ou-verify", HEAT_2D, 1, "nu = dirac:0", "run.nu",
                 id="ou-verify-nu-dimension"),
    pytest.param("invert", HEAT_2D, 1,
                 "route = search\nx0 = 0.5 0.5\ncandidates = 0 0.5 1",
                 "run.candidates", id="search-candidates-dimension"),
    pytest.param("invert", HEAT_2D, 1, "route = search\nx0 = 0.5\n"
                 "candidates = 0 0.5 1", "run.x0", id="search-x0-dimension"),
    pytest.param("invert", HEAT_2D, 1, "route = mean-ode-mc\nx0 = 0.5",
                 "run.x0", id="mc-x0-dimension"),
    pytest.param("invert", HEAT, 1, "route = fourier\nx0 = 0.5 1",
                 "run.x0", id="fourier-x0-dimension"),
    pytest.param("invert", HEAT_2D, 1, "route = mean-ode\nterminal_mean = 1",
                 "run.terminal_mean", id="terminal-mean-dimension"),
    pytest.param("moment-check", HEAT_2D, 1, "x = 0\ny = 1 1", "run.x",
                 id="moment-x-dimension"),
    pytest.param("moment-check", HEAT_2D, 1, "x = 0 0\ny = 1", "run.y",
                 id="moment-y-dimension"),
    pytest.param("injectivity", HEAT_2D, 1, "candidates = 0 1",
                 "run.candidates", id="injectivity-candidates-dimension"),
    pytest.param("injectivity", "family = heat\ndim = 3", 1,
                 "candidate_box = -1 1 3", "run.candidate_box",
                 id="candidate-box-dimension"),
    pytest.param("injectivity", HEAT, 1, "candidate_box = -1 1 1",
                 "run.candidate_box", id="candidate-box-single"),
    pytest.param("injectivity", HEAT, 1, "candidate_box = -1 1 2.5",
                 "run.candidate_box", id="candidate-box-fraction"),
    # settings the library would reject with a traceback, or misuse
    pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                 "mode = backwards", "run.mode", id="unknown-mode"),
    pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                 "epsilon_stop = 1.5", "run.epsilon_stop",
                 id="epsilon-stop-past-horizon"),
    pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                 "epsilon_stop = 0.95", "run.epsilon_stop",
                 id="epsilon-stop-no-step"),
    *(pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                   f"drift_clip = {v}", "run.drift_clip", id=f"drift-clip-{v}")
      for v in ("-1", "0", "nan")),
    *(pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\n"
                   f"mode = self-consistent\nbandwidth = {v}", "run.bandwidth",
                   id=f"bandwidth-{v}") for v in ("-0.1", "0")),
    # the probe has one distance, sliced W1: no key chooses it
    pytest.param("injectivity", HEAT, 1, "candidates = 0 1\nmetric = energy",
                 "unknown key run.metric", id="injectivity-metric"),
    pytest.param("forward", HEAT, 1, "init = dirac:0\nstore_full = maybe",
                 "run.store_full", id="store-full-boolean"),
    # choices other than store_full's booleans are exact
    pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                 "mode = Analytic", "run.mode", id="mode-case"),
    pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                 "drift_clip = None", "run.drift_clip", id="drift-clip-None"),
    # read with the other settings, before the run writes anything
    pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                 "[thresholds]\nks_max = -1", "thresholds.ks_max",
                 id="ks-max-negative"),
    # every number is finite
    pytest.param("reverse", "family = heat\nscale = nan", 1,
                 "mu = gaussian:0,1\nnu = dirac:0", "model.scale",
                 id="scale-nan"),
    pytest.param("forward", "family = affine\nb0 = 0\nb1 = 0\n"
                 "sigma_value = nan", 1, "init = dirac:0", "model.sigma_value",
                 id="sigma-value-nan"),
    pytest.param("forward", "family = affine\nb0 = 0\nb1 = inf", 1,
                 "init = dirac:0", "model.b1", id="matrix-inf"),
    pytest.param("forward", HEAT, 1, "init = dirac:nan", "run.init",
                 id="point-nan"),
    pytest.param("forward", HEAT, 1, "init = gaussian:0,inf", "run.init",
                 id="variance-inf"),
    pytest.param("injectivity", HEAT, 1, "candidates = 0", "run.candidates",
                 id="injectivity-single-candidate"),
    # models the library refuses
    pytest.param("forward", "family = affine\nb0 = 0 0\nb1 = 1 2 3", 1,
                 "init = dirac:0 0", "b1 has shape (1, 3)",
                 id="affine-b1-shape"),
    pytest.param("forward", "family = ou\nc = -1 0; 0 -1\nsigma = 1", 1,
                 "init = dirac:0 0", "ou family: sigma has shape (1, 1)",
                 id="ou-sigma-rows"),
    pytest.param("forward", "family = ou\nc = -1 0; 0 -1\n"
                 "sigma = 1 0; 0 1; 1 1", 1, "init = dirac:0 0",
                 "ou family: sigma has shape (3, 2)", id="ou-sigma-three-rows"),
    pytest.param("forward", "family = ou\nc = -1 0\nsigma = 1", 1,
                 "init = dirac:0", "ou family: C has shape (1, 2)",
                 id="ou-c-not-square"),
    *(pytest.param("forward", f"family = heat\ndim = {d}", 1, "init = dirac:",
                   "dimension must be at least 1", id=f"heat-dim-{d}")
      for d in ("0", "-1")),
    # dispersions the reversal cannot use, and a setting it would ignore
    pytest.param("reverse", "family = heat\nscale = 0", 1,
                 "mu = gaussian:0,1\nnu = dirac:0", "model.scale",
                 id="heat-scale-0"),
    pytest.param("reverse", "family = affine\nb0 = 0\nb1 = 0\n"
                 "sigma_value = 0", 1, "mu = gaussian:0,1\n"
                 "mode = self-consistent", "model.sigma_value",
                 id="affine-sigma-value-0"),
    pytest.param("reverse", HEAT, 1, "mu = gaussian:0,1\nnu = dirac:0\n"
                 "bandwidth = 0.1", "run.bandwidth", id="bandwidth-analytic"),
    # a kernel estimate of a point mass does not exist
    pytest.param("reverse", HEAT, 1, "mu = dirac:0\nmode = self-consistent",
                 "run.mu has no density", id="selfconsistent-point-mass-mu"),
])
def test_configuration_errors_exit_2(tmp_path, capsys, command, model, t_end,
                                     run, message):
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
{model}

[grid]
t_end = {t_end}
n_steps = 10

[run]
seed = 1
particles = 100
{run}

[output]
directory = {tmp_path / "out"}
""")
    assert main([command, "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, run", [
    pytest.param("forward", "init = dirac:0", id="forward"),
    pytest.param("invert", "route = mean-ode-mc\nx0 = 0.5", id="mean-ode-mc"),
    pytest.param("invert", "route = search\nx0 = 0.5\ncandidates = 0 1",
                 id="search"),
    pytest.param("reverse", "mu = gaussian:0,1\nnu = dirac:0", id="reverse"),
])
def test_one_particle_exits_2(tmp_path, capsys, command, run):
    # a spread, a standard error or a cloud distance needs two particles
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = heat

[grid]
n_steps = 10

[run]
seed = 1
particles = 1
{run}

[output]
directory = {tmp_path / "out"}
""")
    assert main([command, "--config", cfg]) == 2
    assert "run.particles" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, run", [
    # sigma sigma^T is singular, but Q(t) > 0 for t > 0
    pytest.param("family = ou\nc = 0 1; 0 0\nsigma = 0 0; 0 1",
                 "mu = gaussian:0 0,1\nnu = dirac:0 0", id="hypoelliptic-ou"),
    # sigma sigma^T = 2.5e-9, below the self-consistent mode's 1e-8
    pytest.param("family = heat\nscale = 5e-5",
                 "mu = gaussian:0,2.5e-9\nnu = dirac:0",
                 id="heat-small-scale"),
    # sigma is not square: the drift sees it only through sigma sigma^T
    pytest.param("family = ou\nc = -1\nsigma = 1 0.5",
                 "mu = gaussian:0,1\nnu = dirac:0", id="ou-sigma-not-square"),
    pytest.param("family = ou\nc = 0 1; 0 -1\nsigma = 0; 1",
                 "mu = gaussian:0 0,1\nnu = dirac:0 0", id="ou-sigma-2x1"),
])
def test_analytic_reverse_runs_where_the_marginal_has_a_density(
        tmp_path, model, run):
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
{model}

[grid]
n_steps = 20

[run]
seed = 1
particles = 200
{run}

[output]
directory = {tmp_path / "out"}
""")
    assert main(["reverse", "--config", cfg]) in (0, 1)
    assert (tmp_path / "out" / "report.json").exists()


def test_seed_past_the_float_range_runs(tmp_path):
    # streams use the seed's low 64 bits, so any non-negative integer works
    body = HEAT_FORWARD.replace("seed = 5", "seed = 1" + "0" * 400)
    cfg = write_config(tmp_path / "c.ini", body.format(out=tmp_path / "out"))
    assert main(["forward", "--config", cfg]) == 0


def test_store_full_reads_configparser_booleans(tmp_path):
    # 400 steps: every node with store_full, else every second one
    body = HEAT_FORWARD.replace("n_steps = 200", "n_steps = 400").replace(
        "particles = 2000", "particles = 100")
    for value, snapshots in (("on", 401), ("off", 201)):
        out = tmp_path / value
        cfg = write_config(tmp_path / f"{value}.ini", body.format(out=out).replace(
            "init = dirac:0", f"init = dirac:0\nstore_full = {value}"))
        assert main(["forward", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_snapshots"] == snapshots


def test_readme_config_block_lists_every_key():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    text = open(readme).read()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    sections = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block,
                               re.M | re.S))
    # every `key =` in the block, comments included, against the CLI's keys:
    # none undocumented and none unknown
    documented = {f"{section}.{key}" for section, body in sections.items()
                  for key in re.findall(r"\b(\w+)\s*=", body)}
    allowed = {f"{section}.{key}" for section, keys in _ALLOWED_KEYS.items()
               for key in keys}
    assert sorted(documented - allowed) == []
    assert sorted(allowed - documented) == []


def test_refuses_overwrite_without_force(tmp_path):
    cfg = write_config(tmp_path / "c.ini",
                       HEAT_FORWARD.format(out=tmp_path / "out"))
    assert main(["forward", "--config", cfg]) == 0
    assert main(["forward", "--config", cfg]) == 2
    assert main(["forward", "--config", cfg, "--force"]) == 0


def test_reports_byte_identical_across_reruns(tmp_path):
    cfg = write_config(tmp_path / "c.ini",
                       HEAT_FORWARD.format(out=tmp_path / "out"))
    assert main(["forward", "--config", cfg]) == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert main(["forward", "--config", cfg, "--force"]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == first


def test_output_override(tmp_path):
    cfg = write_config(tmp_path / "c.ini",
                       HEAT_FORWARD.format(out=tmp_path / "ignored"))
    alt = tmp_path / "elsewhere"
    assert main(["forward", "--config", cfg, "--output", str(alt)]) == 0
    assert (alt / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_threads_flag_rejected(tmp_path, capsys):
    # BLAS threads follow the standard variables set before launch; a flag
    # read after numpy is loaded could only be ignored
    cfg = write_config(tmp_path / "c.ini",
                       HEAT_FORWARD.format(out=tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--config", cfg, "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ou_verify_heat(tmp_path):
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = heat

[grid]
t_end = 1.0
n_steps = 400

[run]
seed = 3

[output]
directory = {tmp_path / "out"}
""")
    assert main(["ou-verify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["max_error"] < 1e-6
    assert_phase_seconds(tmp_path / "out", COMPUTE_CHECK)
    assert_rerun_report_identical("ou-verify", cfg, tmp_path / "out")


def test_ou_verify_default_source_has_the_model_dimension(tmp_path):
    # without run.nu the source is a Dirac mass at the origin of R^d
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
{HEAT_2D}

[grid]
t_end = 1.0
n_steps = 100

[run]
seed = 3

[output]
directory = {tmp_path / "out"}
""")
    assert main(["ou-verify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["max_error"] < 1e-6


def test_reverse_analytic_and_nonexistence_exit(tmp_path):
    base = """
[model]
family = heat

[grid]
t_end = 1.0
n_steps = 500

[run]
seed = 11
particles = 20000
mode = analytic
nu = dirac:0
mu = {mu}
epsilon_stop = 0.01

[thresholds]
ks_max = {ks}

[output]
directory = {out}
"""
    good = write_config(tmp_path / "good.ini",
                        base.format(mu="gaussian:0,1", ks=0.02,
                                    out=tmp_path / "good"))
    assert main(["reverse", "--config", good]) == 0
    rep = json.loads((tmp_path / "good" / "report.json").read_text())
    assert rep["representation_max_stat"] < 0.02
    assert rep["terminal_consistency_warning"] is False
    assert (tmp_path / "good" / "diagnostics.csv").exists()
    assert_phase_seconds(tmp_path / "good")

    # terminal datum not reachable from the point-source class: nonzero exit
    bad = write_config(tmp_path / "bad.ini",
                       base.format(mu="gaussian:0,0.25", ks=0.1,
                                   out=tmp_path / "bad"))
    assert main(["reverse", "--config", bad]) == 1
    rep = json.loads((tmp_path / "bad" / "report.json").read_text())
    assert rep["representation_max_stat"] > 0.1
    assert rep["failed_criteria"] == ["representation_max_stat"]
    assert rep["terminal_consistency_warning"] is True


@pytest.mark.parametrize("dim, point", [(1, "0.2"), (2, "0.2 -0.1")],
                         ids=["1d", "2d"])
def test_reverse_outputs_ignore_the_blas_thread_count(tmp_path, dim, point):
    # the projected KS statistic projects each row on its own, so neither
    # report rounds with the thread count
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = heat
dim = {dim}

[grid]
t_end = 1.0
n_steps = 100

[run]
seed = 12
particles = 4000
mode = analytic
nu = dirac:{point}
mu = gaussian:{point},1
epsilon_stop = 0.05

[thresholds]
ks_max = 0.05
""")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "retrodiff.cli", "reverse",
                        "--config", cfg, "--output", str(out)],
                       env=env, capture_output=True, check=True)
        outputs.append([(out / name).read_bytes() for name in
                        ("report.json", "snapshots.csv", "diagnostics.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("variance, code", [("1.2", 1), ("1", 0)])
def test_reverse_2d_fails_an_unreachable_terminal_law(tmp_path, variance,
                                                      code):
    # N(0, 1.2 I) is not the heat marginal N(0, I) of a point source at 0;
    # the projected KS statistic sees it as the terminal check does
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = heat
dim = 2

[grid]
t_end = 1.0
n_steps = 200

[run]
seed = 2
particles = 20000
mode = analytic
nu = dirac:0 0
mu = gaussian:0 0,{variance}
epsilon_stop = 0.05

[output]
directory = {tmp_path / "out"}
""")
    assert main(["reverse", "--config", cfg]) == code
    (tmp_path / "out" / "snapshots.csv").unlink()  # 240 MB of rows
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (rep["representation_max_stat"] > 0.02) is bool(code)
    assert rep["terminal_consistency_warning"] is bool(code)


def test_reverse_selfconsistent(tmp_path):
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = heat

[grid]
t_end = 1.0
n_steps = 200

[run]
seed = 4
particles = 4000
mode = self-consistent
mu = gaussian:0,1

[output]
directory = {tmp_path / "out"}
""")
    assert main(["reverse", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["terminal_std"][0] < 0.35  # small-n smoke; tight bound in acceptance
    assert_phase_seconds(tmp_path / "out")


def test_invert_routes(tmp_path):
    rot = """
[model]
family = affine
b0 = 0 0
b1 = 0 1; -1 0

[grid]
t_end = 1.5707963267948966
n_steps = 500

[run]
seed = 2
route = mean-ode
terminal_mean = 0 1

[output]
directory = {out}
"""
    cfg = write_config(tmp_path / "rot.ini", rot.format(out=tmp_path / "rot"))
    assert main(["invert", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "rot" / "report.json").read_text())
    assert abs(rep["x_hat"][0] + 1.0) < 1e-6  # expm oracle gives (-1, 0)
    assert abs(rep["x_hat"][1]) < 1e-6
    assert_phase_seconds(tmp_path / "rot", COMPUTE_CHECK)

    search = f"""
[model]
family = heat

[grid]
t_end = 1.0
n_steps = 200

[run]
seed = 6
particles = 20000
route = search
x0 = 0.5
candidates = -1 -0.5 0 0.5 1

[output]
directory = {tmp_path / "search"}
"""
    cfg = write_config(tmp_path / "search.ini", search)
    assert main(["invert", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "search" / "report.json").read_text())
    assert rep["x_hat"][0] == 0.5
    assert (tmp_path / "search" / "scores.json").exists()
    assert_phase_seconds(tmp_path / "search", COMPUTE_CHECK)
    assert_rerun_report_identical("invert", cfg, tmp_path / "search")

    fourier = f"""
[model]
family = heat
dim = 2

[grid]
t_end = 0.7
n_steps = 10

[run]
seed = 1
route = fourier
x0 = 1.3 -0.4

[output]
directory = {tmp_path / "fourier"}
"""
    cfg = write_config(tmp_path / "fourier.ini", fourier)
    assert main(["invert", "--config", cfg]) == 0
    assert_phase_seconds(tmp_path / "fourier", COMPUTE_CHECK)


def test_mean_ode_mc_keeps_only_the_terminal_cloud(tmp_path):
    # 400 steps of 2e4 particles: about 200 stored snapshots would take 32 MB
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = heat

[grid]
t_end = 1.0
n_steps = 400

[run]
seed = 3
particles = 20000
route = mean-ode-mc
x0 = 0.5

[output]
directory = {tmp_path / "out"}
""")
    tracemalloc.start()
    try:
        assert main(["invert", "--config", cfg]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("model", [
    pytest.param("family = ou\nc = -1\nsigma = 1", id="ou"),
    pytest.param("family = heat\nscale = 3", id="heat-scale-3"),
])
def test_fourier_route_inverts_the_configured_model(tmp_path, model):
    # the terminal transform comes from the model's own marginal, so the
    # recovery goes through that model's resolvent and covariance paths
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
{model}

[grid]
t_end = 0.7
n_steps = 10

[run]
seed = 1
route = fourier
x0 = 1.3

[output]
directory = {tmp_path / "out"}
""")
    assert main(["invert", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["passed"] is True
    assert abs(rep["x_hat"][0] - 1.3) < 1e-9


def test_moment_check_command(tmp_path):
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = affine
b0 = 0
b1 = -1

[grid]
t_end = 1.0
n_steps = 100

[run]
seed = 9
particles = 5000
x = 0
y = 1

[output]
directory = {tmp_path / "out"}
""")
    assert main(["moment-check", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["sup_empirical"] <= rep["bound"] + rep["margin"]
    assert_phase_seconds(tmp_path / "out", COMPUTE_CHECK)
    assert_rerun_report_identical("moment-check", cfg, tmp_path / "out")


def test_injectivity_command_and_control(tmp_path):
    body = """
[model]
family = heat

[grid]
t_end = 1.0
n_steps = 100

[run]
seed = 8
particles = 2000
candidates = {cands}

[thresholds]
expected_verdict = {verdict}

[output]
directory = {out}
"""
    cfg = write_config(tmp_path / "a.ini",
                       body.format(cands="0 1", verdict="injective",
                                   out=tmp_path / "a"))
    assert main(["injectivity", "--config", cfg]) == 0
    assert_phase_seconds(tmp_path / "a", COMPUTE_CHECK)
    assert_rerun_report_identical("injectivity", cfg, tmp_path / "a")
    cfg = write_config(tmp_path / "b.ini",
                       body.format(cands="0.5 0.5", verdict="ambiguous",
                                   out=tmp_path / "b"))
    assert main(["injectivity", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep["verdict"] == "ambiguous"


def test_forward_piecewise_family(tmp_path):
    cfg = write_config(tmp_path / "c.ini", f"""
[model]
family = piecewise
breakpoints = 0 0.5 1.0
rates = 0 0
sigmas = 1 0.5

[grid]
t_end = 1.0
n_steps = 200

[run]
seed = 12
particles = 5000
init = dirac:0

[output]
directory = {tmp_path / "out"}
""")
    assert main(["forward", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(rep["terminal_cov"][0][0] - 0.625) < 0.05


def strict_json(token):
    raise ValueError(f"{token} is not JSON")


def test_numbers_past_the_float_range(tmp_path):
    body = """
[model]
family = affine
b0 = 0
b1 = {b1}

[grid]
t_end = 1.0
n_steps = 1000

[run]
seed = 9
{run}

[output]
directory = {out}
"""
    # K T = 720: the Gronwall bound overflows to inf, so it holds vacuously
    cfg = write_config(tmp_path / "m.ini",
                       body.format(b1=-360, out=tmp_path / "m",
                                   run="particles = 100\nx = 0\ny = 1"))
    assert main(["moment-check", "--config", cfg]) == 0
    rep = json.loads((tmp_path / "m" / "report.json").read_text(),
                     parse_constant=strict_json)
    assert rep["bound"] is None and rep["passed"] is True
    # an overflowing backward mean is an error, not a passing report
    cfg = write_config(tmp_path / "i.ini",
                       body.format(b1=1e300, out=tmp_path / "i",
                                   run="route = mean-ode\nterminal_mean = 1"))
    with pytest.warns(RuntimeWarning), pytest.raises(
            ValueError, match="non-finite fundamental matrix at node 1 "):
        main(["invert", "--config", cfg])
    assert not (tmp_path / "i").exists()


def test_piecewise_family_runs_every_command(tmp_path, capsys):
    body = """
[model]
family = piecewise
breakpoints = 0 0.5 1.0
rates = -1 -0.5
sigmas = 1 0.5

[grid]
t_end = 1.0
n_steps = 50

[run]
seed = 4
particles = 1000
{run}

[output]
directory = {out}
"""
    runs = {
        "reverse": "mode = self-consistent\nmu = gaussian:0,0.5",
        "moment-check": "x = 0\ny = 1",
        "injectivity": "candidates = 0 1",
        "invert": "route = search\nx0 = 0.5\ncandidates = -1 0 0.5 1",
    }
    for command, run in runs.items():
        out = tmp_path / command
        cfg = write_config(tmp_path / f"{command}.ini",
                           body.format(run=run, out=out))
        assert main([command, "--config", cfg]) in (0, 1)
        assert (out / "report.json").exists()
    # a piecewise model has no affine drift: a configuration error, exit 2
    cfg = write_config(tmp_path / "mc.ini", body.format(
        run="route = mean-ode-mc\nx0 = 0.5", out=tmp_path / "mc"))
    assert main(["invert", "--config", cfg]) == 2
    assert "affine-drift model" in capsys.readouterr().err
