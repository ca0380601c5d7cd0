"""Forward simulation: frozen-cloud cases, CLT/chi^2 oracles, coupling."""

import io
import math
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retrodiff import (
    DiracMixture,
    EnsemblePath,
    ParticleEnsemble,
    TimeGrid,
    check_moment_bound,
    compute_ou_covariance,
    empirical_moments,
    euler_maruyama_path,
    export_snapshots_csv,
    gaussian,
    sample_initial,
    substream,
)
from retrodiff import forward
from retrodiff.models import DiffusionModel, affine_model, heat_model, ou_model


def test_sample_dirac_copies():
    ens = sample_initial(DiracMixture([[1.5]]), 5, seed=0)
    assert np.array_equal(ens.positions, np.full((5, 1), 1.5))


def test_sample_gaussian_clt():
    ens = sample_initial(gaussian(0.0, 1.0), 10**5, seed=1)
    assert abs(ens.positions.mean()) < 3.0 / np.sqrt(1e5)


def test_frozen_particles_without_coefficients():
    m = DiffusionModel(
        dim_d=1, dim_m=1,
        drift=lambda t, x: np.zeros_like(np.asarray(x, float)),
        dispersion=lambda t, x: np.zeros((1, 1)),
    )
    init = sample_initial(DiracMixture([[0.7]]), 10, seed=0)
    path = euler_maruyama_path(m, init, TimeGrid(0.0, 1.0, 50), seed=0)
    assert np.array_equal(path.terminal.positions, init.positions)


def test_heat_terminal_variance_chi2():
    # chi^2 concentration: var of N(0,1)-sample variance is 2/n
    m = heat_model(dim=1).as_diffusion_model()
    init = sample_initial(DiracMixture([[0.0]]), 10**5, seed=3)
    path = euler_maruyama_path(m, init, TimeGrid(0.0, 1.0, 500), seed=3)
    v = path.terminal.positions.var(ddof=1)
    assert abs(v - 1.0) < 0.03


def test_ou_terminal_variance_matches_covariance_path():
    ou = ou_model(C=-1.0, sigma=1.0)
    oracle = compute_ou_covariance(ou.C, ou.Sigma, TimeGrid(0.0, 1.0, 1000))
    q1 = oracle.at(1.0)[0, 0]
    assert abs(q1 - (1.0 - np.exp(-2.0)) / 2.0) < 1e-9
    init = sample_initial(DiracMixture([[0.0]]), 10**5, seed=4)
    path = euler_maruyama_path(ou.as_diffusion_model(), init,
                               TimeGrid(0.0, 1.0, 1000), seed=4)
    assert abs(path.terminal.positions.var(ddof=1) - q1) < 0.02


def test_reproducibility_bitwise():
    m = heat_model(dim=2).as_diffusion_model()
    init = sample_initial(gaussian([0.0, 0.0], np.eye(2)), 500, seed=9)
    g = TimeGrid(0.0, 1.0, 100)
    a = euler_maruyama_path(m, init, g, seed=11)
    b = euler_maruyama_path(m, init, g, seed=11)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.positions, sb.positions)
    c = euler_maruyama_path(m, init, g, seed=12)
    assert not np.array_equal(a.terminal.positions, c.terminal.positions)


def test_weak_order_mean_error_halves():
    # |empirical mean at T - R(T) x0| shrinks ~linearly in dt
    ou = ou_model(C=1.0, sigma=0.5)
    m = ou.as_diffusion_model()
    x0 = 1.0
    exact = np.exp(1.0) * x0
    errs = []
    for n_steps in (50, 100, 200):
        init = sample_initial(DiracMixture([[x0]]), 2 * 10**5, seed=21)
        path = euler_maruyama_path(m, init, TimeGrid(0.0, 1.0, n_steps), seed=21)
        errs.append(abs(path.terminal.positions.mean() - exact))
    assert errs[0] > errs[1] > errs[2]
    assert 1.4 < errs[0] / errs[1] < 2.9


def test_nonfinite_abort_names_particle_and_step():
    m = DiffusionModel(
        dim_d=1, dim_m=1,
        drift=lambda t, x: np.full_like(np.asarray(x, float), np.inf),
        dispersion=lambda t, x: np.zeros((1, 1)),
    )
    init = sample_initial(DiracMixture([[0.0]]), 3, seed=0)
    with pytest.raises(RuntimeError, match="particle 0 at step 1"):
        euler_maruyama_path(m, init, TimeGrid(0.0, 1.0, 10), seed=0)


def test_thinning_and_full_store():
    m = heat_model().as_diffusion_model()
    init = sample_initial(DiracMixture([[0.0]]), 10, seed=0)
    g = TimeGrid(0.0, 1.0, 1000)
    thin = euler_maruyama_path(m, init, g, seed=0)
    assert len(thin) <= 202
    full = euler_maruyama_path(m, init, g, seed=0, store_every=1)
    assert len(full) == 1001
    assert np.array_equal(thin.terminal.positions, full.terminal.positions)


@pytest.mark.parametrize("store_every", [0, -1, 2.5, float("nan")])
def test_store_every_must_be_an_integer_of_at_least_one(store_every):
    m = heat_model().as_diffusion_model()
    init = sample_initial(DiracMixture([[0.0]]), 4, seed=0)
    g = TimeGrid(0.0, 1.0, 400)
    with pytest.raises(ValueError, match="store_every must be an integer"):
        euler_maruyama_path(m, init, g, seed=0, store_every=store_every)
    # numpy ints and integral floats count, as for TimeGrid's n_steps
    for every in (np.int64(2), 2.0):
        assert len(euler_maruyama_path(m, init, g, seed=0,
                                       store_every=every)) == 201


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), m=st.integers(1, 4),
       n=st.integers(2, 300))
def test_em_step_rows_do_not_depend_on_the_row_count(data, d, m, n):
    # an x-independent sigma, broadcast by the model: each row of a batched
    # step is the one-row step of that row, bit for bit
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = ou_model(np.zeros((d, d)), rng.standard_normal((d, m)))
    model = model.as_diffusion_model()
    X, b = rng.standard_normal((2, n, d))
    xi = rng.standard_normal((n, m))
    dt = data.draw(st.floats(1e-4, 1.0), label="dt")
    step = forward._em_step(X, b, model.sigma(0.0, X), xi, dt)
    for i in range(n):
        row = slice(i, i + 1)
        one = forward._em_step(X[row], b[row], model.sigma(0.0, X[row]),
                               xi[row], dt)
        assert step[row].tobytes() == one.tobytes()


def test_empirical_moments_small_cases():
    from retrodiff import ParticleEnsemble

    two = ParticleEnsemble(time=0.0, positions=np.array([[1.0], [-1.0]]))
    mean, cov = empirical_moments(two)
    assert mean[0] == 0.0 and cov[0, 0] == 2.0

    same = ParticleEnsemble(time=0.0, positions=np.full((7, 1), 3.0))
    mean, cov = empirical_moments(same)
    assert mean[0] == 3.0 and cov[0, 0] == 0.0

    with pytest.raises(ValueError):
        empirical_moments(ParticleEnsemble(time=0.0, positions=np.zeros((1, 1))))


def test_empirical_moments_clt():
    rng = substream(5, 100)
    from retrodiff import ParticleEnsemble

    ens = ParticleEnsemble(time=0.0,
                           positions=3.0 + 2.0 * rng.standard_normal((10**5, 1)))
    mean, cov = empirical_moments(ens)
    assert abs(mean[0] - 3.0) < 0.02
    assert abs(cov[0, 0] - 4.0) < 0.06


def test_moment_bound_constant_sigma_zero_drift():
    m = DiffusionModel(
        dim_d=1, dim_m=1,
        drift=lambda t, x: np.zeros_like(np.asarray(x, float)),
        dispersion=lambda t, x: np.array([[1.0]]),
        jac_drift=lambda t, x: np.zeros((1, 1)),
        jac_dispersion=lambda t, x: np.zeros((1, 1, 1)),
    )
    rep = check_moment_bound(m, [0.0], [2.0], TimeGrid(0.0, 1.0, 100), 2000, seed=0)
    # E|Z_t|^2 = |y-x|^2 exactly under synchronous coupling, K = 0
    assert rep.K == 0.0
    assert abs(rep.sup_empirical - 4.0) < 1e-12
    assert rep.passed


def test_moment_bound_linear_drift():
    m = affine_model(0.0, -1.0, sigma_spec=1.0)
    rep = check_moment_bound(m, [0.0], [1.0], TimeGrid(0.0, 1.0, 100), 2000, seed=1)
    assert abs(rep.K - 2.0) < 1e-12
    assert rep.bound == pytest.approx(np.exp(2.0))
    assert rep.sup_empirical <= rep.bound + rep.margin
    assert rep.passed


def test_moment_bound_identical_starts():
    m = affine_model(0.0, -1.0, sigma_spec=1.0)
    rep = check_moment_bound(m, [0.5], [0.5], TimeGrid(0.0, 1.0, 50), 100, seed=2)
    assert rep.sup_empirical == 0.0


def test_moment_bound_past_the_float_range_is_vacuous():
    # K T = 720 > 709.78, so e^{K T} overflows: the bound is inf and holds
    m = affine_model(0.0, -360.0, sigma_spec=1.0)
    grid = TimeGrid(0.0, 1.0, 1000)
    rep = check_moment_bound(m, [0.0], [1.0], grid, 100, seed=3)
    assert rep.K == 720.0
    assert rep.bound == np.inf and rep.passed
    # identical starts keep a zero bound rather than 0 * inf
    rep = check_moment_bound(m, [0.5], [0.5], grid, 100, seed=3)
    assert rep.bound == 0.0 and rep.passed


def test_loops_only_read_model_arrays_and_rekey_one_generator():
    # the drift returns one stored read-only (d,) array, broadcast over the
    # rows, and the dispersion a stored writable one: neither loop may write
    # into them or into the positions
    n = 64
    b = np.array([0.5, -1.0])
    b.flags.writeable = False
    s = np.array([[1.0, 0.5], [0.0, 2.0]])
    m = DiffusionModel(
        dim_d=2, dim_m=2,
        drift=lambda t, x: b,
        dispersion=lambda t, x: s,
        jac_drift=lambda t, x: np.zeros((2, 2)),
        jac_dispersion=lambda t, x: np.zeros((2, 2, 2)),
    )
    init = ParticleEnsemble(0.0, substream(6, 0).standard_normal((n, 2)))
    kept = [a.tobytes() for a in (b, s, init.positions)]
    grid = TimeGrid(0.0, 1.0, 50)
    with mock.patch("retrodiff.forward.substream", wraps=substream) as spy:
        path = euler_maruyama_path(m, init, grid, seed=7)
        rep = check_moment_bound(m, [0.0, 0.0], [1.0, 1.0], grid, n, seed=7)
    assert spy.call_count == 0
    assert [a.tobytes() for a in (b, s, init.positions)] == kept
    assert not np.array_equal(path.terminal.positions, init.positions)
    # a shared drift and shared noise keep the coupled pair's gap at (1, 1)
    assert rep.sup_empirical == pytest.approx(2.0, rel=1e-12)


def test_snapshot_csv_format():
    m = heat_model(dim=2).as_diffusion_model()
    init = sample_initial(DiracMixture([[0.0, 0.0]]), 3, seed=0)
    path = euler_maruyama_path(m, init, TimeGrid(0.0, 1.0, 4), seed=0,
                               store_every=1)
    buf = io.StringIO()
    export_snapshots_csv(path, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,particle_id,x1,x2"
    assert len(lines) == 1 + 5 * 3
    t, pid, x1, x2 = lines[1].split(",")
    assert pid == "0" and float(t) == 0.0
    # 17 significant digits are representable round-trip
    val = path.terminal.positions[2, 1]
    assert float(lines[-1].split(",")[3]) == val


def _oracle_snapshots_csv(path):
    """The row-at-a-time writer the block writer replaced: the byte contract."""
    d = path.snapshots[0].dim
    out = ["t,particle_id," + ",".join(f"x{i + 1}" for i in range(d)) + "\n"]
    for snap in path.snapshots:
        t = f"{snap.time:.17g}"
        for pid, row in enumerate(snap.positions):
            coords = ",".join(f"{v:.17g}" for v in row)
            out.append(f"{t},{pid},{coords}\n")
    return "".join(out)


def _path(times, clouds):
    snaps = [ParticleEnsemble(time=t, positions=X) for t, X in zip(times, clouds)]
    return EnsemblePath(TimeGrid(0.0, 1.0, 1), snaps)


def _export(path):
    buf = io.StringIO()
    export_snapshots_csv(path, buf)
    return buf.getvalue()


SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300,
                    -1e-300, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0])


@pytest.mark.parametrize("d", [1, 2, 3])
# a literal, so the test ids do not move with _CSV_BLOCK: 16 387 rows are
# four 4096-row blocks and three rows
@pytest.mark.parametrize("n", [1, 16387])
def test_snapshot_csv_bytes_match_row_writer(d, n):
    rng = np.random.default_rng(d * 7 + n)
    clouds = []
    for shift in range(2):
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 5, (n, d))
        flat = X.reshape(-1)
        k = min(flat.size, SPECIAL.size)
        flat[:k] = np.roll(SPECIAL, -shift)[:k]
        clouds.append(X)
    path = _path([0.0, 1.0 / 3.0], clouds)
    # compared as lines, so a failure names the first differing row quickly
    assert (_export(path).split("\n")
            == _oracle_snapshots_csv(path).split("\n"))


@pytest.mark.parametrize("d", [1, 2, 3])
# a literal, so the test ids do not move with _CSV_BLOCK: 16 387 rows are
# four 4096-row blocks and three rows
@pytest.mark.parametrize("n", [1, 16387])
def test_snapshot_csv_bytes_match_row_writer_when_every_export_forks(
        d, n, monkeypatch):
    monkeypatch.setattr(forward, "_FORK_MIN_ROWS", 1)
    test_snapshot_csv_bytes_match_row_writer(d, n)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), block=st.integers(1, 8))
def test_snapshot_csv_round_trips_bitwise(data, d, block):
    n = data.draw(st.integers(1, 3 * block + 2), label="n")
    floats = st.floats(allow_nan=False, allow_infinity=False)
    clouds = [data.draw(arrays(np.float64, (n, d), elements=floats),
                        label=f"cloud{i}") for i in range(2)]
    path = _path([0.0, 0.5], clouds)
    with mock.patch.object(forward, "_CSV_BLOCK", block):
        text = _export(path)
    lines = text.split("\n")
    assert lines.pop() == ""
    assert lines[0] == "t,particle_id," + ",".join(f"x{i + 1}" for i in range(d))
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * n
    for k, X in enumerate(clouds):
        snap = rows[k * n:(k + 1) * n]
        assert [float(r[0]) for r in snap] == [path.times[k]] * n
        assert [int(r[1]) for r in snap] == list(range(n))
        parsed = np.array([[float(v) for v in r[2:]] for r in snap])
        assert parsed.shape == (n, d)
        assert np.array_equal(parsed.view(np.uint64), X.view(np.uint64))


def _float_of_bits(bits):
    return float(np.uint64(bits).view(np.float64))


def _ulps(x, k):
    """``x`` moved by k units in the last place, away from zero for k > 0."""
    return _float_of_bits(int(np.float64(x).view(np.uint64)) + k)


_ULPS = st.integers(-4, 4)
_SIGN = st.sampled_from([1.0, -1.0])
# the values the exact range's checks and rounding turn on
_KERNEL_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_of_bits),
    st.builds(lambda e, k, s: s * _ulps(float(f"1e{e}"), k),
              st.integers(-5, 17), _ULPS, _SIGN),
    st.builds(lambda x, k, s: s * _ulps(x, k),
              st.sampled_from([2.0**-13, 2.0**53]), _ULPS, _SIGN),
    # k / 8 below 1e15 has 18 significant digits ending in 25 or 75: a
    # tie at 17, which %.17g rounds half to even
    st.builds(lambda k, s: s * k / 8.0, st.integers(2**52, 2**53 - 1), _SIGN),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_KERNEL_FLOATS, min_size=1, max_size=12))
def test_float_cells_are_python_17g(values):
    cells = np.zeros((len(values), forward._FLOAT_CELL), np.uint8)
    forward._float_cells(np.array(values), cells)
    assert [bytes(c[c != 0]) for c in cells] == [b"%.17g" % v for v in values]


_POWERS = [s * (10**k + j) for k in range(19) for j in (-1, 0, 1) for s in (1, -1)]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from([0, 2**63 - 1, -2**63]
                                                 + _POWERS),
                                 st.integers(-2**63, 2**63 - 1)),
                       min_size=1, max_size=12))
def test_int_columns_are_python_d(values):
    text = forward._csv_lines("", [np.array(values, dtype=np.int64)])
    assert text == "".join("%d\n" % i for i in values)


def test_snapshot_csv_without_coordinates_keeps_the_empty_field():
    path = _path([0.0, 0.25], [np.zeros((3, 0)), np.zeros((3, 0))])
    assert _export(path) == _oracle_snapshots_csv(path) == \
        "t,particle_id,\n0,0,\n0,1,\n0,2,\n0.25,0,\n0.25,1,\n0.25,2,\n"


def _cpus(k):
    """A stand-in for ``os.sched_getaffinity`` that reports k usable CPUs."""
    return lambda pid: set(range(k))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self/fd")),
    reason="needs os.fork and /proc/self/fd")


@needs_fork
@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), parts=st.integers(1, 3),
       sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_snapshot_csv_parts_concatenate_to_row_writer(data, d, parts, sizes):
    floats = st.floats(allow_nan=False, allow_infinity=False)
    clouds = [data.draw(arrays(np.float64, (n, d), elements=floats),
                        label=f"cloud{i}") for i, n in enumerate(sizes)]
    path = _path(np.linspace(0.0, 1.0, len(sizes)), clouds)
    oracle = _oracle_snapshots_csv(path)
    # the cut at any row: the first, the last, a snapshot boundary or inside
    rows = sum(sizes)
    cut = data.draw(st.integers(0, rows), label="cut")
    head, tail = io.StringIO(), io.StringIO()
    forward._write_snapshot_rows(path, head, 0, cut)
    forward._write_snapshot_rows(path, tail, cut, rows)
    assert oracle == oracle[:oracle.index("\n") + 1] + head.getvalue() \
        + tail.getvalue()
    # the export's own cuts, with 1-3 processes
    with mock.patch.object(forward, "_FORK_MIN_ROWS", 1), \
            mock.patch.object(forward.os, "sched_getaffinity", _cpus(parts)):
        buf = io.StringIO()
        assert export_snapshots_csv(path, buf) == min(parts, rows)
    assert buf.getvalue() == oracle
    _assert_no_child_left()


# 9 rows over two snapshots, so a 2- or 3-way cut falls inside a snapshot
SMALL = ([0.0, 0.5], [np.ones((4, 2)), np.arange(10.0).reshape(5, 2)])


@pytest.mark.parametrize("case", ["one-cpu", "no-affinity", "no-fork",
                                  "few-rows"])
def test_snapshot_csv_stays_serial(case, monkeypatch):
    path = _path(*SMALL)
    if case != "few-rows":
        monkeypatch.setattr(forward, "_FORK_MIN_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity",
                        _cpus(1 if case == "one-cpu" else 3), raising=False)
    if case == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    if case == "no-fork":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError),
                            raising=False)
    buf = io.StringIO()
    assert export_snapshots_csv(path, buf) == 1
    assert buf.getvalue() == _oracle_snapshots_csv(path)


@needs_fork
def test_failing_child_raises_and_is_reaped(monkeypatch):
    parent = os.getpid()
    write = forward._write_snapshot_rows

    def write_or_fail(path, fileobj, lo, hi):
        if os.getpid() != parent:
            raise ValueError("child fails")
        write(path, fileobj, lo, hi)

    monkeypatch.setattr(forward, "_write_snapshot_rows", write_or_fail)
    monkeypatch.setattr(forward, "_FORK_MIN_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(3))
    fds = _open_fds()
    # the child's own exception, whatever the CPU count
    with pytest.raises(ValueError, match="^child fails$"):
        export_snapshots_csv(_path(*SMALL), io.StringIO())
    _assert_no_child_left()
    assert _open_fds() == fds


@needs_fork
def test_child_that_exits_without_a_report_names_its_status(monkeypatch):
    parent = os.getpid()

    def rows(lo, hi, out):
        if os.getpid() != parent:
            os._exit(3)
        return [lo]

    monkeypatch.setattr(os, "sched_getaffinity", _cpus(3))
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="part 1 of 3 exited with status 3"):
        forward._fork_shares(9, rows, lambda part: None)
    _assert_no_child_left()
    assert _open_fds() == fds


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_map_keeps_the_order_and_nests_serially(cpus, monkeypatch):
    parent = os.getpid()

    def nested(i):
        inner = forward._fork_map(lambda j: (os.getpid(), i * j), 4)
        forked = os.getpid() != parent
        # a child's own call stays in that child
        assert not forked or {pid for pid, _ in inner} == {os.getpid()}
        return forked, [v for _, v in inner]

    monkeypatch.setattr(os, "sched_getaffinity", _cpus(cpus))
    fds = _open_fds()
    out = forward._fork_map(nested, 7)
    assert [v for _, v in out] == [[i * j for j in range(4)] for i in range(7)]
    # shares are contiguous: the caller's first, one per CPU
    assert [forked for forked, _ in out] == [i >= 7 // cpus for i in range(7)]
    _assert_no_child_left()
    assert _open_fds() == fds


class _FailingText(io.StringIO):
    """A text sink whose first write after the header raises ``exc``."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        if self.tell():
            raise self.exc
        return super().write(text)


@needs_fork
@pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt(),
                                 SystemExit(143)],
                         ids=["write-error", "interrupt", "sigterm-exit"])
def test_parent_failure_kills_and_reaps_children(exc, monkeypatch):
    parent = os.getpid()
    write = forward._write_snapshot_rows

    def write_slowly_in_child(path, fileobj, lo, hi):
        if os.getpid() != parent:
            time.sleep(60)
        write(path, fileobj, lo, hi)

    monkeypatch.setattr(forward, "_write_snapshot_rows", write_slowly_in_child)
    monkeypatch.setattr(forward, "_FORK_MIN_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(3))
    fds = _open_fds()
    t0 = time.perf_counter()
    with pytest.raises(type(exc)):
        export_snapshots_csv(_path(*SMALL), _FailingText(exc))
    # the sleeping children were killed, not waited for
    assert time.perf_counter() - t0 < 30
    _assert_no_child_left()
    assert _open_fds() == fds


@needs_fork
def test_unflushed_text_before_the_export_is_written_once(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(forward, "_FORK_MIN_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(3))
    path = _path(*SMALL)
    target = tmp_path / "snapshots.csv"
    with open(target, "w") as fh:
        fh.write("written before the export\n")
        assert export_snapshots_csv(path, fh) == 3
    assert target.read_text() == ("written before the export\n"
                                  + _oracle_snapshots_csv(path))
    _assert_no_child_left()


def test_piecewise_dispersion_variance_composition():
    # sigma = 1 on [0, 0.5], 0.5 afterwards: Var(X_1) = 0.5 + 0.5 * 0.25
    from retrodiff.models import piecewise_model

    pw = piecewise_model([0.0, 0.5, 1.0], rates=[0.0, 0.0], sigmas=[1.0, 0.5])
    init = sample_initial(DiracMixture([[0.0]]), 2 * 10**4, seed=61)
    path = euler_maruyama_path(pw.as_diffusion_model(), init,
                               TimeGrid(0.0, 1.0, 400), seed=61)
    v = path.terminal.positions.var(ddof=1)
    assert abs(v - 0.625) < 0.02
