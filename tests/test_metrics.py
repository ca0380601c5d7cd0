"""Wasserstein-1 distances against scipy, compared bit for bit.

For samples of unequal size, ``scipy.stats.wasserstein_distance`` is the
oracle for ``wasserstein1``, and the per-direction scipy loop that
``sliced_wasserstein1`` used to run is kept here as the oracle for the
sliced distance.  For equal sizes the oracle is the mean gap of the order
statistics, ``np.abs(np.sort(a) - np.sort(b)).mean()`` (per direction for
the sliced distance), which must also lie within 1e-14 relative of the
exact rational mean and of scipy.  Floats are compared with
``float.hex``, so a single differing bit fails.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr
from scipy.stats import wasserstein_distance

from retrodiff.metrics import (
    _sq_dist_block,
    energy_distance_nd,
    ks_statistic,
    sliced_wasserstein1,
    sliced_wasserstein1_sorted,
    sorted_projections,
    wasserstein1,
)
from retrodiff.streams import PROJECTIONS, substream

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# plain floats, values rounded to one decimal (ties), and signed zeros
VALUES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)
SAMPLES = st.lists(VALUES, min_size=1, max_size=60)


def _bits(x):
    return float(x).hex()


def _order_statistic_w1(a, b):
    """W1 between two samples of equal size: the mean gap of their order
    statistics."""
    return np.abs(np.sort(a) - np.sort(b)).mean()


def _exact_w1(a, b):
    """``_order_statistic_w1`` in exact rational arithmetic."""
    gaps = (abs(Fraction(x) - Fraction(y)) for x, y in zip(sorted(a), sorted(b)))
    return sum(gaps, Fraction(0)) / len(a)


def _assert_w1(got, a, b):
    """scipy's bits for unequal sizes.  For equal sizes the order-statistic
    mean's bits, within 1e-14 relative of the exact mean and of scipy."""
    want = float(wasserstein_distance(a, b))
    if len(a) != len(b):
        assert _bits(got) == _bits(want)
        return
    assert _bits(got) == _bits(_order_statistic_w1(a, b))
    exact = _exact_w1(a, b)
    assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact
    assert abs(got - want) <= 1e-14 * want


def _sliced_loop(X, Y, w1, n_projections=32, seed=0):
    """The per-direction loop that sliced_wasserstein1 ran before, with the
    1-d distance ``w1``."""
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    rng = substream(seed, PROJECTIONS)
    dirs = rng.standard_normal((n_projections, X.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = [float(w1(X @ u, Y @ u)) for u in dirs]
    return float(np.mean(vals))


def _scipy_sliced(X, Y, seed=0):
    return _sliced_loop(X, Y, wasserstein_distance, seed=seed)


@settings(max_examples=300, deadline=None)
@given(a=SAMPLES, b=SAMPLES)
@example(a=[0.5], b=[-2.0])
@example(a=[0.0, -0.0, 0.0], b=[-0.0, 0.0])
@example(a=[1.0, 1.0, 2.0], b=[1.0, 2.0, 2.0, 2.0])
def test_w1_is_scipy_bit_for_bit(a, b):
    # scipy's bits for unequal sizes; equal draws take the equal-size oracle
    _assert_w1(wasserstein1(a, b), a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 60))
def test_w1_equal_sizes_is_the_order_statistic_mean(data, n):
    a = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    b = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    _assert_w1(wasserstein1(a, b), a, b)


@pytest.mark.parametrize("n, m", [(20000, 20000), (20000, 15001), (1, 5000)])
def test_w1_large_samples_with_ties(n, m):
    # long unequal rows take BLAS's vectorised dot product, as scipy's do
    rng = substream(31, n, m)
    a = np.round(rng.standard_normal(n), 2)
    b = rng.standard_normal(m) * 1.3 + 0.1
    b[::7] = np.round(b[::7], 1)
    _assert_w1(wasserstein1(a, b), a, b)


INF = math.inf


@pytest.mark.parametrize("a, b", [
    ([INF], [0.0]),
    ([INF], [INF]),
    ([-INF, 0.0], [0.0, 1.0]),
    ([1.0, INF], [0.0, INF]),
    ([-INF, 2.0, INF], [-1.0, 0.0, 1.0]),
])
def test_w1_equal_sizes_with_infinities_as_scipy(a, b):
    with np.errstate(invalid="ignore"):
        got, want = wasserstein1(a, b), wasserstein_distance(a, b)
    assert got == want or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("a, b, want", [
    # identical samples: no gap spans the values' range, whose merged delta
    # overflows in scipy and meets a zero CDF difference
    ([-1e308, 1e308], [-1e308, 1e308], 0.0),
    # one sample's tied infinities: scipy's delta between them is nan
    ([INF, INF], [0.0, 0.0], INF),
])
def test_w1_equal_sizes_differs_from_scipy_where_scipy_overflows(a, b, want):
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(wasserstein_distance(a, b))
    assert wasserstein1(a, b) == want


@pytest.mark.parametrize("a, b", [
    ([math.nan], [0.0]),
    ([1.0, math.nan, 2.0], [0.0, 3.0]),
    ([1.0], [math.nan, math.nan]),
])
def test_nan_gives_nan_as_scipy_does(a, b):
    assert math.isnan(wasserstein_distance(a, b))
    assert math.isnan(wasserstein1(a, b))


@pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0, 2.0], [])])
def test_empty_sample_raises(a, b):
    with pytest.raises(ValueError):
        wasserstein1(a, b)


def test_empty_cloud_raises():
    with pytest.raises(ValueError):
        sliced_wasserstein1(np.empty((0, 2)), np.ones((3, 2)))


@settings(max_examples=100, deadline=None)
@given(a=SAMPLES, b=SAMPLES)
def test_w1_is_symmetric_and_zero_on_itself(a, b):
    assert _bits(wasserstein1(a, b)) == _bits(wasserstein1(b, a))
    assert wasserstein1(a, a) == 0.0


@settings(max_examples=120, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 3]), n=st.integers(1, 40),
       m=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_sliced_is_the_scipy_loop_bit_for_bit(data, d, n, m, seed):
    # about half the draws compare clouds of equal size
    if data.draw(st.booleans()):
        m = n
    coords = st.one_of(st.floats(-100.0, 100.0),
                       st.sampled_from([0.0, -0.0, 1.0]))
    X = data.draw(arrays(np.float64, (n, d), elements=coords))
    Y = data.draw(arrays(np.float64, (m, d), elements=coords))
    got = sliced_wasserstein1(X, Y, seed=seed)
    want = _scipy_sliced(X, Y, seed=seed)
    if n != m:
        assert _bits(got) == _bits(want)
        return
    # equal sizes: the order-statistic mean per direction, close to scipy's
    assert _bits(got) == _bits(_sliced_loop(X, Y, _order_statistic_w1, seed=seed))
    assert abs(got - want) <= 1e-14 * want


def test_sliced_from_sorted_projections_reuses_the_sort():
    X = substream(32, 0).standard_normal((300, 2))
    Y = substream(32, 1).standard_normal((200, 2)) + 0.5
    PX, PY = sorted_projections(X, seed=4), sorted_projections(Y, seed=4)
    assert PX.shape == (32, 300)
    assert np.all(np.diff(PX, axis=1) >= 0)
    got = sliced_wasserstein1_sorted(PX, PY)
    assert _bits(got) == _bits(_scipy_sliced(X, Y, seed=4))
    assert _bits(got) == _bits(sliced_wasserstein1(X, Y, seed=4))


@settings(max_examples=60, deadline=None)
@given(a=SAMPLES, b=SAMPLES, seed=st.integers(0, 100))
def test_sliced_in_one_dimension_is_w1(a, b, seed):
    X, Y = np.array(a)[:, None], np.array(b)[:, None]
    assert _bits(sliced_wasserstein1(X, Y, seed=seed)) == \
        _bits(wasserstein1(a, b))


@settings(max_examples=60, deadline=None)
@given(a=SAMPLES, b=SAMPLES, seed=st.integers(0, 100))
def test_a_1d_array_is_a_cloud_on_the_line(a, b, seed):
    # a 1-d array and its (n, 1) column give the same bits
    x, y = np.array(a), np.array(b)
    X, Y = x[:, None], y[:, None]
    assert _bits(energy_distance_nd(x, y, seed=seed)) == \
        _bits(energy_distance_nd(X, Y, seed=seed))
    assert _bits(sliced_wasserstein1(x, y, seed=seed)) == \
        _bits(sliced_wasserstein1(X, Y, seed=seed))
    assert np.array_equal(sorted_projections(x, seed), sorted_projections(X, seed))


def test_import_leaves_scipy_out():
    # scipy is imported where it is first called, never by importing
    code = ("import sys, retrodiff, retrodiff.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _four_temporary_energy(X, Y, seed=0):
    """The energy distance as it was computed before the in-place block."""
    rng = substream(seed, PROJECTIONS, 1)
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    if X.shape[0] > 2000:
        X = X[rng.choice(X.shape[0], 2000, replace=False)]
    if Y.shape[0] > 2000:
        Y = Y[rng.choice(Y.shape[0], 2000, replace=False)]

    def mean_dist(A, B):
        d2 = (np.sum(A * A, axis=1)[:, None] - 2.0 * A @ B.T
              + np.sum(B * B, axis=1)[None, :])
        return float(np.sqrt(np.maximum(d2, 0.0)).mean())

    return float(max(2.0 * mean_dist(X, Y) - mean_dist(X, X)
                     - mean_dist(Y, Y), 0.0))


@pytest.mark.parametrize("n, m, d", [(1, 1, 1), (7, 3, 1), (300, 0, 2),
                                     (500, 0, 2), (500, 400, 2), (700, 0, 3)])
def test_sq_dist_block_keeps_the_four_temporary_bits(n, m, d):
    # m = 0 is a cloud against itself: numpy routes A @ A.T to its symmetric
    # product, which rounds differently from the general one at these sizes
    A = substream(n, 60).standard_normal((n, d))
    B = A if m == 0 else substream(m, 61).standard_normal((m, d))
    want = np.maximum(np.sum(A * A, axis=1)[:, None] - 2.0 * A @ B.T
                      + np.sum(B * B, axis=1)[None, :], 0.0)
    got = _sq_dist_block(A, B, np.sum(B * B, axis=1))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n, m, d", [(1, 1, 1), (7, 300, 1), (200, 150, 2),
                                     (2000, 1500, 2), (2500, 900, 3)])
def test_energy_distance_keeps_the_four_temporary_bits(n, m, d):
    X = substream(n, 57).standard_normal((n, d))
    Y = 0.8 * substream(m, 58).standard_normal((m, d)) + 0.3
    assert _bits(energy_distance_nd(X, Y, seed=5)) == \
        _bits(_four_temporary_energy(X, Y, seed=5))


def test_energy_distance_builds_one_block():
    # two 2000-point clouds: each mean distance is one (2000, 2000) block of
    # squared distances, square-rooted in place; three blocks were live before
    X = substream(1, 59).standard_normal((2000, 2))
    Y = substream(2, 59).standard_normal((2000, 2)) + 0.5
    block = 2000 * 2000 * 8
    tracemalloc.start()
    try:
        energy_distance_nd(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block, f"peak {peak / 1e6:.1f} MB"


def _temporaries_ks(sample, cdf):
    """The formula ks_statistic ran before its two buffers: the bit oracle."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.abs(grid - F).max(), np.abs(grid - 1.0 / n - F).max()))


_CDFS = [ndtr, lambda x: np.clip(x, 0.0, 1.0), lambda x: 0.5 + 0.5 * np.tanh(3.0 * x)]


@settings(max_examples=200, deadline=None)
@given(sample=arrays(np.float64, st.integers(1, 300),
                     elements=st.floats(-1e3, 1e3) | st.just(math.nan)),
       cdf=st.sampled_from(_CDFS))
def test_ks_statistic_keeps_the_bits_of_its_temporaries(sample, cdf):
    assert _bits(ks_statistic(sample, cdf)) == _bits(_temporaries_ks(sample, cdf))


def test_ks_statistic_of_no_sample_raises_as_before():
    with pytest.raises(ValueError):
        ks_statistic(np.array([]), ndtr)
