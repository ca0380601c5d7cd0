"""A fixed reference computation that gauges the machine's current speed.

The benchmark shares a few cores of a host whose speed changes in spells
that last longer than one run, by a quarter or more.  Timing this fixed
computation right before and after each workload iteration gives the speed
of that moment, and dividing by it takes the spells out of the reported
times (see ``harness.normalise``).

The computation uses numpy and the standard library only, never
``retrodiff``, so a change to the library cannot move it.  It mixes the
kinds of work the workloads spend their time on: per-value float
formatting (the CSV export), elementwise numpy on particle-sized arrays
(the Euler loops), pairwise Gaussian kernels on blocks that do not fit in
cache (the exact KDE), FFT convolutions (the binned KDE), 1-D sorts
(Wasserstein distances) and a Python loop of small matrix products (the
RK4 resolvent paths).
"""

import time

import numpy as np

# Seconds the computation takes at the nominal machine speed.  Normalised
# times are reported at this speed: a time scaled by NOMINAL_S / measured.
# It is about the computation's median time on a 2-core x86-64 virtual
# machine; any fixed value would do, it only has to stay the same between
# commits.
NOMINAL_S = 0.2


def _format(rows):
    chars = 0
    for pid, v in enumerate(rows):
        chars += len(f"0.5,{pid},{v:.17g}\n")
    return chars


def _elementwise(x, steps):
    for _ in range(steps):
        x = x - 0.01 * np.tanh(x) + 0.001 * np.exp(-0.5 * x * x)
    return float(x.sum())


def _kernel_blocks(x, times):
    acc = 0.0
    for k in range(times):
        d = np.subtract.outer(x[:64], x[k:k + 2000])
        d *= d
        d *= -0.5 / 0.09
        acc += float(np.exp(d, out=d).sum())
    return acc


def _convolutions(x, times):
    n = len(x)
    spec = np.fft.rfft(x)
    acc = 0.0
    for _ in range(times):
        acc += float(np.fft.irfft(spec * np.fft.rfft(x), n)[0])
    return acc


def _sorts(x, times):
    acc = 0.0
    for k in range(times):
        acc += float(np.sort(x * (1.0 + 0.01 * k))[len(x) // 2])
    return acc


def _small_matrices(steps):
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Y = np.eye(2)
    h = 1.0 / steps
    for _ in range(steps):
        k1 = A @ Y
        k2 = A @ (Y + 0.5 * h * k1)
        Y = Y + h * k2
    return float(Y[0, 0])


def run_once():
    """Time one pass of the fixed computation; returns seconds.

    Every array it makes is at most 1 MB and no output is kept; it raises
    a workload's peak memory by about 1 MB.
    """
    rng = np.random.default_rng(20200721)
    rows = rng.standard_normal(30000)
    x = rng.standard_normal(20000)
    signal = rng.standard_normal(1 << 14)
    t0 = time.perf_counter()
    _format(rows)
    _elementwise(x, 300)
    _kernel_blocks(x, 80)
    _convolutions(signal, 80)
    _sorts(x, 200)
    _small_matrices(6000)
    return time.perf_counter() - t0
