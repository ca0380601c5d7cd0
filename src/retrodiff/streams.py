"""Counter-based random streams.

Every random draw in the library is pulled from a stream addressed by an
integer seed plus a path of integer labels (stream kind, step index, ...).
The mapping (seed, path) -> stream is pure, so results do not depend on how
many other streams were created before, nor on the order in which particles
are processed.  This is what makes runs bitwise reproducible.

:func:`substream` is the one rule from (seed, path) to a stream.  A Philox
stream is a pure function of its key and counter, so a loop that needs the
streams (seed, kind, k) for k = 0, 1, ... keeps one generator and re-keys it
at each step (:func:`step_streams`); its stream k is ``substream(seed, kind,
k)`` bit for bit, without building a new generator per step.
"""

import numpy as np

_MASK = (1 << 64) - 1

# stream kinds used across the library
INIT_SAMPLE = 1
FORWARD_STEP = 2
REVERSAL_INIT = 3
REVERSAL_STEP = 4
LIPSCHITZ_PROBE = 5
PROJECTIONS = 6
CANDIDATE_SIM = 7


def _splitmix64(z):
    """splitmix64 of a Python int, or of each entry of a uint64 array."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _path_key(seed, path):
    k = _splitmix64(int(seed) & _MASK)
    for p in path:
        k = _splitmix64(k ^ (int(p) & _MASK))
    return k


def substream(seed, *path):
    """Return a ``numpy.random.Generator`` for the (seed, *path) stream.

    Streams with distinct paths are statistically independent Philox
    streams; identical arguments always give back an identical stream.
    """
    k = _path_key(seed, path)
    key = np.array([k, _splitmix64(k)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def step_streams(seed, kind, n_steps):
    """Return ``stream(k)``, the ``substream(seed, kind, k)`` stream of step k.

    The keys of all ``n_steps`` streams are derived at once, and one Philox
    generator is re-keyed at each call: that step's key, a zero counter, an
    empty buffer and no buffered 32-bit half, which is the state a fresh
    ``substream`` starts in.  Each call returns the same ``Generator``, so a
    stream is read before the next call.
    """
    steps = np.arange(n_steps, dtype=np.uint64)
    step_keys = _splitmix64(np.uint64(_path_key(seed, (kind,))) ^ steps)
    keys = np.stack([step_keys, _splitmix64(step_keys)], axis=1)
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)

    def stream(k):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": keys[k]},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return gen

    return stream
