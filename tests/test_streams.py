"""Random streams: a loop's re-keyed generator against the public rule."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retrodiff.streams import step_streams, substream


def _draws(rng, k):
    # sizes vary with k, and odd integer counts leave a buffered 32-bit half,
    # so a counter, buffer or half carried over from another step shows
    normals = rng.standard_normal(1 + k % 7)
    ints = rng.integers(2**32, size=1 + k % 3)
    return normals, ints


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-2**70, 2**70), kind=st.integers(0, 10),
       n_steps=st.integers(1, 500), data=st.data())
def test_step_streams_equal_substream(seed, kind, n_steps, data):
    stream = step_streams(seed, kind, n_steps)
    order = list(range(n_steps))
    # revisit one step after other steps drew different amounts
    order.append(data.draw(st.integers(0, n_steps - 1), label="revisit"))
    for k in order:
        got = _draws(stream(k), k)
        want = _draws(substream(seed, kind, k), k)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), k


def test_step_stream_state_is_a_fresh_substream_state():
    stream = step_streams(3, 4, 10)
    stream(2).integers(2**32, size=5)  # leaves a buffered 32-bit half
    got = stream(7).bit_generator.state
    want = substream(3, 4, 7).bit_generator.state
    assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
    assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == \
        [want[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
