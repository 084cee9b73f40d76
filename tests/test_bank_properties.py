"""Property tests of the window kernel over random banks, lengths and chunkings."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sgwhiten.analysis_bank import (SampleSequence, StreamingBank,  # noqa: E402
                                    run_bank, slab_shape)


@st.composite
def banks_and_inputs(draw):
    """A random L x M bank, an input of up to three kernel blocks and a list
    of chunk sizes."""
    m = 2 * draw(st.integers(1, 64)) + 1
    l = draw(st.integers(1, m))
    rows, per_block = slab_shape(m, l)
    block = rows * per_block
    n = m - 1 + draw(st.integers(1, 3 * block))
    sizes = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(l, m)), rng.normal(size=n), sizes


@settings(max_examples=60, deadline=None)
@given(banks_and_inputs())
def test_rows_equal_convolution_and_streaming_equals_batch(case):
    h_matrix, x, sizes = case
    m = h_matrix.shape[1]
    feats = run_bank(SampleSequence(values=x), h_matrix)
    # Each run_bank row is the convolution with that row, within the
    # round-off bound of two length-M sums.
    gamma = m * 2.0 ** -53 / (1 - m * 2.0 ** -53)
    for row, taps in enumerate(h_matrix):
        expected = np.convolve(x, taps[::-1], mode="valid")
        bound = 2 * gamma * np.convolve(np.abs(x), np.abs(taps[::-1]), mode="valid")
        assert np.all(np.abs(feats.coeffs[:, row] - expected) <= bound)
    # Streaming the same input in chunks gives the batch rows bit for bit.
    stream = StreamingBank(h_matrix)
    rows, pos, i = [], 0, 0
    while pos < len(x):
        rows.append(stream.push(x[pos:pos + sizes[i % len(sizes)]]))
        pos += sizes[i % len(sizes)]
        i += 1
    assert np.array_equal(np.concatenate(rows), feats.coeffs)
