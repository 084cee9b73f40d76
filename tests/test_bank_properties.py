"""Property tests of the window kernel over random banks, lengths and
chunkings, of its band layout against copied windows, and of shared passes
over random choices of presets."""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from roundoff import (assert_within, products_bound,  # noqa: E402
                      sum_squares_bound)
from sgwhiten.analysis_bank import (RESIDUAL_BYTES,  # noqa: E402
                                    SampleSequence, StreamingBank, run_bank,
                                    slab_shape, window_power_sums,
                                    window_products)
from sgwhiten.filter_design import PRESET_LABELS, design_preset  # noqa: E402
from sgwhiten.sim_harness import SCENARIOS, build_trace  # noqa: E402


@st.composite
def banks_and_inputs(draw):
    """A random L x M bank, an input of up to three kernel blocks and a list
    of chunk sizes."""
    m = 2 * draw(st.integers(1, 64)) + 1
    l = draw(st.integers(1, m))
    p, _, per_block = slab_shape(m, l)
    block = p * per_block
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
    # Streaming the same input in chunks gives the batch rows within the
    # same bound.
    stream = StreamingBank(h_matrix)
    rows, pos, i = [], 0, 0
    while pos < len(x):
        rows.append(stream.push(x[pos:pos + sizes[i % len(sizes)]]))
        pos += sizes[i % len(sizes)]
        i += 1
    assert_within(np.concatenate(rows), feats.coeffs,
                  products_bound(x, h_matrix.T))


@st.composite
def narrow_matrices_and_inputs(draw):
    """An M x width matrix, width 1-8, M odd, half the time up to 129 and
    half the time up to 1025; an input whose window count straddles a
    segment or block boundary; and the sizes of the first chunks of a
    stream."""
    width = draw(st.integers(1, 8))
    m = 2 * draw(st.integers(1, draw(st.sampled_from([64, 512])))) + 1
    p, _, per_block = slab_shape(m, width)
    unit = draw(st.sampled_from([p, p * per_block]))
    windows = max(unit * draw(st.integers(1, 3)) + draw(st.integers(-2, 2)), 1)
    sizes = draw(st.lists(st.integers(1, 3000), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(m, width)), rng.normal(size=m - 1 + windows), sizes


@settings(max_examples=80, deadline=None)
@given(narrow_matrices_and_inputs())
def test_band_rows_equal_copied_windows(case):
    # However the windows fall on segments and blocks, and however
    # a stream is chunked, every row of a matrix of width 1-8 is the product
    # of its copied window with the matrix, within the round-off bound.
    matrix, x, sizes = case
    expected = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(x, len(matrix))) @ matrix
    bound = products_bound(x, matrix)
    assert_within(window_products(x, matrix), expected, bound)
    # The chunks, then the rest in one push.
    stream = StreamingBank(matrix.T)
    cuts = np.cumsum(sizes)
    rows = [stream.push(chunk) for chunk in np.split(x, cuts[cuts < len(x)])]
    assert_within(np.concatenate(rows), expected, bound)


@functools.cache
def _preset(label, m, l=5):
    # design keeps 8 designs; the preset choices draw from 66.
    return design_preset(label, m=m, l=l)


@st.composite
def preset_choices(draw):
    """Presets in a random subset and order at one window length and order
    L, and the traces of one scenario laid end to end."""
    m = draw(st.sampled_from([9, 13, 17, 33]))
    l = draw(st.sampled_from([3, 4, 5]))
    labels = PRESET_LABELS[:4] if m == 9 else PRESET_LABELS
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1,
                           max_size=len(labels), unique=True))
    scenario = draw(st.sampled_from(SCENARIOS))
    seed = draw(st.integers(0, 1000))
    traces = [build_trace(scenario, seed + k, gap=3 * m)
              for k in range(draw(st.integers(1, 40)))]
    x = np.concatenate([trace.x for trace in traces] + [np.zeros(m - 1)])
    return [_preset(lab, m, l) for lab in chosen], x


def residual_bound(x, factor):
    """The residual powers of a factor's window products, and the bound
    within which any computation of them agrees."""
    out = window_products(x, factor)
    return (np.einsum("nk,nk->n", out, out),
            sum_squares_bound(out, products_bound(x, factor)))


@settings(max_examples=60, deadline=None)
@given(preset_choices())
def test_shared_pass_equals_each_filter_alone(case):
    # However the filters are chosen and ordered, a shared pass gives each
    # one the residual of that filter alone, within the round-off bound.
    filters, x = case
    powers = window_power_sums(x, [filt.transform.residual_factor
                                   for filt in filters])
    for filt, power in zip(filters, powers):
        want, bound = residual_bound(x, filt.transform.residual_factor)
        assert_within(power, want, bound)
        assert_within(window_power_sums(x, [filt.transform.residual_factor])[0],
                      want, bound)


@pytest.mark.parametrize("m", [65, 257])
def test_wide_residual_factors_share_one_pass(m):
    # At M = 65 and 257 the residual factors are too wide to band, so two of
    # them share one pass of one window a row, each at its own width, over
    # two whole slices of windows and part of a third: within the round-off
    # bound of its window products alone or in a call with other filters.
    filters = [_preset(lab, m) for lab in ("E", "A")]
    columns = sum(filt.transform.residual_factor.shape[1] for filt in filters)
    assert slab_shape(m, columns)[:2] == (1, columns)
    step = RESIDUAL_BYTES // (8 * columns)
    x = np.random.default_rng(m).normal(size=2 * step + 3 * m + 200)
    powers = window_power_sums(x, [filt.transform.residual_factor
                                   for filt in filters])
    for filt, power in zip(filters, powers):
        want, bound = residual_bound(x, filt.transform.residual_factor)
        assert_within(power, want, bound)
        assert_within(window_power_sums(x, [filt.transform.residual_factor])[0],
                      want, bound)
