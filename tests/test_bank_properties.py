"""Property tests of the window kernel over random banks, lengths and
chunkings, and of shared passes over random preset packings."""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sgwhiten.analysis_bank import (PRODUCT_MADDS, SLAB_ROWS,  # noqa: E402
                                    SampleSequence, StreamingBank, run_bank,
                                    slab_shape, window_products)
from sgwhiten.detector import residual_power, residuals_and_rows  # noqa: E402
from sgwhiten.filter_design import PRESET_LABELS, design_preset  # noqa: E402
from sgwhiten.sim_harness import SCENARIOS, build_trace  # noqa: E402


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


@functools.cache
def _preset(label, m):
    # design keeps 8 designs; the packings draw from 22.
    return design_preset(label, m=m, l=5)


@st.composite
def packings(draw):
    """Presets in a random subset and order at one window length, and the
    traces of one scenario laid end to end."""
    m = draw(st.sampled_from([9, 13, 17, 33]))
    labels = PRESET_LABELS[:4] if m == 9 else PRESET_LABELS
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1,
                           max_size=len(labels), unique=True))
    scenario = draw(st.sampled_from(SCENARIOS))
    seed = draw(st.integers(0, 1000))
    traces = [build_trace(scenario, seed + k, gap=3 * m)
              for k in range(draw(st.integers(1, 40)))]
    x = np.concatenate([trace.x for trace in traces] + [np.zeros(m - 1)])
    return [_preset(lab, m) for lab in chosen], x


# Why a shared pass can differ from a filter's own pass.
PLACE_ASSUMPTION = (
    "shared_window_products assumes the BLAS gives a column the same bits at "
    "any 8-aligned place of a pass of 64-window products, as OpenBLAS 0.3.31 "
    "does with its SkylakeX kernels; this BLAS does not, so simulate's bank "
    "rows, Z and tables would no longer equal run_bank's")


@settings(max_examples=60, deadline=None)
@given(packings())
def test_shared_pass_equals_each_filter_alone(case):
    # However the filters are chosen and ordered, a shared pass gives each
    # one the bank rows of run_bank and the residual of residual_power of
    # that filter alone, bit for bit.
    filters, x = case
    powers, rows = residuals_and_rows(
        x, [(filt.transform.residual_factor, filt.operators.h_matrix.T)
            for filt in filters])
    for filt, power, coeffs in zip(filters, powers, rows):
        bank = run_bank(SampleSequence(values=x), filt.operators.h_matrix)
        assert np.array_equal(coeffs, bank.coeffs), PLACE_ASSUMPTION
        assert np.array_equal(power, residual_power(x, filt.transform)), \
            PLACE_ASSUMPTION


@pytest.mark.parametrize("m", [65, 257])
def test_wide_residual_factor_runs_alone_unpadded(m):
    # At M = 65 and 257 the residual factor, padded, would not fit a pass of
    # SLAB_ROWS-window products, so it runs alone and unpadded, as
    # residual_power ran it before shared passes: the same bits, alone or
    # in a pass with other filters.
    filters = [_preset(lab, m) for lab in ("E", "A")]
    x = np.random.default_rng(m).normal(size=3 * m + 200)
    powers, rows = residuals_and_rows(
        x, [(filt.transform.residual_factor, filt.operators.h_matrix.T)
            for filt in filters])
    for filt, power, coeffs in zip(filters, powers, rows):
        factor = filt.transform.residual_factor
        assert -(-factor.shape[1] // 8) * 8 > PRODUCT_MADDS // (m * SLAB_ROWS)
        out = window_products(x, factor)
        assert np.array_equal(power, np.einsum("nk,nk->n", out, out))
        assert np.array_equal(residual_power(x, filt.transform), power)
        bank = run_bank(SampleSequence(values=x), filt.operators.h_matrix)
        assert np.array_equal(coeffs, bank.coeffs)
