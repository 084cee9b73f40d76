"""Convolution, feature extraction, synthesis, and the sliding bank."""

import math

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten import analysis_bank
from sgwhiten.analysis_bank import (SampleSequence, StreamingBank, convolve,
                                    run_bank, slab_shape, synthesize,
                                    window_products)

from roundoff import assert_within, products_bound

# (preset, M) pairs the kernel tests cover: every preset at the default
# width, a dense and a banded metric at M = 65, and the widest bank.
BANKS = [(label, 17) for label in sg.PRESET_LABELS] + [("C", 65), ("E", 65),
                                                       ("E", 257)]


@pytest.fixture(scope="module")
def plain():
    return sg.design_preset("A")


@pytest.fixture(scope="module")
def banks():
    return {(label, m): sg.design_preset(label, m=m) for label, m in BANKS}


def block_windows(m):
    """Windows per copied block, one product, of the kernel for an L = 5 bank
    of width M."""
    p, _, per_block = slab_shape(m, 5)
    return p * per_block


def one_window(window, h_matrix):
    """The bank's coefficients of a single window: the kernel's row 0."""
    return window_products(window, h_matrix.T)[0]


def chunked(stream, x, sizes):
    """Push x through the stream in chunks of the given sizes, cycling them;
    return the concatenated rows."""
    rows, pos, i = [], 0, 0
    while pos < len(x):
        rows.append(stream.push(x[pos:pos + sizes[i % len(sizes)]]))
        pos += sizes[i % len(sizes)]
        i += 1
    return np.concatenate(rows)


class TestSampleSequence:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SampleSequence(values=np.array([1.0, np.nan]))

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            SampleSequence(values=np.array([1.0, np.inf]))

    def test_rejects_two_dimensions(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SampleSequence(values=np.zeros((4, 2)))


def test_feature_series_rejects_one_dimension():
    with pytest.raises(ValueError, match="2-d"):
        sg.FeatureSeries(coeffs=np.zeros(5), offset=0)


class TestConvolve:
    def test_constant_in_constant_out(self, plain):
        x = SampleSequence(values=np.full(40, 3.7))
        y = convolve(x, plain)
        assert np.allclose(y.values, 3.7, atol=1e-10)
        assert y.start == plain.half_length
        assert len(y) == 40 - 2 * plain.half_length

    def test_quadratic_reproduced_exactly(self, plain):
        n = np.arange(50, dtype=float)
        y = convolve(SampleSequence(values=n ** 2), plain)
        centers = n[plain.half_length:-plain.half_length]
        assert np.abs(y.values - centers ** 2).max() <= 1e-9 * centers.max() ** 2

    def test_impulse_recovers_taps(self, plain):
        # y[n] = sum h[m] x[n-m] with a centered impulse traces the taps in
        # shift order (identical to the reversed sequence for symmetric h).
        n = 2 * plain.spec.m + 1
        x = np.zeros(n)
        x[n // 2] = 1.0
        y = convolve(SampleSequence(values=x), plain)
        lo = n // 2 - plain.half_length - y.start
        segment = y.values[lo:lo + plain.spec.m]
        assert np.allclose(segment, plain.h[::-1], atol=1e-15)
        assert np.allclose(segment, plain.h, atol=1e-15)

    def test_impulse_first_derivative_sign(self):
        filt = sg.design_preset("A", d=1)
        n = 2 * filt.spec.m + 1
        x = np.zeros(n)
        x[n // 2] = 1.0
        y = convolve(SampleSequence(values=x), filt)
        lo = n // 2 - filt.half_length - y.start
        segment = y.values[lo:lo + filt.spec.m]
        assert np.allclose(segment, filt.h, atol=1e-15)

    def test_short_input_rejected(self, plain):
        with pytest.raises(ValueError):
            convolve(SampleSequence(values=np.zeros(16)), plain)


class TestAnalyze:
    """A single window's coefficients: row 0 of the kernel over that window."""

    def test_recovers_known_coefficients(self, plain, rng):
        psi = plain.operators.psi
        alpha = rng.normal(size=psi.shape[1])
        window = psi @ alpha
        estimate = one_window(window, plain.operators.h_matrix)
        assert np.abs(estimate - alpha).max() <= 1e-9 * max(np.abs(alpha).max(), 1)

    def test_zero_window(self, plain):
        est = one_window(np.zeros(17), plain.operators.h_matrix)
        assert np.array_equal(est, np.zeros(5))

    def test_centered_pulse_quadratic_coefficient(self, plain):
        # Analytic fit of the centered pulse A(1 - (m/8)^2): alpha_2 = -A/64,
        # negative for the downward-opening (positive polarity) shape.
        amp = 4.0
        train, truth = sg.gen_pulse_train(amp, gap=30)
        feats = run_bank(SampleSequence(values=train), plain.operators.h_matrix)
        medium = [p for p in truth if p.kind == "quad-medium"][0]
        center = (medium.start + medium.stop - 1) // 2
        alpha2_center = feats.coeffs[center - feats.offset, 2]
        assert alpha2_center == pytest.approx(-medium.sign * amp / 64, rel=1e-9)
        positive = [p for p in truth if p.kind == "quad-small"][0]
        assert positive.sign == 1
        small_center = (positive.start + positive.stop - 1) // 2
        window = feats.coeffs[small_center - feats.offset]
        assert window[2] < 0


class TestSynthesize:
    def test_zero_coefficients(self, plain):
        assert np.array_equal(synthesize(np.zeros(5), plain.operators.psi),
                              np.zeros(17))

    def test_constant(self, plain):
        out = synthesize(np.array([2.5, 0, 0, 0, 0.0]), plain.operators.psi)
        assert np.allclose(out, 2.5, atol=1e-15)

    def test_roundtrip_on_polynomial(self, plain, rng):
        alpha = rng.normal(size=5)
        window = plain.operators.psi @ alpha
        back = synthesize(one_window(window, plain.operators.h_matrix),
                          plain.operators.psi)
        assert np.abs(back - window).max() <= 1e-9 * max(np.abs(window).max(), 1)

    def test_rejects_vector_of_other_length(self, plain):
        with pytest.raises(ValueError, match="does not match"):
            synthesize(np.zeros(4), plain.operators.psi)


class TestRunBank:
    def test_matches_per_row_convolution(self, plain, rng):
        x = rng.normal(size=200)
        feats = run_bank(SampleSequence(values=x), plain.operators.h_matrix)
        for row in range(5):
            # correlation with row r == convolution with the reversed row
            expected = np.convolve(x, plain.operators.h_matrix[row][::-1],
                                   mode="valid")
            assert np.abs(feats.coeffs[:, row] - expected).max() <= 1e-12

    def test_zeros(self, plain):
        feats = run_bank(SampleSequence(values=np.zeros(40)),
                         plain.operators.h_matrix)
        assert not np.any(feats.coeffs)
        assert len(feats) == 40 - 16
        assert feats.offset == 8

    def test_quartic_shift_of_basis(self, plain):
        # Oracle: on an exact quartic the local coefficients at center n0 are
        # the Taylor-shifted coefficients sum_p c_p C(p, l) n0^(p-l).
        coeffs = np.array([0.3, -1.2, 0.5, 0.02, -0.004])
        n = np.arange(60, dtype=float)
        x = sum(c * n ** p for p, c in enumerate(coeffs))
        feats = run_bank(SampleSequence(values=x), plain.operators.h_matrix)
        for i, center in enumerate(range(8, 52)):
            local = np.zeros(5)
            for p, c in enumerate(coeffs):
                for l in range(p + 1):
                    local[l] += c * math.comb(p, l) * float(center) ** (p - l)
            assert np.abs(feats.coeffs[i] - local).max() <= 1e-8 * max(
                np.abs(local).max(), 1.0), center

    def test_linearity(self, plain, rng):
        x = rng.normal(size=80)
        z = rng.normal(size=80)
        a, b = 1.7, -0.6
        left = run_bank(SampleSequence(values=a * x + b * z),
                        plain.operators.h_matrix).coeffs
        right = a * run_bank(SampleSequence(values=x),
                             plain.operators.h_matrix).coeffs \
            + b * run_bank(SampleSequence(values=z),
                           plain.operators.h_matrix).coeffs
        scale = max(np.abs(right).max(), 1.0)
        assert np.abs(left - right).max() <= 1e-10 * scale

    def test_sign_equivariance(self, plain, rng):
        x = rng.normal(size=60)
        pos = run_bank(SampleSequence(values=x), plain.operators.h_matrix).coeffs
        neg = run_bank(SampleSequence(values=-x), plain.operators.h_matrix).coeffs
        assert np.array_equal(neg, -pos)

    def test_short_input_rejected(self, plain):
        with pytest.raises(ValueError):
            run_bank(SampleSequence(values=np.zeros(10)), plain.operators.h_matrix)

    @pytest.mark.parametrize("label, m", BANKS)
    def test_matches_convolution_within_round_off(self, label, m, banks, rng):
        # Each row against an independent per-row np.convolve, within the
        # round-off bound of two length-M sums: 2 gamma_M sum |h||x|.
        h_matrix = banks[label, m].operators.h_matrix
        gamma = m * 2.0 ** -53 / (1 - m * 2.0 ** -53)
        # One window, two, and a last block that holds a single window.
        for n in (m, m + 1, block_windows(m) + m):
            x = rng.normal(size=n)
            feats = run_bank(SampleSequence(values=x), h_matrix)
            assert feats.coeffs.shape == (n - m + 1, h_matrix.shape[0])
            for row, taps in enumerate(h_matrix):
                expected = np.convolve(x, taps[::-1], mode="valid")
                bound = 2 * gamma * np.convolve(np.abs(x), np.abs(taps[::-1]),
                                                mode="valid")
                assert np.all(np.abs(feats.coeffs[:, row] - expected) <= bound)

    @pytest.mark.parametrize("label, m", [("A", 17), ("E", 257)])
    def test_every_row_equals_its_window_alone(self, label, m, banks, rng):
        h_matrix = banks[label, m].operators.h_matrix
        # A whole block, then one whole segment of 16 windows and part of
        # another.
        x = rng.normal(size=block_windows(m) + 21 + m)
        feats = run_bank(SampleSequence(values=x), h_matrix)
        bound = products_bound(x, h_matrix.T)
        for i, row in enumerate(feats.coeffs):
            assert_within(one_window(x[i:i + m], h_matrix), row, bound[i], i)


class TestStreaming:
    def test_identical_to_batch(self, plain, rng):
        # One sample a push, against the batch run within the round-off
        # bound of its M-term products.
        x = rng.normal(size=123)
        batch = run_bank(SampleSequence(values=x), plain.operators.h_matrix)
        stream = StreamingBank(plain.operators.h_matrix)
        collected = np.concatenate([stream.push(s) for s in x])
        assert_within(collected, batch.coeffs,
                      products_bound(x, plain.operators.h_matrix.T))

    @pytest.mark.parametrize("label, m", [("A", 17), ("E", 17), ("F", 17),
                                          ("C", 65), ("E", 257)])
    def test_random_chunkings_equal_batch(self, label, m, banks):
        # 20 chunkings per bank, chunk sizes log-uniform over 1..5000 so that
        # chunks shorter than the window occur as well as multi-block ones.
        h_matrix = banks[label, m].operators.h_matrix
        rng = np.random.default_rng(m)
        x = rng.normal(size=20000)
        batch = run_bank(SampleSequence(values=x), h_matrix).coeffs
        bound = products_bound(x, h_matrix.T)
        for _ in range(20):
            sizes = np.exp(rng.uniform(0, np.log(5000), size=64)).astype(int)
            assert_within(chunked(StreamingBank(h_matrix), x, sizes), batch,
                          bound)

    def test_reset(self, plain):
        stream = StreamingBank(plain.operators.h_matrix)
        for s in range(17):
            stream.push(float(s))
        stream.reset()
        assert stream.push(0.0).shape == (0, 5)

    def test_lays_its_matrix_out_once(self, plain, monkeypatch):
        # The layout is built with the stream, not again for each push.
        shapes = []

        def counted(m, width):
            shapes.append((m, width))
            return slab_shape(m, width)

        monkeypatch.setattr(analysis_bank, "slab_shape", counted)
        stream = StreamingBank(plain.operators.h_matrix)
        for s in range(100):
            stream.push(float(s))
        assert shapes == [(17, 5)]

    def test_rejects_two_dimensional_chunk(self, plain):
        with pytest.raises(ValueError):
            StreamingBank(plain.operators.h_matrix).push(np.zeros((2, 17)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_chunk_and_keeps_nothing_of_it(self, bad, plain):
        # A bad sample would reach the other windows of its band segment
        # (0 * NaN is NaN), so the kernel rejects it; the stream goes on as
        # if the chunk had never been pushed.
        x = np.random.default_rng(3).normal(size=60)
        stream = StreamingBank(plain.operators.h_matrix)
        head = stream.push(x[:30])
        chunk = x[30:45].copy()
        chunk[7] = bad
        with pytest.raises(ValueError, match="NaN or infinity"):
            stream.push(chunk)
        rows = np.concatenate([head, stream.push(x[30:])])
        batch = run_bank(SampleSequence(values=x), plain.operators.h_matrix)
        assert_within(rows, batch.coeffs,
                      products_bound(x, plain.operators.h_matrix.T))


class TestNonFiniteSamples:
    """The window kernel's entry points reject NaN and infinity."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_window_products(self, bad, plain):
        x = np.zeros(400)
        x[123] = bad
        with pytest.raises(ValueError, match="NaN or infinity"):
            window_products(x, plain.operators.h_matrix.T)
