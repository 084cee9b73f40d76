"""Apply designed filters and the full polynomial analysis bank to sequences.

Convolution emits interior (fully overlapped) samples only; no padding is
ever applied, and the half-window group delay is carried as alignment
metadata instead.  The bank runs all L analysis rows at once, producing a
per-sample vector of local monomial coefficient estimates from which a
polynomial segment can be re-synthesized.  One kernel, ``window_products``,
serves the bank, single windows, streamed chunks and the detector's residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Bytes of windows per copied block, windows per product at most, and
# multiply-adds per product at most (OpenBLAS threads larger products).
BLOCK_BYTES = 1 << 19
SLAB_ROWS = 64
PRODUCT_MADDS = 1 << 18


@dataclass(frozen=True)
class SampleSequence:
    """Uniformly sampled values with their absolute start index."""

    values: np.ndarray
    start: int = 0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("sample sequence must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample sequence contains NaN or infinity")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FeatureSeries:
    """Per-sample coefficient vectors, center-indexed with group delay ``offset``.

    Row i holds the L coefficient estimates for the window centered on input
    sample ``offset + i``.
    """

    coeffs: np.ndarray
    offset: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 2:
            raise ValueError("feature series must be 2-d (samples x L)")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return len(self.coeffs)


def _taps(filt) -> np.ndarray:
    return np.asarray(getattr(filt, "h", filt), dtype=float)


def convolve(x: SampleSequence, filt) -> SampleSequence:
    """Filter a sequence, keeping only fully overlapped output samples.

    y[n] = sum over m of h[m] x[n - m], evaluated for the interior centers
    n = K..N-1-K; the output start index is shifted by K so that output
    sample i refers to the same absolute time as input sample i + K.
    """
    taps = _taps(filt)
    n = len(x)
    m = len(taps)
    if n < m:
        raise ValueError(f"input length {n} is shorter than the filter length {m}")
    k = (m - 1) // 2
    # y[n] = sum h[m] x[n-m] is the correlation of x with the reversed taps.
    interior = np.convolve(x.values, taps, mode="valid")
    return SampleSequence(values=interior, start=x.start + k)


def analyze(window: np.ndarray, h_matrix: np.ndarray) -> np.ndarray:
    """Coefficient estimates for one window: alpha = H x, centered coordinates."""
    window = np.asarray(window, dtype=float)
    if window.shape != (h_matrix.shape[1],):
        raise ValueError(
            f"window length {window.shape} does not match bank width {h_matrix.shape[1]}")
    return window_products(window, h_matrix.T)[0]


def slab_shape(m: int, width: int) -> tuple[int, int]:
    """Windows per product, 2^k >= 2, and products per block for an M x width
    matrix.  OpenBLAS 0.3.31 rounds a row differently with the product's shape,
    the row's place in a product of other than 2^k rows and the product's split
    between threads, and numpy sends one-row products down the vector path."""
    fit = PRODUCT_MADDS // (m * max(width, 1))
    rows = min(SLAB_ROWS, 1 << max(fit.bit_length() - 1, 1))
    return rows, max(BLOCK_BYTES // (8 * m * rows), 1)


def window_products(samples: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row i is x[i:i+M] @ matrix, for every full window of the samples.

    Windows are copied into blocks and multiplied by BLAS in products of one
    shape (``slab_shape``), the last one padded with zeros or earlier windows,
    so a row's bits depend only on its window and the matrix."""
    # Row-major: OpenBLAS took 1.7x as long with the transposed M = 17 bank.
    matrix = np.ascontiguousarray(matrix, dtype=float)
    m, width = matrix.shape
    x = np.asarray(samples, dtype=float)
    # Overlapping windows; x.strides * 2 fits a 1-d x only, so others raise.
    windows = as_strided(x, (max(len(x) - m + 1, 0), m), x.strides * 2,
                         writeable=False)
    rows, per_block = slab_shape(m, width)
    slabs = -(-len(windows) // rows)
    out = np.empty((slabs, rows, width))
    block = np.zeros((min(per_block, slabs), rows, m))
    for first in range(0, slabs, per_block):
        part = windows[first * rows:(first + per_block) * rows]
        block.reshape(-1, m)[:len(part)] = part
        used = -(-len(part) // rows)
        np.matmul(block[:used], matrix, out=out[first:first + used])
    return out.reshape(slabs * rows, width)[:len(windows)]


def synthesize(alpha: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Reconstruct the fitted polynomial segment over the window: psi alpha."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (psi.shape[1],):
        raise ValueError("coefficient vector length does not match basis")
    return psi @ alpha


def run_bank(x: SampleSequence, h_matrix: np.ndarray) -> FeatureSeries:
    """Slide the full analysis bank along a sequence.

    Equivalent to L parallel valid-region convolutions with the reversed rows
    of H; implemented as the windowed matrix product ``window_products``.
    """
    h_matrix = np.asarray(h_matrix, dtype=float)
    m = h_matrix.shape[1]
    if len(x) < m:
        raise ValueError(f"input length {len(x)} is shorter than the window {m}")
    k = (m - 1) // 2
    coeffs = window_products(x.values, h_matrix.T)
    return FeatureSeries(coeffs=coeffs, offset=x.start + k)


class StreamingBank:
    """Chunked run_bank that keeps the last M - 1 samples between pushes; the
    rows of all pushes equal the batch run bit for bit, however it is split."""

    def __init__(self, h_matrix: np.ndarray):
        self.h_matrix = np.asarray(h_matrix, dtype=float)
        self.reset()

    def push(self, samples) -> np.ndarray:
        """Append a scalar or 1-d chunk; return the (k, L) rows, k >= 0,
        that ``run_bank`` gives for the kept samples plus the chunk."""
        x = np.concatenate([self.tail, np.atleast_1d(np.asarray(samples, float))])
        self.tail = x[max(len(x) - self.h_matrix.shape[1] + 1, 0):].copy()
        return window_products(x, self.h_matrix.T)

    def reset(self) -> None:
        self.tail = np.empty(0)
