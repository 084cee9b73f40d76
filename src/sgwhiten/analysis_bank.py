"""Apply designed filters and the full polynomial analysis bank to sequences.

Convolution emits interior (fully overlapped) samples only; no padding is
ever applied, and the half-window group delay is carried as alignment
metadata instead.  The bank runs all L analysis rows at once, producing a
per-sample vector of local monomial coefficient estimates from which a
polynomial segment can be re-synthesized.  One kernel, ``window_products``,
serves the bank, single windows and streamed chunks; ``shared_window_products``
runs several matrices (the detector's banks and residual factors) through it
in shared passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Bytes of windows per copied block, windows per product at most,
# multiply-adds per product at most (OpenBLAS threads larger products) and
# bytes of pass outputs shared_window_products holds at once.
BLOCK_BYTES = 1 << 19
SLAB_ROWS = 64
PRODUCT_MADDS = 1 << 18
RESIDUAL_BYTES = 1 << 19


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


def _windows(samples, m: int) -> np.ndarray:
    """Read-only (windows, M) view of every full window of the samples."""
    x = np.asarray(samples, dtype=float)
    # Overlapping windows; x.strides * 2 fits a 1-d x only, so others raise.
    return as_strided(x, (max(len(x) - m + 1, 0), m), x.strides * 2,
                      writeable=False)


def _products(windows: np.ndarray, matrix: np.ndarray, out: np.ndarray,
              block: np.ndarray) -> np.ndarray:
    """Rows windows @ matrix, by products of ``out``'s (slabs, rows, width)
    shape: the windows are copied into ``block`` and each product written
    into ``out``, which holds at least all the windows."""
    m, rows = matrix.shape[0], out.shape[1]
    for first in range(0, len(out), max(len(block), 1)):
        part = windows[first * rows:(first + len(block)) * rows]
        block.reshape(-1, m)[:len(part)] = part
        used = -(-len(part) // rows)
        np.matmul(block[:used], matrix, out=out[first:first + used])
    return out.reshape(len(out) * rows, out.shape[2])[:len(windows)]


def window_products(samples: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row i is x[i:i+M] @ matrix, for every full window of the samples.

    Windows are copied into blocks and multiplied by BLAS in products of one
    shape (``slab_shape``), the last one padded with zeros or earlier windows,
    so a row's bits depend only on its window and the matrix."""
    # Row-major: OpenBLAS took 1.7x as long with the transposed M = 17 bank.
    matrix = np.ascontiguousarray(matrix, dtype=float)
    m, width = matrix.shape
    windows = _windows(samples, m)
    rows, per_block = slab_shape(m, width)
    slabs = -(-len(windows) // rows)
    return _products(windows, matrix, np.empty((slabs, rows, width)),
                     np.zeros((min(per_block, slabs), rows, m)))


def shared_window_products(samples: np.ndarray, matrices):
    """``window_products`` of the samples through each of several M-row
    matrices, from as few window passes as fit, in slices of windows.

    Each matrix takes its width rounded up to a multiple of 8 (zero columns)
    and the matrices are packed left to right into passes of at most
    PRODUCT_MADDS // (M * SLAB_ROWS) columns, so every product keeps SLAB_ROWS
    windows.  A matrix wider than that once rounded runs alone, unpadded.
    OpenBLAS 0.3.31 (SkylakeX kernels) gives a column the same bits at any
    8-aligned place of such a pass, so a matrix's rows do not depend on what
    it is packed with.  Yields (first window, one row array per matrix) for
    consecutive slices of whole products of windows whose pass outputs take
    at most RESIDUAL_BYTES (one product at least).  The arrays are views into
    buffers that every slice reuses, so they hold their rows only until the
    next slice is asked for.
    """
    matrices = [np.asarray(matrix, dtype=float) for matrix in matrices]
    m = matrices[0].shape[0]
    limit = PRODUCT_MADDS // (m * SLAB_ROWS)
    passes = []                 # (matrix, [(matrix index, first column)])
    packs = []                  # [columns, members] of the packed passes
    for i, matrix in enumerate(matrices):
        padded = -(-matrix.shape[1] // 8) * 8
        if padded > limit:
            passes.append((np.ascontiguousarray(matrix), [(i, 0)]))
            continue
        if not packs or packs[-1][0] + padded > limit:
            packs.append([0, []])
        packs[-1][1].append((i, packs[-1][0]))
        packs[-1][0] += padded
    for columns, members in packs:
        stacked = np.zeros((m, columns))
        for i, first in members:
            stacked[:, first:first + matrices[i].shape[1]] = matrices[i]
        passes.append((stacked, members))
    windows = _windows(samples, m)
    # Product heights are powers of two, so the tallest is a multiple of all.
    tallest = max(slab_shape(m, matrix.shape[1])[0] for matrix, _ in passes)
    held = max(sum(matrix.shape[1] for matrix, _ in passes), 1)
    step = max(RESIDUAL_BYTES // (8 * held * tallest), 1) * tallest
    buffers = []
    for matrix, _ in passes:
        rows, per_block = slab_shape(m, matrix.shape[1])
        slabs = -(-min(step, len(windows)) // rows)
        buffers.append((np.empty((slabs, rows, matrix.shape[1])),
                        np.zeros((min(per_block, slabs), rows, m))))
    for start in range(0, len(windows), step):
        part = windows[start:start + step]
        outs = [None] * len(matrices)
        for (matrix, members), (out, block) in zip(passes, buffers):
            got = _products(part, matrix, out[:-(-len(part) // out.shape[1])],
                            block)
            for i, first in members:
                outs[i] = got[:, first:first + matrices[i].shape[1]]
        yield start, outs


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
