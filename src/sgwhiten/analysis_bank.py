"""Apply designed filters and the full polynomial analysis bank to sequences.

Convolution emits interior (fully overlapped) samples only; no padding is
ever applied, and the half-window group delay is carried as alignment
metadata instead.  The bank runs all L analysis rows at once, producing a
per-sample vector of local monomial coefficient estimates from which a
polynomial segment can be re-synthesized.  One kernel serves the bank,
streamed chunks and the detector's window matrices: ``window_products``
runs one matrix, ``StreamingBank`` keeps one matrix's layout across chunks,
and ``window_power_sums`` runs several matrices side by side in one pass and
keeps only each window's sum of squares.  Coefficient rows come from
``run_bank`` alone, so they never depend on what else a pass holds.

The kernel copies samples into blocks of about BLOCK_BYTES and multiplies
each block by the matrix in one BLAS product, through a layout (``_Layout``)
built once per matrix (``slab_shape``).  A narrow matrix, such as an L-row
bank, is laid out as a band: one product row is a segment of P + M - 1
samples and gives the rows of P = 16 consecutive windows, so each window
costs (P + M - 1) / P copied samples instead of M.  Every other matrix takes
one window a product row.
Samples must be finite: a zero of the band times NaN is NaN, which would
reach the other windows of a segment.

A row is its window's M-term dot products with the matrix, summed in an
order the BLAS kernel picks.  Two computations of a row, in any layout,
chunking or pass, agree within 2 gamma_M sum|h||x| per output,
gamma_M = M u / (1 - M u) (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 3.1), on every kernel; their bits are not a contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Bytes of segments per copied block and bytes of pass outputs
# window_power_sums holds at once.
BLOCK_BYTES = 1 << 19
RESIDUAL_BYTES = 1 << 19
# Windows per segment of a banded matrix and the widest matrix banded
# (slab_shape).
BAND_WINDOWS = 16
BAND_WIDTH = 8


def _freeze(record, *names, dtype=float) -> None:
    """Set each named field of a frozen record to a read-only view of it as
    an array of ``dtype``: the record cannot write to it, and the caller's
    own array stays writable."""
    for name in names:
        view = np.asarray(getattr(record, name), dtype=dtype).view()
        view.setflags(write=False)
        object.__setattr__(record, name, view)


def _checked(samples) -> np.ndarray:
    """The samples as a 1-d float array; ValueError unless they are 1-d and
    all finite."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample sequence must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample sequence contains NaN or infinity")
    return x


@dataclass(frozen=True)
class SampleSequence:
    """Uniformly sampled values with their absolute start index."""

    values: np.ndarray
    start: int = 0

    def __post_init__(self) -> None:
        _freeze(self, "values")
        _checked(self.values)

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
        _freeze(self, "coeffs")
        if self.coeffs.ndim != 2:
            raise ValueError("feature series must be 2-d (samples x L)")

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


def slab_shape(m: int, width: int) -> tuple[int, int, int]:
    """Windows per product row P, columns per product and segments per
    copied block for an M x width matrix.

    A matrix of at most BAND_WIDTH columns is banded (``_Layout``) with
    P = BAND_WINDOWS at any M, P * width columns; any other matrix has
    P = 1, one window a row.  A block of segments of P + M - 1 samples takes
    about BLOCK_BYTES."""
    p = BAND_WINDOWS if 0 < width <= BAND_WIDTH else 1
    return p, p * width, max(BLOCK_BYTES // (8 * (p + m - 1)), 1)


class _Layout:
    """An M x width matrix laid out once for the window kernel: its banding
    and block size (``slab_shape``), its band and the block segments are
    copied into.
    The band is the (P + M - 1) x columns block-Toeplitz matrix B with
    B[t + j, t * width + c] = matrix[j, c], zero elsewhere: a segment
    x[s:s + P + M - 1] times B holds the rows x[s + t:s + t + M] @ matrix,
    t < P, side by side.  With P = 1 it is a row-major copy of the matrix
    (OpenBLAS took 1.7x as long with the transposed M = 17 bank)."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        m, self.width = matrix.shape
        self.p, columns, self.per_block = slab_shape(m, self.width)
        self.band = np.zeros((self.p + m - 1, columns))
        for t in range(self.p):
            self.band[t:t + m, t * self.width:(t + 1) * self.width] = matrix
        self.block = np.zeros((0, self.p + m - 1))

    def out(self, windows: int) -> np.ndarray:
        """An output buffer of whole segments for ``windows`` windows."""
        return np.empty((-(-windows // self.p), self.band.shape[1]))

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Rows x[i:i+M] @ matrix for every full window of the finite 1-d x,
        written into the first rows of ``out`` (a fresh ``out(windows)`` if
        None).  Segments of P + M - 1 samples, P apart, are copied a block
        at a time (the last, if x ends inside it, padded with zeros) and
        each block is multiplied by the band in one product."""
        p = self.p
        depth, columns = self.band.shape
        windows = max(len(x) - depth + p, 0)
        segments = -(-windows // p)
        out = self.out(windows) if out is None else out[:segments]
        size = min(self.per_block, segments)
        if len(self.block) < size:
            self.block = np.zeros((size, depth))
        stride = x.strides[0]
        # Overlapping segments, P apart; the last one may run past x.
        whole = as_strided(x, (max((len(x) - depth) // p + 1, 0), depth),
                           (p * stride, stride), writeable=False)
        for lo in range(0, segments, max(size, 1)):
            block = self.block[:min(size, segments - lo)]
            part = whole[lo:lo + len(block)]
            block[:len(part)] = part
            if len(part) < len(block):
                tail = x[(lo + len(part)) * p:]
                block[-1, :len(tail)] = tail
                block[-1, len(tail):] = 0.0
            np.matmul(block, self.band, out=out[lo:lo + len(block)])
        return out.reshape(segments * p, columns // p)[:windows]


def window_products(samples: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row i is x[i:i+M] @ matrix, for every full window of the samples,
    which must be 1-d and finite (else ValueError), through the matrix's
    ``_Layout``."""
    return _Layout(matrix)(_checked(samples))


def window_power_sums(samples: np.ndarray, matrices) -> list:
    """For each of several M-row matrices, the sum of squares of each row of
    the samples' ``window_products`` through it, from one window pass; []
    for no matrix.

    The matrices are laid side by side, each at its own width, in one
    ``_Layout``, banded as ``window_products`` bands any narrow matrix.  A
    matrix's sums agree with those of it alone within the round-off of its
    M-term products, whatever it is laid beside.  The pass runs over
    consecutive slices of windows whose outputs take at most RESIDUAL_BYTES,
    into one buffer that every slice reuses, so what is held beyond the sums
    does not grow with the input.  ValueError unless the samples are 1-d and
    finite and the matrices have one row count.
    """
    x = _checked(samples)
    matrices = [np.asarray(matrix, dtype=float) for matrix in matrices]
    if not matrices:
        return []
    counts = sorted({len(matrix) for matrix in matrices})
    if len(counts) > 1:
        raise ValueError(f"matrices have {counts} rows; they need one window "
                         "length")
    m = counts[0]
    layout = _Layout(np.hstack(matrices))
    edges = np.cumsum([0] + [matrix.shape[1] for matrix in matrices])
    windows = max(len(x) - m + 1, 0)
    step = max(RESIDUAL_BYTES // (8 * max(layout.width, 1)), 1)
    out = layout.out(min(step, windows))
    sums = [np.empty(windows) for _ in matrices]
    for start in range(0, windows, step):
        rows = layout(x[start:start + step + m - 1], out)
        for lo, hi, total in zip(edges, edges[1:], sums):
            got = rows[:, lo:hi]
            np.einsum("nk,nk->n", got, got, out=total[start:start + len(got)])
    return sums


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
    rows of all pushes agree with the batch run within the round-off of
    their M-term products, however it is split.
    The matrix is laid out for the window kernel once, on construction.  A
    chunk that is not 1-d and finite raises ValueError and is not kept."""

    def __init__(self, h_matrix: np.ndarray):
        self.h_matrix = np.asarray(h_matrix, dtype=float)
        self._layout = _Layout(self.h_matrix.T)
        self.reset()

    def push(self, samples) -> np.ndarray:
        """Append a scalar or 1-d chunk; return the (k, L) rows, k >= 0,
        that ``run_bank`` gives for the kept samples plus the chunk."""
        x = np.concatenate([self.tail, np.atleast_1d(np.asarray(samples, float))])
        rows = self._layout(_checked(x))
        self.tail = x[max(len(x) - self.h_matrix.shape[1] + 1, 0):].copy()
        return rows

    def reset(self) -> None:
        self.tail = np.empty(0)
