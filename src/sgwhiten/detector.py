"""Quadratic-pulse detection statistics built on an orthonormalized basis.

Both statistics weigh fitted foreground power (the quadratic coefficient
alone) against fitted background power (everything except the constant and
quadratic terms), measured in the metric G = psi' W_s psi of the filter's
own weight matrix.  With a1, a0 the masked coefficient vectors and U the
Cholesky factor of G, the powers are |U a1|^2 and |U a0|^2:

    Z[n] = p1[n] / (p0[n] + eps)
    D[n] = max(p1[n] - nu r[n], 0) / (p0[n] + eps)

Each power is a quadratic form in the kept coefficients only, so it needs
only the matching block of G.  With F the foreground indices, B the
background ones and C_F, C_B upper-triangular factors of the blocks
(C_F'C_F = G_FF, C_B'C_B = G_BB),

    p1 = |C_F a_F|^2 = |U a1|^2        p0 = |C_B a_B|^2 = |U a0|^2

which for the default mask is p1 = G_22 a_2^2.  The factors are kept on the
transform per mask, side by side in one L x (|F| + |B|) matrix, which bank
rows take in blocks of at most ``STAT_ROWS``.  Folded into the analysis
matrix (``OrthoTransform.window_factors``) it gives p1 and p0 of windows.
Z, the fitted foreground to background ratio, is the per-pulse peak SNR.  D
is the detection statistic: its numerator is the foreground power less the
share that noise alone puts there.  Under the filter's noise model (noise
covariance proportional to W^-1) the whitened residual of the window fit,
r = e' W_s e, holds M - L noise dimensions and the fitted foreground holds
tr(G_FF (G^-1)_FF) of them, so

    nu = tr(G_FF (G^-1)_FF) / (M - L)

makes nu r an unbiased estimate of the noise in p1.  The factor is large
where the metric makes the quadratic column nearly collinear with the others
(about 724 for the wide-band preset F at M = 17, 1.2-7.7 for the rest).
D <= Z, so every event is also a Z crossing.  The residual is the sum of
squares of M - L FIR outputs, through the columns of a factor V of the
residual form, V V' = W_s - W_s psi G^-1 psi' W_s, built from one Cholesky
factor of W_s and one QR without forming the form.  So p1, p0 and r of
several filters come from one window pass over their [H'C_F, H'C_B, V]
(``analysis_bank.window_power_sums``).

The numerical contract is a round-off bound, not bits (see
``analysis_bank``): powers alone or in a shared pass, from rows or windows,
a row's statistics in any block, and a trace's reports alone or batched
agree within the bound of their products, carried through the sums of
squares, on every BLAS kernel.

W is first rescaled to unit maximum element.  Both ratios are unchanged by
the scale of W except through eps, so the rescaling fixes the scale the
absolute guard eps is compared with.  It does not give eps the same weight
for every filter, because the fitted powers differ from filter to filter: at
the medium-pulse peak of the white-noise scenarios eps is 0.12-0.16 % of
preset A's background power but 1-2 % of preset C's.
Crossings of a decibel threshold by D become detection events; with
ground-truth pulse extents the per-pulse peak of Z can be extracted.

Detection is two steps: ``detection_statistics`` computes Z and D from the
powers, and ``build_reports`` thresholds each series of a stack (traces,
samples) of its outputs and takes its peaks.  ``detect`` is the one-series
case for bank rows, ``compute_statistic`` Z alone of bank rows, and
``threshold_detect`` the one crossing rule, for Z or D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math
import numbers

import numpy as np

from .analysis_bank import FeatureSeries, _freeze
from .errors import NotPositiveDefiniteError

DEFAULT_EPSILON = 1e-3
DEFAULT_GAMMA_DB = 20.0
# Coefficient rows per block of the statistic: a block's buffers stay in
# cache and within glibc's 128 KiB mmap threshold (see README).
STAT_ROWS = 4096

# Decibel floor applied when serializing; in-memory values may be -inf.
DB_FLOOR = -300.0


@dataclass(frozen=True)
class HypothesisMask:
    """Index sets defining the foreground and background hypotheses.

    The defaults keep only the quadratic term (l = 2) in the foreground and
    zero the constant and quadratic terms (l = 0, 2) in the background, so
    dc offsets never count and odd or quartic content counts against a pulse.

    Indices are non-negative integers and the foreground names at least one
    term; an index beyond the L terms of a fit is a ValueError where the
    mask meets that order.
    """

    foreground_keep: tuple[int, ...] = (2,)
    background_zero: tuple[int, ...] = (0, 2)

    def __post_init__(self) -> None:
        for name in ("foreground_keep", "background_zero"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or not all(
                    isinstance(i, numbers.Integral) and not isinstance(i, bool)
                    and i >= 0 for i in value):
                raise ValueError(
                    f"{name} must list non-negative integer indices, got {value!r}")
            object.__setattr__(self, name, tuple(int(i) for i in value))
        if not self.foreground_keep:
            raise ValueError("foreground_keep must name at least one term")

    def _indices(self, name: str, order: int) -> list[int]:
        indices = list(getattr(self, name))
        if max(indices, default=-1) >= order:
            raise ValueError(f"{name} index {max(indices)} is out of range for "
                             f"a fit of {order} terms")
        return indices

    def foreground_vector(self, order: int) -> np.ndarray:
        mask = np.zeros(order)
        mask[self._indices("foreground_keep", order)] = 1.0
        return mask

    def background_vector(self, order: int) -> np.ndarray:
        mask = np.ones(order)
        mask[self._indices("background_zero", order)] = 0.0
        return mask


DEFAULT_MASKS = HypothesisMask()


@dataclass(frozen=True)
class MaskFactors:
    """Gram-block factors of one mask side by side: for a coefficient row a,
    a @ joined = [(C_F a_F)' | (C_B a_B)'], so p1 and p0 are the sums of
    squares of its first ``split`` = |F| entries and of the rest.

    ``joined`` is L x (|F| + |B|), C_F' in the rows F of the first |F|
    columns and C_B' in the rows B of the others, zero elsewhere.  ``share``
    is the noise share nu: the noise power in the fitted foreground per unit
    of residual power.
    """

    joined: np.ndarray
    split: int
    share: float


def _block_factor(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """L x |keep| matrix with C' in the rows ``keep``, C'C = G_keep,keep.

    C is the R factor of U's ``keep`` columns (the Cholesky factor of the
    block up to row signs), so the block itself is never formed and the
    factor exists whenever U does.
    """
    factor = np.zeros((u.shape[0], len(keep)))
    factor[keep] = np.linalg.qr(u[:, keep], mode="r").T
    return factor


@dataclass(frozen=True)
class OrthoTransform:
    """Upper-triangular U with U'U = G = psi' W_s psi, the rescaled W_s, and
    the basis psi."""

    u: np.ndarray
    w_scaled: np.ndarray
    psi: np.ndarray
    # MaskFactors by mask, filled on first use
    _masks: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self) -> None:
        _freeze(self, "u", "w_scaled", "psi")

    @property
    def order(self) -> int:
        return self.u.shape[0]

    def mask_factors(self, masks: HypothesisMask) -> MaskFactors:
        """The Gram-block factors and noise share of a mask, built on its
        first use and kept."""
        if masks not in self._masks:
            fore = np.flatnonzero(masks.foreground_vector(self.order))
            back = np.flatnonzero(masks.background_vector(self.order))
            residual_dims = self.w_scaled.shape[0] - self.order
            # Noise with covariance s W_s^-1 puts s tr(G_FF (G^-1)_FF) into the
            # foreground power and s (M - L) into the residual power.
            # G_FF = P'P and (G^-1)_FF = R R' with P the foreground columns
            # of U and R the foreground rows of U^-1.
            cols = self.u[:, fore]
            rows = np.linalg.inv(self.u)[fore]
            dims = np.sum((cols.T @ cols) * (rows @ rows.T))
            # With L = M the fit is exact: no residual, and no noise estimate
            # from it.
            share = float(dims / residual_dims) if residual_dims else 0.0
            joined = np.hstack([_block_factor(self.u, fore),
                                _block_factor(self.u, back)])
            joined.setflags(write=False)
            self._masks[masks] = MaskFactors(joined=joined, split=len(fore),
                                             share=share)
        return self._masks[masks]

    def window_factors(self, h_matrix: np.ndarray, masks: HypothesisMask):
        """H'C_F and H'C_B (M x |F|, M x |B|) of an L x M analysis matrix H
        and a mask: a window x's products through them are its bank row
        x H' through C_F and C_B, whose sums of squares are p1 and p0."""
        factors = self.mask_factors(masks)
        fused = np.asarray(h_matrix, dtype=float).T @ factors.joined
        return fused[:, :factors.split], fused[:, factors.split:]

    @cached_property
    def residual_factor(self) -> np.ndarray:
        """M x (M - L) factor V of the residual form
        Q = W_s - W_s psi G^-1 psi' W_s = V V', so that |V' x|^2 is the
        whitened residual power of the fit to window x.  Built on first use:
        the Z statistic alone does not need it.

        With W_s = C C' (Cholesky) and C' psi = [Q1 Q2] [R; 0] (complete
        QR), Q = C (I - Q1 Q1') C' = C Q2 Q2' C', so V = C Q2: its columns
        span the whitened complement of the basis, and Q is never formed.
        Raises NotPositiveDefiniteError when W_s has no Cholesky factor."""
        try:
            lower = np.linalg.cholesky(self.w_scaled)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "the weight matrix is not positive definite; the residual "
                "form has no factor") from exc
        q = np.linalg.qr(lower.T @ self.psi, mode="complete").Q
        factor = lower @ q[:, self.order:]
        factor.setflags(write=False)
        return factor


@dataclass(frozen=True)
class DetectionReport:
    """Statistic series with threshold crossings and optional per-pulse peaks.

    ``offset`` maps series index i to the absolute input sample i + offset.
    """

    z: np.ndarray
    z_db: np.ndarray
    decision_db: np.ndarray       # detection statistic D in dB
    gamma_db: float
    events: np.ndarray            # absolute sample indices with D_dB > gamma
    offset: int
    peak_snr_db: tuple = ()       # per-pulse peaks of Z, set when ground truth known

    def __post_init__(self) -> None:
        _freeze(self, "z", "z_db", "decision_db", "events", dtype=None)


def build_ortho_transform(psi: np.ndarray, weight: np.ndarray) -> OrthoTransform:
    """Cholesky-orthonormalize the monomial basis under a weight matrix.

    The weight is rescaled to unit maximum element before forming
    psi' W_s psi; the guard eps is an absolute constant, so this fixes the
    scale it is compared with.  Raises NotPositiveDefiniteError when the
    metric is not positive definite (no orthonormal basis exists in that
    case).
    """
    w = np.asarray(weight, dtype=float)
    peak = w.max()
    if peak <= 0:
        raise NotPositiveDefiniteError("weight matrix has no positive elements")
    w_scaled = w / peak
    gram = psi.T @ w_scaled @ psi
    gram = 0.5 * (gram + gram.T)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "psi' W psi is not positive definite; cannot orthonormalize") from exc
    return OrthoTransform(u=lower.T.copy(), w_scaled=w_scaled,
                          psi=np.array(psi, dtype=float))


def _sum_squares(part: np.ndarray, out: np.ndarray, spare: np.ndarray) -> None:
    """Row sums of squares of ``part``'s columns into ``out``, one pass over
    the rows per column, each square after the first added through
    ``spare``, a buffer shaped like ``out``."""
    for j in range(part.shape[1]):
        if j:
            out += np.square(part[:, j], out=spare)
        else:
            np.square(part[:, j], out=out)
    if not part.shape[1]:
        out.fill(0.0)


def _guard(epsilon: float) -> float:
    """The guard eps of Z's and D's denominator, if positive and finite."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"denominator guard epsilon must be positive and "
                         f"finite, got {epsilon!r}")
    return epsilon


def _powers(coeffs: np.ndarray, transform: OrthoTransform,
            masks: HypothesisMask):
    """Yields the row slice, p1 = |C_F a_F|^2 and p0 = |C_B a_B|^2 of each
    block of at most ``STAT_ROWS`` coefficient rows (samples, L), in buffers
    the next block reuses; a block moves a row's powers by round-off only."""
    if coeffs.ndim != 2:
        raise ValueError(f"coefficient rows must be 2-d, got shape {coeffs.shape}")
    factors = transform.mask_factors(masks)
    split, width = factors.split, factors.joined.shape[1]
    rows = max(min(len(coeffs), STAT_ROWS), 1)
    product = np.empty((rows, width))
    p1, p0, spare = (np.empty(rows) for _ in range(3))
    for start in range(0, len(coeffs), rows):
        block = coeffs[start:start + rows]
        count = len(block)
        part = np.matmul(block, factors.joined, out=product[:count])
        _sum_squares(part[:, :split], p1[:count], spare[:count])
        _sum_squares(part[:, split:], p0[:count], spare[:count])
        yield slice(start, start + count), p1[:count], p0[:count]


def compute_statistic(features, transform: OrthoTransform,
                      masks: HypothesisMask = DEFAULT_MASKS,
                      epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Fitted foreground-to-background power ratio Z = p1 / (p0 + eps).

    ``features`` is a ``FeatureSeries`` or its coefficient rows (samples, L);
    Z has one value per row, linear scale (``to_decibels`` gives the dB
    form), and the rows around a row move its Z only by the round-off of
    its products.  Rows that are not 2-d are a ValueError.  ``epsilon``
    guards the denominator and must be positive and finite.
    """
    coeffs = np.asarray(getattr(features, "coeffs", features), dtype=float)
    z = np.empty(coeffs.shape[:-1])
    epsilon = _guard(epsilon)
    for at, p1, p0 in _powers(coeffs, transform, masks):
        np.divide(p1, np.add(p0, epsilon, out=p0), out=z[at])
    return z


def to_decibels(z: np.ndarray) -> np.ndarray:
    """10 log10 of a power ratio; -inf where the ratio is zero.  Scales in
    place, so the result is the only new array."""
    with np.errstate(divide="ignore"):
        decibels = np.log10(np.asarray(z, dtype=float))
    decibels *= 10.0
    return decibels


def threshold_detect(z_db: np.ndarray, gamma_db: float = DEFAULT_GAMMA_DB,
                     offset: int = 0) -> np.ndarray:
    """Absolute sample indices where a 1-d dB series exceeds the threshold,
    which must be finite; ValueError for a series that is not 1-d, or a
    threshold that is not finite."""
    if not math.isfinite(gamma_db):
        raise ValueError(
            f"detection threshold gamma_db must be finite, got {gamma_db!r}")
    z_db = np.asarray(z_db)
    if z_db.ndim != 1:
        raise ValueError(f"a dB series must be 1-d, got shape {z_db.shape}")
    return np.nonzero(z_db > gamma_db)[0] + offset


def peak_snr(z_db: np.ndarray, extents, offset: int, half_window: int) -> list:
    """Peak statistic within each pulse extent, in dB.

    ``extents`` are (start, stop) half-open supports in absolute sample
    indices; each is widened by the half window on both sides before taking
    the maximum, so any analysis window overlapping the pulse counts.  A
    series gives one float per extent; a stack of series (traces, samples)
    gives one array of per-trace peaks per extent.  Raises ValueError when an
    extent has no overlap with the series.
    """
    z_db = np.asarray(z_db)
    peaks = []
    for start, stop in extents:
        lo = max(start - half_window, offset)
        hi = min(stop + half_window, offset + z_db.shape[-1])
        if lo >= hi:
            raise ValueError(
                f"pulse extent [{start}, {stop}) lies outside the analyzed range")
        peak = z_db[..., lo - offset:hi - offset].max(axis=-1)
        peaks.append(float(peak) if peak.ndim == 0 else peak)
    return peaks


def detection_statistics(p1: np.ndarray, p0: np.ndarray, residual: np.ndarray,
                         share: float, epsilon: float = DEFAULT_EPSILON):
    """Z, Z in dB and D in dB of foreground, background and residual powers
    p1, p0 and r of one shape, ``share`` the mask's noise share nu: Z = p1 /
    (p0 + eps), D = max(p1 - nu r, 0) / (p0 + eps).  Allocates only its
    outputs.  ``epsilon`` must be positive and finite."""
    p1, p0, residual = (np.asarray(a, dtype=float) for a in (p1, p0, residual))
    if not p1.shape == p0.shape == residual.shape:
        raise ValueError(f"powers of shapes {p1.shape}, {p0.shape} and "
                         f"{residual.shape} must cover the same windows")
    z, z_db, decision_db = (np.empty(p1.shape) for _ in range(3))
    # The denominator lives in D's output until D's ratio is complete.
    denominator = np.add(p0, _guard(epsilon), out=decision_db)
    np.divide(p1, denominator, out=z)
    d = np.multiply(residual, share, out=z_db)
    np.maximum(np.subtract(p1, d, out=d), 0.0, out=d)
    np.divide(d, denominator, out=d)
    with np.errstate(divide="ignore"):
        np.multiply(np.log10(d, out=decision_db), 10.0, out=decision_db)
        np.multiply(np.log10(z, out=z_db), 10.0, out=z_db)
    return z, z_db, decision_db


def build_reports(z: np.ndarray, z_db: np.ndarray, decision_db: np.ndarray,
                  offset: int, gamma_db: float, pulse_extents,
                  half_window: int) -> list[DetectionReport]:
    """Threshold D (``threshold_detect``) and assemble one report per series
    of a stack (traces, samples) whose first rows are all at absolute sample
    ``offset``.

    ``pulse_extents``, unless None, adds per-pulse peak SNR values of Z for
    ground-truth supports shared by the series, each widened by
    ``half_window``.  ``gamma_db`` must be finite.
    """
    peaks = [()] * len(z)
    if pulse_extents is not None:
        columns = peak_snr(z_db, pulse_extents, offset, half_window)
        if columns:
            peaks = list(zip(*(column.tolist() for column in columns)))
    return [DetectionReport(z=z[i], z_db=z_db[i], decision_db=decision_db[i],
                            gamma_db=gamma_db,
                            events=threshold_detect(decision_db[i], gamma_db,
                                                    offset),
                            offset=offset, peak_snr_db=peaks[i])
            for i in range(len(z))]


def detect(features: FeatureSeries, transform: OrthoTransform,
           residual: np.ndarray,
           masks: HypothesisMask = DEFAULT_MASKS,
           epsilon: float = DEFAULT_EPSILON,
           gamma_db: float = DEFAULT_GAMMA_DB,
           pulse_extents=None) -> DetectionReport:
    """Run both statistics, threshold D, and assemble a report.

    ``residual`` is the residual power of each window behind ``features``.
    ``pulse_extents`` adds per-pulse peak SNR values of Z for ground-truth
    supports, each widened by the half window of the transform's M.
    """
    p1, p0 = (np.empty(len(features.coeffs)) for _ in range(2))
    for at, fore, back in _powers(features.coeffs, transform, masks):
        p1[at], p0[at] = fore, back
    stats = detection_statistics(p1, p0, residual,
                                 transform.mask_factors(masks).share, epsilon)
    return build_reports(*(series[None] for series in stats), features.offset,
                         gamma_db, pulse_extents,
                         (transform.w_scaled.shape[0] - 1) // 2)[0]
