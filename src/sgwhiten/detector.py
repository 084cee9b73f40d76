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
transform per mask, so the statistic reads the coefficient columns directly.
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
residual form, V V' = W_s - W_s psi G^-1 psi' W_s.  ``residuals_and_rows``
gets the residuals and bank rows of several filters from one shared window
pass (``analysis_bank.shared_window_products``), in which V is padded with
zero columns to a multiple of 8 where that fits; ``residual_power`` runs
one V by the same rule, so a residual has the same bits alone or shared.

W is first rescaled to unit maximum element.  Both ratios are unchanged by
the scale of W except through eps, so the rescaling fixes the scale the
absolute guard eps is compared with.  It does not give eps the same weight
for every filter, because the fitted powers differ from filter to filter: at
the medium-pulse peak of the white-noise scenarios eps is 0.12-0.16 % of
preset A's background power but 1-2 % of preset C's.
Crossings of a decibel threshold by D become detection events; with
ground-truth pulse extents the per-pulse peak of Z can be extracted.

Detection is two steps: ``detection_statistics`` computes Z and D for the
coefficient rows of one series or of a stack of equal-length series (a
leading trace axis), and ``build_reports`` thresholds each series and takes its
peaks.  ``detect`` is the one-series case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math
import numbers

import numpy as np

from .analysis_bank import FeatureSeries, shared_window_products
from .errors import NotPositiveDefiniteError

DEFAULT_EPSILON = 1e-3
DEFAULT_GAMMA_DB = 20.0

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
    """Gram-block factors of one mask: p1 = |a @ foreground|^2 and
    p0 = |a @ background|^2 for a coefficient row a.

    ``foreground`` is L x |F| and holds C_F' in the rows F (zero elsewhere),
    so a @ foreground = (C_F a_F)' without gathering the columns; likewise
    ``background`` for B.  ``share`` is the noise share nu: the noise power
    in the fitted foreground per unit of residual power.
    """

    foreground: np.ndarray
    background: np.ndarray
    share: float


def _block_factor(u: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """L x |keep| matrix with C' in the rows ``keep``, C'C = G_keep,keep.

    C is the R factor of U's ``keep`` columns (the Cholesky factor of the
    block up to row signs), so the block itself is never formed and the
    factor exists whenever U does.
    """
    factor = np.zeros((u.shape[0], len(keep)))
    factor[keep] = np.linalg.qr(u[:, keep], mode="r").T
    factor.setflags(write=False)
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
        for name in ("u", "w_scaled", "psi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
            self._masks[masks] = MaskFactors(
                foreground=_block_factor(self.u, fore),
                background=_block_factor(self.u, back), share=share)
        return self._masks[masks]

    @cached_property
    def residual_factor(self) -> np.ndarray:
        """M x (M - L) factor V of the residual form
        Q = W_s - W_s psi G^-1 psi' W_s = V V', so that |V' x|^2 is the
        whitened residual power of the fit to window x.  Built on first use:
        the Z statistic alone does not need it."""
        # Q is formed in the basis scaled to unit column maxima: the same
        # projection, with a normal matrix far better conditioned at large M.
        basis = self.psi / np.abs(self.psi).max(axis=0)
        wb = self.w_scaled @ basis
        q = self.w_scaled - wb @ np.linalg.solve(basis.T @ wb, wb.T)
        # Q psi = 0, so Q has rank M - L: drop its L smallest eigenpairs.
        values, vectors = np.linalg.eigh(0.5 * (q + q.T))
        keep = slice(self.order, None)
        factor = vectors[:, keep] * np.sqrt(np.maximum(values[keep], 0.0))
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
        for name in ("z", "z_db", "decision_db", "events"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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


def _window_count(x: np.ndarray, m: int) -> int:
    if len(x) < m:
        raise ValueError(f"input length {len(x)} is shorter than the window {m}")
    return len(x) - m + 1


def residual_power(samples: np.ndarray, transform: OrthoTransform) -> np.ndarray:
    """Whitened residual power e' W_s e of the polynomial fit to every full
    window, aligned with the bank's feature series over the same samples:
    the sum of squares of the window's M - L outputs through the transform's
    residual factor, by the rule of ``residuals_and_rows``."""
    x = np.asarray(samples, dtype=float)
    power = np.empty(_window_count(x, transform.w_scaled.shape[0]))
    for first, (out,) in shared_window_products(x, [transform.residual_factor]):
        np.einsum("nk,nk->n", out, out, out=power[first:first + len(out)])
    return power


def residuals_and_rows(samples: np.ndarray, pairs):
    """For each (V, A) in ``pairs``, the sums of squares of x @ V and the
    rows x @ A, for every full window x of the samples: ([powers], [rows]).

    All come from shared window passes (``shared_window_products``), each
    V packed just before its A, over bounded slices of windows, so what is
    held beyond the results does not grow with the input.  A power or row
    depends only on its window and its own V or A, so a power equals
    ``residual_power`` of its V alone.
    """
    x = np.asarray(samples, dtype=float)
    n = _window_count(x, pairs[0][0].shape[0])
    powers = [np.empty(n) for _ in pairs]
    rows = [np.empty((n, a.shape[1])) for _, a in pairs]
    matrices = [matrix for pair in pairs for matrix in pair]
    for first, outs in shared_window_products(x, matrices):
        for power, row, out, cols in zip(powers, rows, outs[::2], outs[1::2]):
            stop = first + len(out)
            np.einsum("nk,nk->n", out, out, out=power[first:stop])
            row[first:stop] = cols
    return powers, rows


def _powers(coeffs: np.ndarray, transform: OrthoTransform,
            masks: HypothesisMask, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Fitted foreground and background powers |C_F a_F|^2, |C_B a_B|^2 per
    coefficient row, equal to |U a1|^2 and |U a0|^2.  ``coeffs`` is
    (samples, L) or (traces, samples, L); numpy makes one BLAS product per
    trace, so a trace's rows do not change when it is stacked with others."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"denominator guard epsilon must be positive and "
                         f"finite, got {epsilon!r}")
    factors = transform.mask_factors(masks)
    fore = coeffs @ factors.foreground
    back = coeffs @ factors.background
    return (np.einsum("...ij,...ij->...i", fore, fore),
            np.einsum("...ij,...ij->...i", back, back))


def compute_statistic(features: FeatureSeries, transform: OrthoTransform,
                      masks: HypothesisMask = DEFAULT_MASKS,
                      epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Fitted foreground-to-background power ratio Z per sample.

    Returns the linear-scale series aligned with ``features``; use
    ``to_decibels`` for the dB form.  ``epsilon`` guards the denominator and
    must be positive.
    """
    return power_ratio(features.coeffs, transform, masks, epsilon)


def power_ratio(coeffs: np.ndarray, transform: OrthoTransform,
                masks: HypothesisMask = DEFAULT_MASKS,
                epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Z = p1 / (p0 + eps) of coefficient rows, (samples, L) or
    (traces, samples, L), with the shape of the rows."""
    p1, p0 = _powers(coeffs, transform, masks, epsilon)
    return p1 / (p0 + epsilon)


def to_decibels(z: np.ndarray) -> np.ndarray:
    """10 log10 of a power ratio; -inf where the ratio is zero."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(z, dtype=float))


def _check_threshold(gamma_db: float) -> None:
    if not math.isfinite(gamma_db):
        raise ValueError(
            f"detection threshold gamma_db must be finite, got {gamma_db!r}")


def threshold_detect(z_db: np.ndarray, gamma_db: float = DEFAULT_GAMMA_DB,
                     offset: int = 0) -> np.ndarray:
    """Absolute sample indices where the statistic exceeds the threshold,
    which must be finite."""
    _check_threshold(gamma_db)
    return np.nonzero(np.asarray(z_db) > gamma_db)[0] + offset


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


def detection_statistics(coeffs: np.ndarray, transform: OrthoTransform,
                         residual: np.ndarray,
                         masks: HypothesisMask = DEFAULT_MASKS,
                         epsilon: float = DEFAULT_EPSILON):
    """Z, Z in dB and D in dB of coefficient rows, (samples, L) or
    (traces, samples, L), with ``residual`` the ``residual_power`` rows of
    the same windows, shaped like the rows."""
    p1, p0 = _powers(coeffs, transform, masks, epsilon)
    residual = np.asarray(residual, dtype=float)
    if residual.shape != p1.shape:
        raise ValueError(f"residual has shape {residual.shape}, features "
                         f"{p1.shape}; both must cover the same windows")
    denominator = p0 + epsilon
    z = p1 / denominator
    noise = transform.mask_factors(masks).share * residual
    return z, to_decibels(z), to_decibels(np.maximum(p1 - noise, 0.0) / denominator)


def build_reports(z: np.ndarray, z_db: np.ndarray, decision_db: np.ndarray,
                  offset: int, gamma_db: float = DEFAULT_GAMMA_DB,
                  pulse_extents=None,
                  half_window: int | None = None) -> list[DetectionReport]:
    """Threshold D and assemble one report per series of a stack
    (traces, samples) whose first rows are all at absolute sample ``offset``.

    ``pulse_extents`` (with ``half_window``) adds per-pulse peak SNR values
    of Z for ground-truth supports shared by the series.  ``gamma_db`` must
    be finite.
    """
    _check_threshold(gamma_db)
    above = np.asarray(decision_db) > gamma_db
    peaks = [()] * len(z)
    if pulse_extents is not None:
        if half_window is None:
            raise ValueError("half_window is required alongside pulse_extents")
        columns = peak_snr(z_db, pulse_extents, offset, half_window)
        if columns:
            peaks = list(zip(*(column.tolist() for column in columns)))
    return [DetectionReport(z=z[i], z_db=z_db[i], decision_db=decision_db[i],
                            gamma_db=gamma_db,
                            events=above[i].nonzero()[0] + offset, offset=offset,
                            peak_snr_db=peaks[i])
            for i in range(len(z))]


def detect(features: FeatureSeries, transform: OrthoTransform,
           residual: np.ndarray,
           masks: HypothesisMask = DEFAULT_MASKS,
           epsilon: float = DEFAULT_EPSILON,
           gamma_db: float = DEFAULT_GAMMA_DB,
           pulse_extents=None, half_window: int | None = None) -> DetectionReport:
    """Run both statistics, threshold D, and assemble a report.

    ``residual`` is the ``residual_power`` series of the samples behind
    ``features``.  ``pulse_extents`` (with ``half_window``) adds per-pulse
    peak SNR values of Z for ground-truth supports.
    """
    stats = detection_statistics(features.coeffs, transform, residual, masks,
                                 epsilon)
    return build_reports(*(series[None] for series in stats), features.offset,
                         gamma_db, pulse_extents, half_window)[0]
