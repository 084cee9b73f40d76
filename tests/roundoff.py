"""Round-off bounds for comparing two computations of the same products.

A computed n-term dot product is within gamma_n sum|h||x| of the exact one,
gamma_n = n u / (1 - n u), in whatever order its terms are summed (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).  So
two computations of it, by two BLAS kernels, layouts, blocks or packings,
differ by at most 2 gamma_n sum|h||x|.  These helpers carry that bound
through the sums of squares of the residual and the statistic, in the
first-order form of ``perfbench/reference.py``'s ``reference_z``, and check
a program's outputs against a spelled-out reference within it.  The
reference takes the rows path, bank rows a = x H' and then a C; the program
takes the fused path x (H'C) (``fused_bound``).
"""

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sgwhiten.analysis_bank import SampleSequence, run_bank, window_products
from sgwhiten.detector import (DEFAULT_EPSILON, DEFAULT_MASKS,
                               build_ortho_transform, peak_snr,
                               threshold_detect, to_decibels)

UNIT = np.finfo(float).eps / 2
# numpy's log10 and power are accurate to a few ulps, so a dB value D read
# back as 10^(D / 10) is within DB_ULPS (1 + |D|) ulps of the ratio behind it
# (ln 10 / 10 < 1 turns D's absolute error into the ratio's relative error).
DB_ULPS = 8


def gamma(n):
    return n * UNIT / (1 - n * UNIT)


def products_bound(x, matrix):
    """2 gamma_M sum|h||x| for each output of ``window_products(x, matrix)``
    (windows, columns)."""
    matrix = np.asarray(matrix, dtype=float)
    windows = np.ascontiguousarray(sliding_window_view(
        np.abs(np.asarray(x, dtype=float)), matrix.shape[0]))
    return 2 * gamma(matrix.shape[0]) * (windows @ np.abs(matrix))


def fused_bound(x, h_matrix, joined):
    """For each window product (windows, columns) of x through the fused
    matrix G = H'C (``OrthoTransform.window_factors``), H the L x M analysis
    matrix and C a mask's joined factor: a bound on its distance from a C,
    with a the computed bank rows (``run_bank``), before a C rounds.

    Forming G rounds each entry within gamma_L |H'||C|, and the M-term
    window product within gamma_M |x||G|, |G| <= (1 + gamma_L) |H'||C|
    (Higham 3.1).  So the L-term error multiplies |x||H'||C|, not |a||C| as
    it does in the rows path.  The bank rows a are within gamma_M |x||H'|
    of x H', which moves a C by gamma_M |x||H'||C|.  In all,
    |x||H'||C| (gamma_M (2 + gamma_L) + gamma_L); ``statistics`` adds the
    rounding of a C itself."""
    h_matrix = np.abs(np.asarray(h_matrix, dtype=float))
    l, m = h_matrix.shape
    windows = np.ascontiguousarray(sliding_window_view(
        np.abs(np.asarray(x, dtype=float)), m))
    return ((windows @ (h_matrix.T @ np.abs(joined)))
            * (gamma(m) * (2 + gamma(l)) + gamma(l)))


def sum_squares_bound(y, y_bound):
    """Bound on the difference of two computed row sums of squares of K
    outputs within ``y_bound`` of ``y``: first order in the output
    differences plus their squares, and gamma_K of each sum of K squares."""
    y = np.abs(y)
    return np.sum(2 * y * y_bound + y_bound ** 2
                  + 2 * gamma(y.shape[-1]) * (y + y_bound) ** 2, axis=-1)


def assert_within(got, want, bound, what=""):
    """|got - want| <= bound elementwise, with equal shapes."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    off = np.abs(got - want)
    assert np.all(off <= bound), \
        f"{what}: {np.max(off / np.maximum(bound, np.finfo(float).tiny)):.3g} x the bound"


@dataclass(frozen=True)
class Statistics:
    """Reference p1, p0 + eps, Z and D's numerator max(p1 - nu r, 0) per
    row, each with the bound within which any computation of it from rows
    within the given bounds of the reference's agrees."""

    p1: np.ndarray
    p1_bound: np.ndarray
    denominator: np.ndarray
    denominator_bound: np.ndarray
    z: np.ndarray
    z_bound: np.ndarray
    numerator: np.ndarray
    numerator_bound: np.ndarray

    def __getitem__(self, at):
        return Statistics(*(getattr(self, f.name)[at] for f in fields(self)))


def statistics(coeffs, transform, residual, masks=DEFAULT_MASKS,
               epsilon=DEFAULT_EPSILON, coeffs_bound=0.0, residual_bound=0.0,
               products_bound=0.0):
    """The statistics of coefficient rows (samples, L) and their residuals,
    spelled out, with their bounds: the L-term products with the mask's
    joined factor, their sums of squares, then the guard, the ratio and the
    noise correction, each one rounding on either side.  ``products_bound``
    adds to the bound of those products, as ``fused_bound`` does for a
    computation that never forms the rows."""
    factors = transform.mask_factors(masks)
    coeffs = np.asarray(coeffs, dtype=float)
    beta = coeffs @ factors.joined
    beta_bound = products_bound + ((coeffs_bound + gamma(coeffs.shape[1])
                                    * (2 * np.abs(coeffs) + coeffs_bound))
                                   @ np.abs(factors.joined))
    fore, back = slice(None, factors.split), slice(factors.split, None)
    p1 = np.sum(beta[:, fore] ** 2, axis=1)
    p1_bound = sum_squares_bound(beta[:, fore], beta_bound[:, fore])
    den = np.sum(beta[:, back] ** 2, axis=1) + epsilon
    den_bound = sum_squares_bound(beta[:, back], beta_bound[:, back])
    den_bound += 2 * UNIT * (den + den_bound)
    z = p1 / den
    first = (p1_bound + z * den_bound) / (den - den_bound)
    noise = factors.share * np.asarray(residual, dtype=float)
    noise_bound = factors.share * residual_bound
    numerator = np.maximum(p1 - noise, 0.0)
    numerator_bound = (p1_bound + noise_bound
                       + 2 * gamma(2) * (p1 + p1_bound + noise + noise_bound))
    return Statistics(p1, p1_bound, den, den_bound, z,
                      first + 2 * UNIT * (z + first), numerator, numerator_bound)


def trace_statistics(filt, trace, masks=DEFAULT_MASKS, epsilon=DEFAULT_EPSILON):
    """One trace alone through a fresh transform, the bank, the residual
    factor and ``statistics``, with the bounds of the products that
    ``detect_traces`` makes: the fused window products (``fused_bound``) and
    the residual's M-term products."""
    tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)
    h_matrix = filt.operators.h_matrix
    coeffs = run_bank(SampleSequence(values=trace.x), h_matrix).coeffs
    out = window_products(trace.x, tr.residual_factor)
    return statistics(
        coeffs, tr, np.sum(out * out, axis=1), masks, epsilon,
        residual_bound=sum_squares_bound(
            out, products_bound(trace.x, tr.residual_factor)),
        products_bound=fused_bound(trace.x, h_matrix,
                                   tr.mask_factors(masks).joined))


def _read_back(decibels, ref, floor_db):
    """A dB ratio over the reference denominator, as a numerator, and the
    slack of reading it back: the ulps of the dB round trip, and where the
    value sits at ``floor_db``, all that the floor hides."""
    decibels = np.asarray(decibels, dtype=float)
    ratio = 10.0 ** (decibels / 10.0)
    finite = np.where(np.isfinite(decibels), np.abs(decibels), 0.0)
    top = (ref.numerator + ref.numerator_bound) / (ref.denominator
                                                   - ref.denominator_bound)
    slack = top * ref.denominator_bound + DB_ULPS * UNIT * (1 + finite) * (
        np.maximum(ratio, top) * (ref.denominator + ref.denominator_bound))
    slack = slack + np.where(decibels <= floor_db, ratio * (
        ref.denominator + ref.denominator_bound), 0.0)
    return ratio * ref.denominator, slack


def check_statistics(z, z_db, decision_db, ref, floor_db=-np.inf, what=""):
    """Z within its bound of the reference, Z dB exactly ``to_decibels``
    of Z, and D dB within its bound (``check_decision``)."""
    assert_within(z, ref.z, ref.z_bound, f"{what} Z")
    assert np.array_equal(z_db, to_decibels(z)), what
    check_decision(decision_db, ref, floor_db, what)


def check_decision(decision_db, ref, floor_db=-np.inf, what=""):
    """D dB, read back as a numerator, within the numerator's bound; a D dB
    at ``floor_db`` stands for any value at or below it."""
    numerator, slack = _read_back(decision_db, ref, floor_db)
    assert_within(numerator, ref.numerator, ref.numerator_bound + slack,
                  f"{what} D numerator")


def event_differences(events, ref, gamma_db, offset):
    """The samples where ``events`` and the reference's crossings of
    ``gamma_db`` differ, and those of them where the reference's D is not
    within its bound of the threshold."""
    want = threshold_detect(to_decibels(ref.numerator / ref.denominator),
                            gamma_db, offset)
    differ = np.setxor1d(events, want).astype(int) - offset
    at = ref[differ]
    threshold, slack = _read_back(np.full(len(differ), float(gamma_db)), at,
                                  -np.inf)
    far = np.abs(at.numerator - threshold) > at.numerator_bound + slack
    return differ + offset, differ[far] + offset


def check_report(report, ref, gamma_db, offset, extents=None,
                 half_window=None, what=""):
    """A ``DetectionReport`` against a trace's reference statistics: its
    threshold and offset, the series within their bounds, its events the
    crossings of its own D and equal to the reference's but where D is
    within its bound of gamma, and each peak of its own Z dB, read back,
    within the peaks of the reference Z less and plus its bound.  Returns
    whether any event differed from the reference's."""
    assert (report.gamma_db, report.offset) == (gamma_db, offset), what
    check_statistics(report.z, report.z_db, report.decision_db, ref, what=what)
    assert np.array_equal(report.events, threshold_detect(
        report.decision_db, gamma_db, offset)), what
    differ, unexplained = event_differences(report.events, ref, gamma_db,
                                            offset)
    assert len(unexplained) == 0, (what, unexplained)
    if extents is not None:
        assert report.peak_snr_db == tuple(peak_snr(
            report.z_db, extents, offset, half_window)), what
        check_peaks(report.peak_snr_db, ref, extents, offset, half_window, what)
    return len(differ) > 0


def check_peaks(peaks_db, ref, extents, offset, half_window, what=""):
    """Peak SNRs (dB), read back, within the ``peak_snr`` peaks of the
    reference Z less and plus its bound."""
    low, high = (np.asarray(peak_snr(ref.z + sign * ref.z_bound, extents,
                                     offset, half_window))
                 for sign in (-1, 1))
    peaks = 10.0 ** (np.asarray(peaks_db) / 10.0)
    slack = DB_ULPS * UNIT * (1 + np.abs(peaks_db)) * peaks
    assert np.all((low - slack <= peaks) & (peaks <= high + slack)), what
