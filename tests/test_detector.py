"""Orthonormal transform, detection statistic, thresholding, peak extraction."""

import re
import tracemalloc

from hypothesis import given, reject, settings, strategies as st
import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten.analysis_bank import (BLOCK_BYTES, RESIDUAL_BYTES,
                                    FeatureSeries, SampleSequence, run_bank,
                                    window_power_sums, window_products)
from sgwhiten.detector import (DEFAULT_EPSILON, DEFAULT_MASKS, STAT_ROWS,
                               HypothesisMask, _powers, build_ortho_transform,
                               compute_statistic, detect,
                               detection_statistics, peak_snr,
                               threshold_detect, to_decibels)
from sgwhiten.errors import NotPositiveDefiniteError, NumericalError

from roundoff import (assert_within, check_statistics, fused_bound,
                      products_bound, statistics, sum_squares_bound)
from test_design_properties import designs

# Regression value computed once from a deterministic noise-free run: a
# 17-sample quadratic pulse of amplitude 10 on a zero baseline, plain preset.
NOISE_FREE_MEDIUM_PEAK_DB = 56.31768670701693


def residual_of(x, transform):
    """The residual power series of one transform over the samples x."""
    return window_power_sums(x, [transform.residual_factor])[0]


def features_from(alpha_rows, offset=8):
    return FeatureSeries(coeffs=np.atleast_2d(np.asarray(alpha_rows, float)),
                         offset=offset)


class TestOrthoTransform:
    def test_unweighted_factor(self, presets):
        filt = presets["A"]
        tr = build_ortho_transform(filt.operators.psi, np.eye(17))
        gram = filt.operators.psi.T @ filt.operators.psi
        assert np.abs(tr.u.T @ tr.u - gram).max() <= 1e-9 * np.abs(gram).max()
        assert np.allclose(tr.u, np.triu(tr.u), atol=0)

    def test_scaling_to_unit_maximum(self, presets, transforms):
        for lab in sg.PRESET_LABELS:
            assert transforms[lab].w_scaled.max() == 1.0

    @pytest.mark.parametrize("label", sg.PRESET_LABELS)
    def test_identity_chain(self, label, presets, transforms, rng):
        # S' W_s S == alpha' (psi' W_s psi) alpha == |U alpha|^2
        filt = presets[label]
        tr = transforms[label]
        psi = filt.operators.psi
        for _ in range(5):
            alpha = rng.normal(size=5)
            synth = psi @ alpha
            direct = synth @ tr.w_scaled @ synth
            gram = alpha @ (psi.T @ tr.w_scaled @ psi) @ alpha
            ortho = np.sum((tr.u @ alpha) ** 2)
            assert direct == pytest.approx(gram, rel=1e-8)
            assert gram == pytest.approx(ortho, rel=1e-8)

    def test_indefinite_weight_rejected(self):
        # A strongly negative center weight makes e0' (psi' W psi) e0 < 0.
        psi = sg.build_vandermonde(17, 5)
        bad = np.diag(np.concatenate([np.ones(8), [-30.0], np.ones(8)]))
        with pytest.raises(NotPositiveDefiniteError):
            build_ortho_transform(psi, bad)

    def test_all_negative_weight_rejected(self):
        psi = sg.build_vandermonde(5, 2)
        with pytest.raises(NotPositiveDefiniteError):
            build_ortho_transform(psi, -np.eye(5))

    def test_indefinite_weight_has_no_residual_factor(self):
        # psi' W psi stays positive definite, so the transform and Z exist,
        # but the residual form of an indefinite W has no real factor.
        weight = np.eye(17)
        weight[8, 8] = -0.05
        tr = build_ortho_transform(sg.build_vandermonde(17, 5), weight)
        assert compute_statistic(np.ones((3, 5)), tr).shape == (3,)
        with pytest.raises(NotPositiveDefiniteError):
            tr.residual_factor


class TestStatistic:
    def test_pure_quadratic_hits_guard_floor(self, transforms):
        tr = transforms["A"]
        feats = features_from([[0, 0, 0.5, 0, 0]])
        eps = 1e-3
        z = compute_statistic(feats, tr, epsilon=eps)
        p1 = np.sum((tr.u @ np.array([0, 0, 0.5, 0, 0.0])) ** 2)
        assert z[0] == pytest.approx(p1 / eps, rel=1e-12)
        assert z[0] > 1e3

    def test_pure_linear_scores_zero(self, transforms):
        z = compute_statistic(features_from([[0, 2.0, 0, 0, 0]]), transforms["A"])
        assert z[0] == 0.0

    def test_sign_blind(self, transforms, rng):
        coeffs = rng.normal(size=(30, 5))
        z_pos = compute_statistic(FeatureSeries(coeffs=coeffs, offset=8),
                                  transforms["C"])
        z_neg = compute_statistic(FeatureSeries(coeffs=-coeffs, offset=8),
                                  transforms["C"])
        assert np.array_equal(z_pos, z_neg)

    def test_epsilon_monotonicity(self, transforms, rng):
        coeffs = rng.normal(size=(40, 5))
        feats = FeatureSeries(coeffs=coeffs, offset=8)
        z_small = compute_statistic(feats, transforms["A"], epsilon=1e-4)
        z_big = compute_statistic(feats, transforms["A"], epsilon=1e-2)
        assert np.all(z_big <= z_small)

    def test_epsilon_must_be_positive(self, transforms):
        with pytest.raises(ValueError):
            compute_statistic(features_from([[0, 0, 1, 0, 0]]), transforms["A"],
                              epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_epsilon_must_be_finite(self, transforms, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            compute_statistic(features_from([[0, 0, 1, 0, 0]]), transforms["A"],
                              epsilon=epsilon)

    def test_scale_invariance_exact_without_guard(self, transforms, rng):
        # With no guard the ratio is exactly scale-free; c = 2 and c = -1 are
        # exact in floating point, so equality is bitwise at one sample.
        tr = transforms["B"]
        alpha = rng.normal(size=5)
        masks = DEFAULT_MASKS
        fg = masks.foreground_vector(5)
        bg = masks.background_vector(5)

        def ratio(vec):
            p1 = np.sum((tr.u @ (vec * fg)) ** 2)
            p0 = np.sum((tr.u @ (vec * bg)) ** 2)
            return p1 / p0

        assert ratio(2.0 * alpha) == ratio(alpha)
        assert ratio(-alpha) == ratio(alpha)

    def test_scale_near_invariance_high_snr(self, presets, transforms):
        # Where background power dwarfs the guard, scaling changes Z by < 1%.
        filt = presets["A"]
        trace = sg.build_trace("low-white", seed=3, amplitude=50.0)
        for c in (-1.0, 2.0, 10.0):
            base = run_bank(SampleSequence(values=trace.x), filt.operators.h_matrix)
            scaled = run_bank(SampleSequence(values=c * trace.x),
                              filt.operators.h_matrix)
            z0 = compute_statistic(base, transforms["A"])
            z1 = compute_statistic(scaled, transforms["A"])
            strong = z0 > 10.0
            assert np.any(strong)
            rel = np.abs(z1[strong] - z0[strong]) / z0[strong]
            assert rel.max() <= 0.01

    def test_masks_configurable(self, transforms):
        masks = HypothesisMask(foreground_keep=(1,), background_zero=(0, 1))
        z = compute_statistic(features_from([[0, 2.0, 0, 0, 0]]), transforms["A"],
                              masks=masks)
        assert z[0] > 1e3


@st.composite
def statistic_cases(draw):
    """A transform of random SPD weight over L = 3-9, a random valid mask,
    coefficient rows and residuals of a length around the statistic's
    blocks, one slice of them, and 1-4 equal runs of them to lay end to
    end."""
    l = draw(st.integers(3, 9))
    m = 2 * l + 1 + 2 * draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(m, m))
    tr = build_ortho_transform(sg.build_vandermonde(m, l), a @ a.T + m * np.eye(m))
    terms = st.lists(st.integers(0, l - 1), unique=True)
    masks = HypothesisMask(foreground_keep=tuple(draw(terms.filter(bool))),
                           background_zero=tuple(draw(terms)))
    n = draw(st.sampled_from([0, 1, STAT_ROWS - 1, STAT_ROWS + 1,
                              2 * STAT_ROWS + 1]) | st.integers(0, 2 * STAT_ROWS + 1))
    scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    coeffs = rng.normal(size=(n, l)) * scale
    residual = rng.uniform(0.0, 2.0, size=n) * scale[:, 0] ** 2
    lo = draw(st.integers(0, n))
    cut = slice(lo, draw(st.integers(lo, n)))
    length = draw(st.integers(0, n))
    starts = draw(st.lists(st.integers(0, n - length), min_size=1, max_size=4))
    return tr, masks, coeffs, residual, cut, length, starts


class TestStatisticBlocks:
    """Z and D are computed in blocks of at most STAT_ROWS rows; a row's
    values are those of its products, within their round-off bound."""

    @settings(max_examples=60, deadline=None)
    @given(statistic_cases())
    def test_slices_and_stacks_equal_the_whole_series(self, case):
        tr, masks, coeffs, residual, cut, length, starts = case
        ref = statistics(coeffs, tr, residual, masks=masks)

        def check(rows):
            report = detect(FeatureSeries(coeffs=coeffs[rows], offset=0), tr,
                            residual[rows], masks=masks)
            assert report.z.shape == residual[rows].shape
            check_statistics(report.z, report.z_db, report.decision_db,
                             ref[rows])

        check(slice(None))
        assert_within(compute_statistic(coeffs, tr, masks=masks), ref.z,
                      ref.z_bound)
        check(cut)
        # Runs laid end to end, as detect_traces lays its traces: blocks
        # cut across runs.
        rows = np.concatenate([np.arange(start, start + length)
                               for start in starts]).astype(int)
        check(rows)

    def test_lone_rows_equal_the_whole_series(self, rng):
        # A one-row block, as at the end of 2 * STAT_ROWS + 1 rows, agrees
        # with the row in a block of many within the round-off bound.
        filt = sg.design_preset("E", l=9)
        tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)
        masks = HypothesisMask((0,), ())
        coeffs = rng.normal(size=(2 * STAT_ROWS + 1, 9))
        ref = statistics(coeffs, tr, np.zeros(len(coeffs)), masks=masks)
        assert_within(compute_statistic(coeffs, tr, masks=masks), ref.z,
                      ref.z_bound)
        for i in range(40):
            assert_within(compute_statistic(coeffs[i:i + 1], tr, masks=masks),
                          ref.z[i:i + 1], ref.z_bound[i:i + 1])

    @pytest.mark.parametrize("shape", [(0, 3), (0, 5), (0, 9)])
    def test_zero_rows_give_empty_statistics(self, shape):
        filt = sg.design_preset("E", l=shape[1])
        tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)
        coeffs = np.zeros(shape)
        assert compute_statistic(coeffs, tr).shape == (0,)
        report = detect(FeatureSeries(coeffs=coeffs, offset=8), tr, np.zeros(0))
        for out in (report.z, report.z_db, report.decision_db, report.events):
            assert out.shape == (0,)
        for out in detection_statistics(*(np.zeros(0) for _ in range(3)), 0.5):
            assert out.shape == (0,)

    @pytest.mark.parametrize("shape", [(3, 0, 5), (0, 7, 5), (2, 30, 5), (5,)])
    def test_rows_not_2d_are_rejected(self, shape, transforms):
        coeffs = np.zeros(shape)
        message = rf"2-d.*{re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            compute_statistic(coeffs, transforms["E"])

    @pytest.mark.parametrize("shapes", [[(4,), (4,), (5,)], [(4,), (3,), (4,)],
                                        [(2, 4), (4,), (4,)]])
    def test_powers_of_other_windows_rejected(self, shapes):
        with pytest.raises(ValueError, match="same windows"):
            detection_statistics(*(np.ones(shape) for shape in shapes), 0.5)


class TestStatisticMemory:
    """The statistic's outputs are the only memory that grows with the rows:
    peak traced allocation at most the outputs plus 1 MiB."""

    SLACK = 1 << 20

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 16 x 399 rows: a group of 16 traces end to end, as detect_traces
    # passes them.
    @pytest.mark.parametrize("shape", [(1 << 16, 5), (16 * 399, 5)])
    def test_peak_is_the_outputs(self, shape, transforms, rng):
        coeffs = rng.normal(size=shape)
        p1, p0, residual = rng.uniform(0.0, 2.0, size=(3, shape[0]))
        tr = transforms["E"]
        share = tr.mask_factors(DEFAULT_MASKS).share
        output = 8 * residual.size
        assert self.peak(lambda: compute_statistic(coeffs, tr)) \
            <= output + self.SLACK
        assert self.peak(lambda: detection_statistics(p1, p0, residual, share)) \
            <= 3 * output + self.SLACK


@st.composite
def fused_cases(draw):
    """A designed filter of a random spec (odd M 5-65, L <= 7, all six noise
    families), a mask whose background is empty, overlaps the foreground or
    is any other, an input of up to two statistic blocks of windows, and
    whether the residual factor shares the pass, as in ``detect_traces``."""
    filt = draw(designs())
    l = filt.spec.l
    terms = st.lists(st.integers(0, l - 1), unique=True)
    fore = draw(st.lists(st.integers(0, l - 1), unique=True, min_size=1))
    zero = draw(st.sampled_from(["empty", "overlap", "any"]))
    if zero == "empty":
        zero = range(l)
    elif zero == "overlap":
        zero = [i for i in draw(terms) if i != fore[0]]
    else:
        zero = draw(terms)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = filt.spec.m - 1 + draw(st.integers(1, 2 * STAT_ROWS + 1))
    x = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=n) + 10.0 ** rng.uniform(
        -3, 3) * np.polyval(rng.normal(size=3), np.linspace(-1.0, 1.0, n))
    try:
        filt.transform.residual_factor
    except NumericalError:
        reject()
    return filt, HypothesisMask(tuple(fore), tuple(zero)), x, draw(st.booleans())


class TestFusedProducts:
    """p1 and p0 from the window products through H'C_F and H'C_B (one
    pass, no bank rows) against the rows path, the bank rows through the
    mask's factor, within the bound of both (``fused_bound``)."""

    @settings(max_examples=80, deadline=None)
    @given(fused_cases())
    def test_fused_statistics_equal_the_rows_path(self, case):
        filt, masks, x, with_residual = case
        tr, h_matrix = filt.transform, filt.operators.h_matrix
        factor = tr.residual_factor
        matrices = tr.window_factors(h_matrix, masks)
        assert [part.shape for part in matrices] == [
            (filt.spec.m, len(masks.foreground_keep)),
            (filt.spec.m, filt.spec.l - len(masks.background_zero))]
        out = window_products(x, factor)
        residual = np.einsum("nk,nk->n", out, out)
        coeffs = run_bank(SampleSequence(values=x), h_matrix).coeffs
        ref = statistics(
            coeffs, tr, residual, masks,
            residual_bound=sum_squares_bound(out, products_bound(x, factor)),
            products_bound=fused_bound(x, h_matrix,
                                       tr.mask_factors(masks).joined))
        if with_residual:
            p1, p0, residual = window_power_sums(x, [*matrices, factor])
        else:
            p1, p0 = window_power_sums(x, matrices)
        assert_within(p1, ref.p1, ref.p1_bound, "fused p1")
        assert_within(p0 + DEFAULT_EPSILON, ref.denominator,
                      ref.denominator_bound, "fused p0")
        check_statistics(*detection_statistics(
            p1, p0, residual, tr.mask_factors(masks).share), ref, what="fused")
        # The rows path, within the same bound.
        p1, p0 = (np.empty(len(coeffs)) for _ in range(2))
        for at, fore, back in _powers(coeffs, tr, masks):
            p1[at], p0[at] = fore, back
        assert_within(p1, ref.p1, ref.p1_bound, "rows p1")
        assert_within(p0 + DEFAULT_EPSILON, ref.denominator,
                      ref.denominator_bound, "rows p0")


class TestGramBlockKernel:
    # The two-column foreground takes the multi-column factor path that the
    # default mask, with its single quadratic column, never does.
    MASKS = (DEFAULT_MASKS,
             HypothesisMask(foreground_keep=(1, 2), background_zero=(0,)))

    @pytest.mark.parametrize("l", [3, 5, 7])
    @pytest.mark.parametrize("label", sg.PRESET_LABELS)
    def test_matches_masked_u_definition(self, label, l, presets, rng):
        filt = presets[label] if l == 5 else sg.design_preset(label, l=l)
        tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)
        coeffs = rng.normal(size=(60, l))
        feats = FeatureSeries(coeffs=coeffs, offset=8)
        residual = rng.uniform(0.0, 2.0, size=60)
        eps = 1e-3
        for masks in self.MASKS:
            # |U (m . a)|^2 with the mask applied to each coefficient row.
            p1 = np.sum(((coeffs * masks.foreground_vector(l)) @ tr.u.T) ** 2, axis=1)
            p0 = np.sum(((coeffs * masks.background_vector(l)) @ tr.u.T) ** 2, axis=1)
            want_z = p1 / (p0 + eps)
            noise = tr.mask_factors(masks).share * residual
            want_d = np.maximum(p1 - noise, 0.0) / (p0 + eps)
            z = compute_statistic(feats, tr, masks=masks, epsilon=eps)
            report = detect(feats, tr, residual, masks=masks, epsilon=eps)
            np.testing.assert_allclose(z, want_z, rtol=1e-12, atol=0)
            np.testing.assert_allclose(report.z, want_z, rtol=1e-12, atol=0)
            # D subtracts two powers, so its error is relative to their sum.
            decision = 10.0 ** (report.decision_db / 10.0)
            scale = (p1 + noise) / (p0 + eps)
            assert np.all(np.abs(decision - want_d) <= 1e-12 * scale)


class TestNoiseCorrection:
    @pytest.mark.parametrize("label", sg.PRESET_LABELS)
    def test_residual_power_is_whitened_fit_residual(self, label, presets,
                                                     transforms, rng):
        filt = presets[label]
        tr = transforms[label]
        # A short input, and one that spans three of the kernel's blocks.
        for n in (60, 3 * BLOCK_BYTES // (8 * 17)):
            x = rng.normal(size=n) + 0.01 * (np.arange(n) % 60.0) ** 2
            feats = run_bank(SampleSequence(values=x), filt.operators.h_matrix)
            windows = np.lib.stride_tricks.sliding_window_view(x, 17)
            e = windows - feats.coeffs @ filt.operators.psi.T
            direct = np.einsum("nm,mk,nk->n", e, tr.w_scaled, e)
            total = np.einsum("nm,mk,nk->n", windows, tr.w_scaled, windows)
            residual = residual_of(x, tr)
            assert np.abs(residual - direct).max() <= 1e-9 * total.max()

    def test_residual_slices_equal_one_pass(self, transforms, rng):
        # Three full slices of windows and a partial fourth, against the
        # factor's window products, within the round-off bound.
        tr = transforms["E"]
        m, width = tr.residual_factor.shape
        per_slice = RESIDUAL_BYTES // (8 * width)
        x = rng.normal(size=3 * per_slice + 100 + m - 1)
        out = window_products(x, tr.residual_factor)
        assert_within(residual_of(x, tr),
                      np.einsum("nk,nk->n", out, out),
                      sum_squares_bound(out, products_bound(x, tr.residual_factor)))

    def test_factors_of_other_window_lengths_rejected(self, transforms):
        # Matrices of different row counts would broadcast into sums of the
        # wrong windows.
        with pytest.raises(ValueError, match=r"\[1, 17\] rows"):
            window_power_sums(np.zeros(40), [np.ones((17, 2)), np.ones((1, 3))])
        wide = sg.design_preset("A", m=33).transform
        with pytest.raises(ValueError, match=r"\[17, 33\] rows"):
            window_power_sums(np.zeros(80), [transforms["A"].residual_factor,
                                             wide.residual_factor])

    @pytest.mark.parametrize("label", ["A", "B", "C", "F"])
    def test_noise_share_is_unbiased_under_the_model(self, label, presets,
                                                     transforms, rng):
        # Noise with covariance W_s^-1: mean foreground power = nu * mean residual.
        filt = presets[label]
        tr = transforms[label]
        chol = np.linalg.cholesky(tr.w_scaled)
        noise = np.linalg.solve(chol.T, rng.normal(size=(17, 40000))).T
        a2 = noise @ filt.operators.h_matrix[2]
        gram = tr.u.T @ tr.u
        p1 = gram[2, 2] * a2 ** 2
        r = np.sum((noise @ tr.residual_factor) ** 2, axis=1)
        share = tr.mask_factors(DEFAULT_MASKS).share
        assert p1.mean() == pytest.approx(share * r.mean(), rel=0.03)

    def test_noise_share_grows_with_collinearity(self, transforms):
        # The share is the quadratic coefficient's variance inflation over the
        # residual dimensions; F's metric leaves the quadratic column nearly
        # inside the span of the constant and quartic ones.
        shares = {lab: tr.mask_factors(DEFAULT_MASKS).share
                  for lab, tr in transforms.items()}
        for lab, tr in transforms.items():
            gram = tr.u.T @ tr.u
            inflation = gram[2, 2] * np.linalg.inv(gram)[2, 2]
            assert shares[lab] * (17 - 5) == pytest.approx(inflation, rel=1e-6)
        assert shares["F"] > 50 * max(v for k, v in shares.items() if k != "F")

    def test_noise_share_follows_the_mask(self, presets):
        filt = presets["B"]
        tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)
        gram = tr.u.T @ tr.u
        inv = np.linalg.inv(gram)
        wide = HypothesisMask(foreground_keep=(1, 2, 3), background_zero=(0, 1, 2, 3))
        for masks in (DEFAULT_MASKS, wide, DEFAULT_MASKS):
            keep = np.ix_(masks.foreground_keep, masks.foreground_keep)
            want = np.trace(gram[keep] @ inv[keep]) / (17 - 5)
            assert tr.mask_factors(masks).share == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_residual_rejects_non_finite_samples(self, bad, transforms):
        x = np.zeros(400)
        x[200] = bad
        with pytest.raises(ValueError, match="NaN or infinity"):
            residual_of(x, transforms["A"])

    def test_no_transform_gives_no_residual(self):
        assert window_power_sums(np.zeros(40), []) == []

    def test_exact_fit_has_no_residual(self):
        tr = build_ortho_transform(sg.build_vandermonde(5, 5), np.eye(5))
        assert tr.mask_factors(DEFAULT_MASKS).share == 0.0
        assert np.all(residual_of(np.arange(12.0) ** 3, tr) <= 1e-6)

    def test_events_are_decision_crossings_below_z(self, presets, transforms):
        trace = sg.build_trace("mismatched-colored", seed=8, amplitude=10.0)
        filt = presets["F"]
        feats = run_bank(SampleSequence(values=trace.x), filt.operators.h_matrix)
        residual = residual_of(trace.x, transforms["F"])
        report = detect(feats, transforms["F"], residual)
        z_events = threshold_detect(report.z_db, 20.0, offset=8)
        assert np.all(report.decision_db <= report.z_db)
        assert np.array_equal(report.z, compute_statistic(feats, transforms["F"]))
        assert np.array_equal(report.events,
                              threshold_detect(report.decision_db, 20.0, offset=8))
        assert set(report.events.tolist()) < set(z_events.tolist())

    def test_residual_must_cover_the_feature_windows(self, presets, transforms):
        x = np.zeros(40)
        feats = run_bank(SampleSequence(values=x), presets["A"].operators.h_matrix)
        with pytest.raises(ValueError):
            detect(feats, transforms["A"], np.zeros(len(feats) + 1))


class TestThreshold:
    def test_all_zero_input_no_events(self, transforms):
        feats = FeatureSeries(coeffs=np.zeros((25, 5)), offset=8)
        z = compute_statistic(feats, transforms["A"])
        events = threshold_detect(to_decibels(z), 20.0, offset=8)
        assert len(events) == 0

    def test_stack_rejected(self):
        # Row numbers of a stack are not sample indices.
        with pytest.raises(ValueError, match=re.escape("(2, 3)")):
            threshold_detect([[0, 30, 0], [0, 0, 25]], 20.0, offset=100)

    def test_offset_mapping(self):
        z_db = np.array([0.0, 25.0, 30.0, 0.0])
        events = threshold_detect(z_db, 20.0, offset=100)
        assert np.array_equal(events, [101, 102])

    def test_default_reports_every_crossing(self):
        z_db = np.array([0, 25, 30, 22, 0.0])
        events = threshold_detect(z_db, 20.0)
        assert np.array_equal(events, [1, 2, 3])

    @pytest.mark.parametrize("gamma_db", [float("nan"), float("inf"), -float("inf")])
    def test_threshold_must_be_finite(self, presets, transforms, gamma_db):
        with pytest.raises(ValueError, match="gamma_db"):
            threshold_detect(np.array([0.0, 25.0]), gamma_db)
        trace = sg.build_trace("low-white", seed=0)
        feats = run_bank(SampleSequence(values=trace.x),
                         presets["A"].operators.h_matrix)
        with pytest.raises(ValueError, match="gamma_db"):
            detect(feats, transforms["A"],
                   residual_of(trace.x, transforms["A"]),
                   gamma_db=gamma_db)


class TestHypothesisMask:
    @pytest.mark.parametrize("kwargs", [
        dict(foreground_keep=(-1,)), dict(background_zero=(-1,)),
        dict(foreground_keep=(2.5,)), dict(foreground_keep=("2",)),
        dict(foreground_keep=(True,)), dict(foreground_keep=2),
        dict(background_zero="0"),
    ], ids=["fore-negative", "back-negative", "fore-float", "fore-string",
            "fore-bool", "fore-scalar", "back-string"])
    def test_rejects_non_index_entries(self, kwargs):
        with pytest.raises(ValueError, match="non-negative integer"):
            HypothesisMask(**kwargs)

    def test_rejects_empty_foreground(self):
        with pytest.raises(ValueError, match="at least one"):
            HypothesisMask(foreground_keep=())

    def test_lists_and_numpy_integers_give_the_same_mask(self):
        mask = HypothesisMask(foreground_keep=[np.int64(2)], background_zero=[0, 2])
        assert mask == DEFAULT_MASKS
        assert hash(mask) == hash(DEFAULT_MASKS)

    @pytest.mark.parametrize("kwargs", [dict(foreground_keep=(7,)),
                                        dict(background_zero=(0, 9))],
                             ids=["fore-7", "back-9"])
    def test_index_beyond_the_order_rejected(self, transforms, kwargs):
        mask = HypothesisMask(**kwargs)
        assert mask.foreground_vector(10).shape == (10,)
        with pytest.raises(ValueError, match="out of range"):
            transforms["A"].mask_factors(mask)


class TestPeakSnr:
    def test_extent_windowing(self):
        z_db = np.zeros(100)
        z_db[40] = 33.0
        # pulse support [45, 50): widened by K = 8 it covers sample 40
        peaks = peak_snr(z_db, [(45, 50)], offset=0, half_window=8)
        assert peaks == [33.0]
        peaks = peak_snr(z_db, [(49, 55)], offset=0, half_window=8)
        assert peaks == [0.0]

    def test_stack_gives_per_series_peaks(self, rng):
        stack = rng.normal(size=(3, 100))
        extents = [(10, 20), (85, 120)]
        columns = peak_snr(stack, extents, offset=4, half_window=8)
        for i, series in enumerate(stack):
            assert [c[i] for c in columns] == peak_snr(series, extents, 4, 8)

    def test_empty_extent_list(self):
        assert peak_snr(np.zeros(10), [], offset=0, half_window=8) == []

    def test_extent_outside_range_rejected(self):
        with pytest.raises(ValueError):
            peak_snr(np.zeros(10), [(500, 510)], offset=0, half_window=8)

    def test_noise_free_regression_value(self, presets, transforms):
        pulse = sg.sim_harness.quadratic_pulse(17, 10.0)
        x = np.concatenate([np.zeros(51), pulse, np.zeros(51)])
        feats = run_bank(SampleSequence(values=x), presets["A"].operators.h_matrix)
        report = detect(feats, transforms["A"],
                        residual_of(x, transforms["A"]),
                        pulse_extents=[(51, 68)])
        assert report.peak_snr_db[0] == pytest.approx(NOISE_FREE_MEDIUM_PEAK_DB,
                                                      abs=1e-9)


class TestDetectPipeline:
    def test_report_fields(self, presets, transforms):
        trace = sg.build_trace("low-white", seed=0, amplitude=8.0)
        feats = run_bank(SampleSequence(values=trace.x),
                         presets["A"].operators.h_matrix)
        report = detect(feats, transforms["A"],
                        residual_of(trace.x, transforms["A"]),
                        pulse_extents=trace.extents())
        assert len(report.peak_snr_db) == 5
        assert report.offset == 8
        assert np.all(report.events >= report.offset)
        assert np.all(report.events < report.offset + len(report.z))
