"""Noise model autocorrelations, Toeplitz builds, and whitening inverses."""

import json
import math

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten import noise_models as nm
from sgwhiten.errors import IllConditionedError


class TestWideband:
    def test_lag1_half_to_full_band(self):
        # Direct evaluation: 2 sin(pi)/1 - 2 sin(pi/2)/1 = -2.
        acf = nm.wideband_autocorr(math.pi / 2, math.pi, kmax=4)
        assert acf[1] == pytest.approx(-2.0, abs=1e-12)

    def test_lag0_is_band_width(self):
        acf = nm.wideband_autocorr(0.3, 2.1, kmax=3)
        assert acf[0] == pytest.approx(2 * (2.1 - 0.3), abs=1e-12)

    def test_vanishing_cutoff_gives_white(self):
        # Full band: off-zero lags vanish, matrix is a multiple of identity.
        acf = nm.wideband_autocorr(1e-9, math.pi, kmax=8)
        assert acf[0] == pytest.approx(2 * math.pi, rel=1e-6)
        assert np.abs(acf.values[1:]).max() < 1e-8

    def test_continuity_at_zero_lag(self):
        # The m -> 0 limit of 2 sin(w m)/m matches the stored lag-0 value.
        wc, wd = 0.6884, math.pi
        m = 1e-7
        limit = 2 * math.sin(wd * m) / m - 2 * math.sin(wc * m) / m
        acf = nm.wideband_autocorr(wc, wd, kmax=2)
        assert acf[0] == pytest.approx(limit, rel=1e-9)

    def test_rejects_empty_band(self):
        with pytest.raises(ValueError):
            nm.wideband_autocorr(1.0, 1.0, kmax=4)
        with pytest.raises(ValueError):
            nm.wideband_autocorr(2.0, 1.0, kmax=4)

    def test_rejects_band_beyond_nyquist(self):
        with pytest.raises(ValueError):
            nm.wideband_autocorr(0.5, 3.5, kmax=4)


class TestNarrowband:
    def test_nyquist_pole_alternates(self):
        acf = nm.narrowband_autocorr([(-1e-6, math.pi)], ts=1.0, kmax=8)
        m = np.arange(9)
        assert np.allclose(acf.values, (-1.0) ** m, atol=1e-5)

    def test_filter_e_pole_set_builds(self):
        acf = nm.narrowband_autocorr([(-1e-6, w) for w in (0.8608, 1.6022, 3.1416)],
                                     ts=1.0, kmax=8)
        assert acf[0] == pytest.approx(3.0, rel=1e-9)

    def test_nyquist_limit_matches_alternation(self):
        # Single pole at pi converges entrywise to (-1)^m as damping vanishes.
        for sigma in (-1e-3, -1e-5, -1e-7):
            acf = nm.narrowband_autocorr([(sigma, math.pi)], ts=1.0, kmax=6)
            err = np.abs(acf.values - (-1.0) ** np.arange(7)).max()
            assert err <= -sigma * 6 + 1e-12

    def test_rejects_unstable_pole(self):
        with pytest.raises(ValueError):
            nm.narrowband_autocorr([(0.0, 1.0)], ts=1.0, kmax=4)
        with pytest.raises(ValueError):
            nm.narrowband_autocorr([(1e-3, 1.0)], ts=1.0, kmax=4)
        with pytest.raises(ValueError):
            nm.narrowband_autocorr([(math.nan, 1.0)], ts=1.0, kmax=4)

    def test_rejects_aliased_pole(self):
        with pytest.raises(ValueError):
            nm.narrowband_autocorr([(-1e-6, 4.0)], ts=1.0, kmax=4)

    def test_near_nyquist_quoted_value_accepted(self):
        # 3.1416 rounds pi to four decimals; it must not be treated as aliased.
        acf = nm.narrowband_autocorr([(-1e-6, 3.1416)], ts=1.0, kmax=4)
        assert acf[0] > 0


class TestGaussMarkov:
    def test_direct_evaluation(self):
        acf = nm.gauss_markov_lowpass_autocorr(lam=1.0, kmax=4)
        assert acf[2] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_near_flat_limit_reports_ill_conditioning(self):
        # lam -> inf makes the matrix nearly rank one; it must be reported,
        # not silently regularized.
        model = sg.NoiseModel.gauss_markov(lam=1e6)
        weight = nm.weight_matrix(model, 9)
        assert weight.condition > 1e5

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            nm.gauss_markov_lowpass_autocorr(lam=0.0, kmax=4)
        with pytest.raises(ValueError):
            nm.gauss_markov_lowpass_autocorr(lam=-2.0, kmax=4)
        with pytest.raises(ValueError):
            nm.gauss_markov_lowpass_autocorr(lam=math.nan, kmax=4)


class TestGaussianKernel:
    def test_direct_evaluation(self):
        w = nm.gaussian_kernel_weights(lam=2.0, kmax=4)
        diag = np.diag(w.matrix)
        assert diag[4 + 2] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_flat_limit_is_identity(self):
        w = nm.gaussian_kernel_weights(lam=1e9, kmax=3)
        assert np.allclose(w.matrix, np.eye(7), atol=1e-12)

    def test_entries_in_unit_interval_max_at_center(self):
        w = nm.gaussian_kernel_weights(lam=3.3, kmax=8)
        diag = np.diag(w.matrix)
        assert np.all(diag > 0) and np.all(diag <= 1.0)
        assert diag[8] == 1.0
        assert diag.max() == diag[8]

    def test_off_diagonal_exactly_zero(self):
        w = nm.gaussian_kernel_weights(lam=2.5, kmax=5)
        off = w.matrix - np.diag(np.diag(w.matrix))
        assert np.abs(off).max() == 0.0

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            nm.gaussian_kernel_weights(lam=-1.0, kmax=4)
        with pytest.raises(ValueError, match="lam"):
            nm.gaussian_kernel_weights(lam=math.nan, kmax=4)


class TestToeplitz:
    def test_delta_gives_identity(self):
        acf = nm.AutocorrSequence(values=np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(nm.toeplitz_from_autocorr(acf, 3), np.eye(3))

    def test_kms_structure(self):
        rho = 0.45
        acf = nm.AutocorrSequence(values=np.array([1.0, rho, rho ** 2]))
        expected = np.array([[1, rho, rho ** 2], [rho, 1, rho], [rho ** 2, rho, 1]])
        assert np.allclose(nm.toeplitz_from_autocorr(acf, 3), expected, atol=1e-15)

    @pytest.mark.parametrize("size", [1, 2, 3, 17, 257])
    def test_equals_the_indexed_build(self, size, rng):
        # The windows over the mirrored lags give the array R[|i - j|],
        # value for value.
        acf = nm.AutocorrSequence(values=np.r_[1.0, rng.uniform(-1, 1, size + 2)])
        idx = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
        built = nm.toeplitz_from_autocorr(acf, size)
        assert np.array_equal(built, acf.values[idx])
        assert built.flags.c_contiguous and built.flags.writeable

    def test_insufficient_lags_rejected(self):
        acf = nm.AutocorrSequence(values=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            nm.toeplitz_from_autocorr(acf, 4)

    def test_narrowband_triple_pole_condition_reported(self):
        # The three-cosine model at M = 17 is nearly rank six; the condition
        # estimate must report this (oracle: SVD-based condition number).
        model = sg.NoiseModel.narrow_band([(-1e-6, w) for w in (0.8608, 1.6022, 3.1416)])
        r = nm.correlation_matrix(model, 17)
        estimate = nm.condition_estimate(r)
        exact = np.linalg.cond(r)
        assert estimate >= 1e6
        assert estimate == pytest.approx(exact, rel=1e-3)


class TestInvertToWeight:
    def test_identity(self):
        w = nm.invert_to_weight(np.eye(5))
        assert np.allclose(w.matrix, np.eye(5), atol=1e-14)
        assert w.provenance == "inverse-toeplitz"

    def test_kms_closed_form_half(self):
        # rho = 0.5, M = 3: tridiagonal (1/(1-rho^2)) [[1,-r,0],[-r,1+r^2,-r],[0,-r,1]].
        rho = 0.5
        expected = np.array([[1.0, -rho, 0.0],
                             [-rho, 1 + rho ** 2, -rho],
                             [0.0, -rho, 1.0]]) / (1 - rho ** 2)
        closed = nm.kms_tridiagonal_inverse(rho, 3)
        assert np.allclose(closed, expected, atol=1e-15)
        # Oracle: dense solve of the explicitly built matrix.
        r = rho ** np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        dense = np.linalg.solve(r, np.eye(3))
        assert np.allclose(closed, dense, atol=1e-12)

    # Size 9 keeps the bare rho ids; sizes 1 and 2 cover the end-row cases.
    @pytest.mark.parametrize("rho, size", [
        pytest.param(rho, size, id=str(rho) if size == 9 else f"{rho}-size{size}")
        for size in (9, 2, 1) for rho in (-0.999, -0.9, -0.3, 0.1, 0.5, 0.95, 0.999)])
    def test_kms_closed_form_matches_dense(self, rho, size):
        r = np.asarray(rho, dtype=float) ** np.abs(
            np.subtract.outer(np.arange(size), np.arange(size)))
        closed = nm.kms_tridiagonal_inverse(rho, size)
        dense = np.linalg.solve(r, np.eye(size))
        scale = np.abs(closed).max()
        assert np.abs(closed - dense).max() <= 1e-10 * scale

    def test_nyquist_model_passes_residual(self):
        model = sg.NoiseModel.nyquist(sigma=-1e-6)
        w = nm.weight_matrix(model, 17)
        r = nm.correlation_matrix(model, 17)
        assert np.abs(r @ w.matrix - np.eye(17)).max() <= 1e-6 * 17
        assert w.condition > 1e6

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_kms_closed_form_needs_rho_inside_unit_interval(self, rho):
        with pytest.raises(ValueError, match=r"\|rho\| < 1"):
            nm.kms_tridiagonal_inverse(rho, 5)

    def test_residual_failure_raises(self):
        # A numerically singular matrix must be rejected, not patched; here
        # both of its blocks are singular.
        r = np.ones((6, 6)) + 1e-18 * np.eye(6)
        with pytest.raises(IllConditionedError):
            nm.invert_to_weight(r)

    def test_output_symmetric(self, rng):
        lags = np.r_[7.0, rng.uniform(-1, 1, size=6)]
        r = nm.toeplitz_from_autocorr(nm.AutocorrSequence(values=lags), 7)
        w = nm.invert_to_weight(r)
        assert np.abs(w.matrix - w.matrix.T).max() == 0.0

    @pytest.mark.parametrize("case", ["spd", "persymmetric-only", "asymmetric"])
    def test_matrix_that_is_not_centrosymmetric_rejected(self, case, rng):
        # Symmetric positive definite but not centrosymmetric, centrosymmetric
        # but not symmetric: neither splits into the two blocks.
        a = rng.normal(size=(7, 7))
        r = nm.toeplitz_from_autocorr(
            nm.AutocorrSequence(values=np.r_[7.0, rng.uniform(-1, 1, 6)]), 7)
        if case == "spd":
            r = a @ a.T + 7 * np.eye(7)
        elif case == "persymmetric-only":
            r[0, 1] += 0.5
            r[-1, -2] += 0.5
        else:
            r[0, 1] += 0.5
        with pytest.raises(ValueError, match="centrosymmetric"):
            nm.invert_to_weight(r)


class TestCentrosymmetricBlocks:
    @pytest.mark.parametrize("size", [1, 2, 5, 6])
    def test_blocks_are_the_matrix_in_the_parity_basis(self, size, rng):
        # Q' R Q = diag(E, O), Q the orthonormal symmetric and antisymmetric
        # vectors, E of order ceil(n/2) and O of order floor(n/2).
        r = nm.toeplitz_from_autocorr(
            nm.AutocorrSequence(values=np.r_[3.0, rng.uniform(-1, 1, size)]), size)
        k = size // 2
        q = np.zeros((size, size))
        for i in range(k):
            q[[i, size - 1 - i], i] = [math.sqrt(0.5), math.sqrt(0.5)]
            q[[i, size - 1 - i], size - k + i] = [math.sqrt(0.5), -math.sqrt(0.5)]
        if size % 2:
            q[k, k] = 1.0
        even, odd = nm.centrosymmetric_blocks(r)
        assert even.shape == (size - k, size - k) and odd.shape == (k, k)
        split = q.T @ r @ q
        assert np.allclose(split[:size - k, :size - k], even, rtol=0, atol=1e-14)
        assert np.allclose(split[size - k:, size - k:], odd, rtol=0, atol=1e-14)
        assert np.abs(split[:size - k, size - k:]).max(initial=0.0) <= 1e-14
        assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)

    def test_rejects_a_matrix_that_is_not_square(self):
        with pytest.raises(ValueError, match="square"):
            nm.centrosymmetric_blocks(np.ones((2, 3)))


class TestAutocorrInvariant:
    def test_lag_zero_dominates_random_models(self, rng):
        # |R[m]| <= R[0] across randomized valid parameters, every family.
        for _ in range(60):
            family = rng.integers(4)
            if family == 0:
                wc = rng.uniform(0.05, 2.8)
                wd = rng.uniform(wc + 0.05, math.pi)
                acf = nm.wideband_autocorr(wc, wd, kmax=12)
            elif family == 1:
                count = rng.integers(1, 4)
                poles = [(-(10.0 ** rng.uniform(-7, -1)), rng.uniform(0.05, math.pi))
                         for _ in range(count)]
                acf = nm.narrowband_autocorr(poles, ts=1.0, kmax=12)
            elif family == 2:
                acf = nm.gauss_markov_lowpass_autocorr(rng.uniform(0.2, 50.0), kmax=12)
            else:
                acf = nm.autocorrelation(sg.NoiseModel.white(), kmax=12)
            assert np.all(np.abs(acf.values) <= acf[0] * (1 + 1e-12))


class TestConditionEstimate:
    def test_matches_svd_on_random_spd(self, rng):
        for _ in range(10):
            a = rng.normal(size=(11, 11))
            spd = a @ a.T + 0.5 * np.eye(11)
            est = nm.condition_estimate(spd)
            exact = np.linalg.cond(spd)
            assert est == pytest.approx(exact, rel=1e-2)

    def test_identity(self):
        assert nm.condition_estimate(np.eye(8)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("label", ["E", "F"])
    def test_exact_at_wide_window(self, label):
        r = nm.correlation_matrix(sg.design_preset(label, m=257).spec.noise, 257)
        assert nm.condition_estimate(r) == pytest.approx(np.linalg.cond(r), rel=1e-8)

    def test_singular_is_infinite(self):
        assert nm.condition_estimate(np.diag([1.0, 0.0, 2.0])) == math.inf


class TestRecordChecks:
    @pytest.mark.parametrize("values, match", [
        (np.zeros((2, 2)), "1-d sequence"),
        (np.zeros(0), "1-d sequence"),
        (np.array([0.0, 0.0]), "R\\[0\\] must be positive"),
        (np.array([1.0, 1.5]), "may not exceed R\\[0\\]"),
    ], ids=["two-d", "empty", "lag-zero", "lag-exceeds"])
    def test_autocorr_checks(self, values, match):
        with pytest.raises(ValueError, match=match):
            nm.AutocorrSequence(values=values)

    @pytest.mark.parametrize("matrix, provenance, condition, match", [
        (np.eye(3)[:2], "identity", None, "square"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "inverse-toeplitz", 2.0, "symmetric"),
        (np.eye(3), "dense", None, "unknown provenance"),
        (np.array([[1.0, 0.5], [0.5, 1.0]]), "diagonal-kernel", None,
         "exact zeros off-diagonal"),
        (np.eye(3), "inverse-toeplitz", None, "condition number"),
    ], ids=["not-square", "not-symmetric", "provenance", "diagonal-with-off",
            "toeplitz-without-condition"])
    def test_weight_checks(self, matrix, provenance, condition, match):
        with pytest.raises(ValueError, match=match):
            nm.WeightMatrix(matrix=matrix, provenance=provenance,
                            condition=condition)

    def test_kernel_has_no_autocorrelation(self):
        with pytest.raises(ValueError, match="no autocorrelation"):
            nm.autocorrelation(sg.NoiseModel.gaussian_kernel(4.0), 8)


class TestNoiseModelSpec:
    def test_roundtrip_all_kinds(self):
        models = [
            sg.NoiseModel.white(),
            sg.NoiseModel.gaussian_kernel(lam=4.4),
            sg.NoiseModel.gauss_markov(lam=4.4),
            sg.NoiseModel.nyquist(sigma=-1e-6),
            sg.NoiseModel.narrow_band([(-1e-6, 0.8608), (-1e-6, 1.6022)]),
            sg.NoiseModel.wide_band(omega_c=0.6884),
        ]
        assert {model.kind for model in models} == set(nm._KINDS)
        for model in models:
            assert sg.NoiseModel.from_dict(model.to_dict()) == model
            assert sg.NoiseModel.from_dict(json.loads(json.dumps(model.to_dict()))) \
                == model

    @pytest.mark.parametrize("build, args", [
        (sg.NoiseModel.white, (1.0,)),
        (sg.NoiseModel.gaussian_kernel, (4.4, 2.0)),
        (sg.NoiseModel.gauss_markov, (4.4,)),
        (sg.NoiseModel.nyquist, (-1e-6,)),
        (sg.NoiseModel.wide_band, (0.6884, 2.5)),
    ])
    def test_numpy_scalars_build_the_python_float_model(self, build, args):
        model = build(*args)
        scalar = build(*(np.float64(arg) for arg in args))
        assert scalar == model
        assert scalar.to_dict() == model.to_dict()
        assert json.dumps(scalar.to_dict()) == json.dumps(model.to_dict())
        assert np.array_equal(nm.weight_matrix(scalar, 9).matrix,
                              nm.weight_matrix(model, 9).matrix)

    def test_missing_fields_still_named(self):
        with pytest.raises(ValueError, match="needs lam"):
            sg.NoiseModel(kind="gauss-markov")
        with pytest.raises(ValueError, match="needs poles"):
            sg.NoiseModel(kind="narrow-band")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            sg.NoiseModel.from_dict({"kind": "white", "ts": 1.0, "bogus": 3})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sg.NoiseModel.from_dict({"kind": "pink"})

    def test_wideband_validation(self):
        with pytest.raises(ValueError):
            sg.NoiseModel.wide_band(omega_c=2.0, omega_d=1.0)
        with pytest.raises(ValueError):
            sg.NoiseModel.wide_band(omega_c=0.5, omega_d=3.5)

    def test_weight_matrix_provenances(self):
        assert nm.weight_matrix(sg.NoiseModel.white(), 5).provenance == "identity"
        assert nm.weight_matrix(sg.NoiseModel.gaussian_kernel(2.0), 5).provenance \
            == "diagonal-kernel"
        assert nm.weight_matrix(sg.NoiseModel.gauss_markov(2.0), 5).provenance \
            == "inverse-toeplitz"
