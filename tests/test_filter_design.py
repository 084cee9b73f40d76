"""Filter solvers, diagnostics, and the preset designs."""

import math

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten import filter_design as fd
from sgwhiten import noise_models as nm

# Reference tap sets computed independently below (classic quadratic and
# first-derivative windows), frozen after checking against the LS oracle.
CLASSIC_SMOOTH_5_3 = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
CLASSIC_DERIV_ROW_5_3 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) / 10.0


def brute_force_ls_row(m, l, d):
    """Oracle: unweighted LS fit by lstsq on an independently built basis,
    then symbolic differentiation of the fitted polynomial at the center."""
    k = (m - 1) // 2
    grid = np.arange(-k, k + 1, dtype=float)
    basis = np.column_stack([grid ** p for p in range(l)])
    # row r of pinv maps the window to coefficient r
    pinv = np.linalg.lstsq(basis, np.eye(m), rcond=None)[0]
    factorial = math.factorial(d)
    return factorial * pinv[d]


class TestVandermonde:
    def test_three_by_two(self):
        psi = fd.build_vandermonde(3, 2)
        assert np.array_equal(psi, [[1, -1], [1, 0], [1, 1]])

    def test_five_by_three(self):
        psi = fd.build_vandermonde(5, 3)
        assert np.array_equal(psi[:, 1], [-2, -1, 0, 1, 2])
        assert np.array_equal(psi[:, 2], [4, 1, 0, 1, 4])

    def test_17_by_5(self):
        psi = fd.build_vandermonde(17, 5)
        assert psi.shape == (17, 5)
        assert psi.max() == 8 ** 4
        assert np.all(psi[:, 0] == 1)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            fd.build_vandermonde(4, 2)

    def test_rejects_more_terms_than_samples(self):
        with pytest.raises(ValueError, match="more monomials than samples"):
            fd.build_vandermonde(5, 6)


class TestDerivativeOperator:
    def test_second_derivative_l3(self):
        deriv = fd.derivative_operator(3, 2)
        expected = np.zeros((3, 3))
        expected[0, 2] = 2.0
        assert np.array_equal(deriv, expected)

    def test_zeroth_is_identity(self):
        assert np.array_equal(fd.derivative_operator(2, 0), np.eye(2))

    def test_first_derivative_l4_superdiagonal(self):
        deriv = fd.derivative_operator(4, 1)
        expected = np.zeros((4, 4))
        expected[0, 1], expected[1, 2], expected[2, 3] = 1.0, 2.0, 3.0
        assert np.array_equal(deriv, expected)

    def test_sampling_period_scaling(self):
        ts = 0.25
        assert np.allclose(fd.derivative_operator(4, 2, ts),
                           fd.derivative_operator(4, 2) / ts ** 2, atol=1e-15)

    def test_rejects_order_at_l(self):
        with pytest.raises(ValueError):
            fd.derivative_operator(3, 3)


class TestSolvers:
    def test_kkt_moving_average(self):
        psi = fd.build_vandermonde(5, 1)
        h = fd.solve_kkt(np.eye(5), psi, np.array([1.0]))
        assert np.allclose(h, 0.2, atol=1e-14)

    def test_kkt_classic_quadratic_smoother(self):
        psi = fd.build_vandermonde(5, 3)
        h = fd.solve_kkt(np.eye(5), psi, fd.moment_vector(3))
        oracle = brute_force_ls_row(5, 3, 0)
        assert np.allclose(oracle, CLASSIC_SMOOTH_5_3, atol=1e-12)
        assert np.allclose(h, CLASSIC_SMOOTH_5_3, atol=1e-12)

    def test_weighted_ls_mean(self):
        psi = fd.build_vandermonde(3, 1)
        h_matrix = fd.solve_weighted_ls(np.eye(3), psi)
        assert np.allclose(h_matrix, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-14)

    def test_weighted_ls_row0_is_classic(self):
        psi = fd.build_vandermonde(5, 3)
        h_matrix = fd.solve_weighted_ls(np.eye(5), psi)
        assert np.allclose(h_matrix[0], CLASSIC_SMOOTH_5_3, atol=1e-12)

    def test_left_inverse_property(self, rng):
        for _ in range(5):
            m, l = 11, 4
            psi = fd.build_vandermonde(m, l)
            a = rng.normal(size=(m, m))
            w = a @ a.T + m * np.eye(m)
            h_matrix = fd.solve_weighted_ls(w, psi)
            assert np.abs(h_matrix @ psi - np.eye(l)).max() <= 1e-9

    def test_extract_d0_is_row0(self):
        psi = fd.build_vandermonde(7, 3)
        h_matrix = fd.solve_weighted_ls(np.eye(7), psi)
        taps = fd.extract_coefficients(h_matrix, fd.derivative_operator(3, 0),
                                       fd.moment_vector(3))
        assert np.allclose(taps, h_matrix[0], atol=1e-15)

    def test_extract_first_derivative(self):
        # The window-ordered regression row is the classic (-2,-1,0,1,2)/10;
        # the returned taps are its reversal so that the convolution
        # sum(h[m] x[n-m]) yields the derivative with positive sign.
        psi = fd.build_vandermonde(5, 3)
        h_matrix = fd.solve_weighted_ls(np.eye(5), psi)
        deriv = fd.derivative_operator(3, 1)
        mu = fd.moment_vector(3)
        row = mu @ deriv @ h_matrix
        assert np.allclose(row, CLASSIC_DERIV_ROW_5_3, atol=1e-12)
        taps = fd.extract_coefficients(h_matrix, deriv, mu)
        assert np.allclose(taps, CLASSIC_DERIV_ROW_5_3[::-1], atol=1e-12)
        # Oracle: filtering x[n] = n must return slope 1 at every center.
        x = np.arange(20.0)
        y = np.convolve(x, taps, mode="valid")
        assert np.allclose(y, 1.0, atol=1e-12)

    def test_extract_second_derivative_is_scaled_row2(self):
        psi = fd.build_vandermonde(7, 3)
        h_matrix = fd.solve_weighted_ls(np.eye(7), psi)
        taps = fd.extract_coefficients(h_matrix, fd.derivative_operator(3, 2),
                                       fd.moment_vector(3))
        assert np.allclose(taps, 2.0 * h_matrix[2][::-1], atol=1e-14)

    def test_kkt_rejects_a_basis_column_of_no_parity(self):
        psi = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(ValueError, match="symmetric or antisymmetric"):
            fd.solve_kkt(np.eye(5), psi, np.array([1.0, 0.0]))

    def test_kkt_rejects_a_matrix_that_is_not_centrosymmetric(self):
        r = np.eye(5)
        r[0, 0] = 2.0
        with pytest.raises(ValueError, match="centrosymmetric"):
            fd.solve_kkt(r, fd.build_vandermonde(5, 3), fd.moment_vector(3))

    def test_kkt_reports_singular_bordered_system(self):
        psi = np.zeros((5, 2))  # moment constraints unsatisfiable
        with pytest.raises(sg.IllConditionedError):
            fd.solve_kkt(np.eye(5), psi, np.array([1.0, 0.0]))


class TestEquivalence:
    @pytest.mark.parametrize("label", ["A", "B", "C", "F"])
    def test_routes_agree_for_well_conditioned(self, label, presets):
        filt = presets[label]
        psi = filt.operators.psi
        mu = filt.operators.mu
        r = nm.correlation_matrix(filt.spec.noise, filt.spec.m)
        via_kkt = fd.solve_kkt(r, psi, mu)
        via_ls = fd.extract_coefficients(filt.operators.h_matrix,
                                         fd.derivative_operator(filt.spec.l, 0),
                                         mu)
        scale = np.abs(via_ls).max()
        assert np.abs(via_kkt - via_ls).max() <= 1e-8 * scale

    @pytest.mark.parametrize("label", ["D", "E"])
    def test_notch_designs_report_conditioning(self, label, presets):
        assert presets[label].condition > 1e6


class TestDiagnostics:
    def test_wng_moving_average(self):
        assert fd.white_noise_gain(np.full(5, 0.2)) == pytest.approx(0.2, abs=1e-15)

    def test_wng_presets(self, presets):
        assert presets["A"].wng == pytest.approx(0.2103, abs=5e-4)
        assert presets["D"].wng == pytest.approx(0.2166, abs=2e-3)

    def test_response_dc_gain_unity(self, presets):
        for filt in presets.values():
            _, resp = fd.frequency_response(filt.h, 16)
            assert abs(resp[0]) == pytest.approx(1.0, abs=1e-10)

    def test_response_even_design_is_real(self, presets):
        _, resp = fd.frequency_response(presets["A"].h, 257)
        assert np.abs(resp.imag).max() < 1e-12

    def test_moving_average_null(self):
        h = np.full(5, 0.2)
        val = fd.response_at(h, 2 * math.pi / 5)
        assert abs(val[0]) < 1e-14

    def test_filter_e_nulls(self, presets):
        vals = fd.response_at(presets["E"].h, np.array([0.8608, 1.6022, math.pi]))
        assert np.all(np.abs(vals) <= 1e-2)

    def test_grid_endpoints(self):
        omega, _ = fd.frequency_response(np.full(5, 0.2), 2)
        assert np.allclose(omega, [0.0, math.pi], atol=1e-15)

    def test_rejects_grid_of_one_point(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            fd.frequency_response(np.full(5, 0.2), 1)


class TestFirstNull:
    def test_moving_average(self):
        h = np.full(5, 0.2)
        assert fd.first_null_frequency(h) == pytest.approx(2 * math.pi / 5, abs=1e-9)

    def test_plain_preset_dual_method(self, presets):
        h = presets["A"].h
        via_roots = fd.first_null_frequency(h, method="roots")
        via_grid = fd.first_null_frequency(h, method="grid")
        assert via_roots == pytest.approx(0.9179, abs=5e-4)
        assert abs(via_roots - via_grid) <= 1e-4

    def test_dual_method_small_design(self):
        filt = fd.design(fd.DesignSpec(m=9, l=3, d=0))
        via_roots = fd.first_null_frequency(filt.h, method="roots")
        via_grid = fd.first_null_frequency(filt.h, method="grid")
        assert abs(via_roots - via_grid) <= 1e-4

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            fd.first_null_frequency(np.zeros(5))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            fd.first_null_frequency(np.full(5, 0.2), method="newton")


class TestCutoffHeuristic:
    def test_reference_value(self):
        assert fd.cutoff_heuristic(0.9179) == pytest.approx(0.6884, abs=1e-4)

    def test_scaling(self):
        assert fd.cutoff_heuristic(math.pi) == pytest.approx(0.75 * math.pi)
        assert fd.cutoff_heuristic(2 * math.pi / 5) == pytest.approx(0.3 * math.pi)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fd.cutoff_heuristic(0.0)


class TestPresets:
    def test_all_wng_values(self, presets):
        expected = {"A": (0.2103, 5e-4), "B": (0.2204, 2e-3), "C": (0.2374, 2e-3),
                    "D": (0.2166, 2e-3), "E": (0.2290, 2e-3), "F": (0.2119, 2e-3)}
        for label, (value, tol) in expected.items():
            assert presets[label].wng == pytest.approx(value, abs=tol), label

    def test_pole_budget_enforced(self):
        # M = 17, L = 5 leaves 6 spare zero pairs; more poles must be rejected.
        with pytest.raises(ValueError):
            fd.design_preset("E", omega_list=np.linspace(0.3, 3.0, 7))
        fd.design_preset("E", omega_list=np.linspace(0.3, 3.0, 6))  # at the limit

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            fd.design_preset("G")

    def test_wideband_collapses_to_plain(self, presets):
        # As the cut-off vanishes the colored model fades to white.
        filt = fd.design_preset("F", omega_c=0.01)
        assert np.abs(filt.h - presets["A"].h).max() <= 1e-3

    def test_sidelobe_and_wng_trends(self):
        # Sweeping the cut-off up widens the main lobe: side-lobes fall,
        # white-noise gain rises.
        sidelobes, wngs = [], []
        for f_c in (0.05, 0.10, 0.15, 0.20):
            filt = fd.design_preset("F", omega_c=2 * math.pi * f_c)
            sidelobes.append(fd.sidelobe_peak(filt.h))
            wngs.append(filt.wng)
        assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(sidelobes, sidelobes[1:]))
        assert all(w1 <= w2 + 1e-12 for w1, w2 in zip(wngs, wngs[1:]))

    def test_overrides(self):
        loose = fd.design_preset("D", sigma_nb=-1e-2)
        tight = fd.design_preset("D", sigma_nb=-1e-6)
        # Weaker damping -> shallower notch at the band edge.
        loose_depth = abs(fd.response_at(loose.h, math.pi)[0])
        tight_depth = abs(fd.response_at(tight.h, math.pi)[0])
        assert tight_depth < loose_depth


class TestDesignProperties:
    @pytest.mark.parametrize("label", fd.PRESET_LABELS)
    def test_polynomial_reproduction(self, label):
        # Filtering n^p returns the exact d-th derivative at the center.
        for d in (0, 1, 2):
            filt = fd.design_preset(label, d=d)
            k = filt.half_length
            n = np.arange(60, dtype=float)
            centers = n[k:-k]
            for p in range(5):
                y = np.convolve(n ** p, filt.h, mode="valid")
                if p < d:
                    expected = np.zeros_like(centers)
                else:
                    coef = math.factorial(p) / math.factorial(p - d)
                    expected = coef * centers ** (p - d)
                scale = max(np.abs(expected).max(), 1.0)
                assert np.abs(y - expected).max() <= 1e-9 * scale, (label, d, p)

    @pytest.mark.parametrize("label", fd.PRESET_LABELS)
    def test_parseval(self, label, presets):
        filt = presets[label]
        omega, resp = fd.frequency_response(filt.h, 4096)
        quad = np.trapezoid(np.abs(resp) ** 2, omega) / math.pi
        assert quad == pytest.approx(filt.wng, rel=1e-6)

    @pytest.mark.parametrize("label", fd.PRESET_LABELS)
    def test_even_symmetry_exact(self, label, presets):
        h = presets[label].h
        assert np.abs(h - h[::-1]).max() <= 1e-12

    def test_odd_antisymmetry_exact(self):
        filt = fd.design_preset("A", d=1)
        assert np.abs(filt.h + filt.h[::-1]).max() <= 1e-12

    def test_notch_first_derivative_through_the_odd_block(self):
        # E at d = 1 takes the KKT route, whose constraint d! / ts^d sits in
        # an odd column: only the odd block is solved, and the taps come out
        # antisymmetric exactly and meet psi' w = D' mu (w = h reversed).
        filt = fd.design_preset("E", d=1)
        assert filt.condition > fd.KKT_CONDITION_LIMIT
        h = filt.h
        assert np.array_equal(h, -h[::-1]) and h[filt.half_length] == 0.0
        spec = filt.spec
        deriv = fd.derivative_operator(spec.l, spec.d, spec.ts)
        constraint = deriv.T @ filt.operators.mu
        assert np.array_equal(constraint, [0.0, 1.0, 0.0, 0.0, 0.0])
        moments = filt.operators.psi.T @ h[::-1]
        scale = np.abs(filt.operators.psi).T @ np.abs(h)
        assert np.all(np.abs(moments - constraint) <= 1e-12 * scale), \
            moments - constraint

    def test_sinusoid_gain(self, presets, rng):
        # Mean-square output for a unit sinusoid equals |H(w)|^2 / 2.
        filt = presets["A"]
        for omega_x in rng.uniform(0.1, 3.0, size=2):
            periods = math.ceil(100 * 2 * math.pi / omega_x)
            n = np.arange(periods + filt.spec.m)
            y = np.convolve(np.sin(omega_x * n), filt.h, mode="valid")
            measured = np.mean(y ** 2)
            expected = abs(fd.response_at(filt.h, omega_x)[0]) ** 2 / 2
            assert measured == pytest.approx(expected, rel=0.02)


class TestDesignSpecValidation:
    def test_rejects_even_m(self):
        with pytest.raises(ValueError):
            fd.DesignSpec(m=16, l=5, d=0)

    def test_rejects_l_out_of_range(self):
        with pytest.raises(ValueError):
            fd.DesignSpec(m=5, l=6, d=0)
        with pytest.raises(ValueError):
            fd.DesignSpec(m=5, l=0, d=0)

    def test_rejects_d_at_l(self):
        with pytest.raises(ValueError):
            fd.DesignSpec(m=5, l=3, d=3)

    @pytest.mark.parametrize("ts", [0.0, -1.0, float("nan")])
    def test_rejects_sampling_period_not_positive(self, ts):
        with pytest.raises(ValueError, match="sampling period"):
            fd.DesignSpec(m=5, l=3, d=0, ts=ts)


class TestDesignMemo:
    """``design`` keeps its recent results; a filter keeps its transform."""

    @staticmethod
    def spec(lam=4.0):
        return fd.DesignSpec(m=17, l=5, d=0, noise=nm.NoiseModel.gauss_markov(lam=lam))

    def test_equal_arguments_give_the_same_filter(self):
        filt = fd.design(self.spec(), "memo")
        assert fd.design(self.spec(), "memo") is filt
        other = fd.design(self.spec(), "other")
        assert other is not filt and other.label == "other"
        assert np.array_equal(other.h, filt.h)
        assert fd.design(self.spec(lam=4.5), "memo") is not filt

    def test_presets_are_kept_per_omega_list(self):
        e = fd.design_preset("E")
        assert fd.design_preset("E") is e
        moved = fd.design_preset("E", omega_list=(0.87, 1.6022, 3.1416))
        assert moved is not e
        assert not np.array_equal(moved.h, e.h)

    def test_cache_is_bounded(self):
        for i in range(fd.DESIGN_CACHE_SIZE + 3):
            fd.design_preset("E", omega_list=(0.85 + 0.002 * i, 1.6022, 3.1416))
            assert fd.design.cache_info().currsize <= fd.DESIGN_CACHE_SIZE
        assert fd.design.cache_info().maxsize == fd.DESIGN_CACHE_SIZE

    def test_errors_are_not_kept(self):
        misses = fd.design.cache_info().misses
        for _ in range(2):
            # Damping too weak: the whitening inverse misses its residual bound.
            with pytest.raises(sg.IllConditionedError):
                fd.design_preset("E", sigma_nb=-1e-14)
        assert fd.design.cache_info().misses == misses + 2

    def test_kept_filter_equals_a_fresh_solve(self, presets):
        for lab, filt in presets.items():
            fresh = fd.design.__wrapped__(filt.spec, label=lab)
            assert fresh is not filt
            assert np.array_equal(fresh.h, filt.h)
            assert (fresh.wng, fresh.omega_delta, fresh.condition) == \
                (filt.wng, filt.omega_delta, filt.condition)

    def test_transform_is_built_once(self, presets):
        filt = presets["C"]
        assert filt.transform is filt.transform
        fresh = sg.build_ortho_transform(filt.operators.psi,
                                         filt.operators.weight.matrix)
        for name in ("u", "w_scaled", "psi"):
            assert np.array_equal(getattr(filt.transform, name), getattr(fresh, name))
        assert np.array_equal(filt.transform.residual_factor, fresh.residual_factor)

    def test_preset_cutoff_reads_the_kept_plain_design(self):
        a = fd.design_preset("A", m=21)
        hits = fd.design.cache_info().hits
        assert fd.preset_cutoff(21, 5) == fd.cutoff_heuristic(a.omega_delta)
        assert fd.design.cache_info().hits == hits + 1


class TestDerivedDiagnostics:
    """A filter's diagnostics follow from its taps and weights."""

    def test_first_null_is_found_on_first_read_only(self, monkeypatch):
        calls = []
        real = fd.first_null_frequency

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fd, "first_null_frequency", counted)
        filt = fd.design.__wrapped__(fd.DesignSpec(m=17, l=5, d=0), label="A")
        assert calls == []
        first = filt.omega_delta
        assert len(calls) == 1
        assert filt.omega_delta == first
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [17, 33])
    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("label", sg.PRESET_LABELS)
    def test_diagnostics_equal_their_definitions(self, label, d, m):
        filt = fd.design_preset(label, m=m, d=d)
        method = "auto" if d == 0 else "roots"
        assert filt.omega_delta == fd.first_null_frequency(filt.h, method)
        assert filt.wng == fd.white_noise_gain(filt.h)
        assert filt.condition == filt.operators.weight.condition
