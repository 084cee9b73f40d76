"""Scenario generation, reproducibility, and experiment-level behavior."""

import dataclasses
import math

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten import sim_harness as sim
from sgwhiten import filter_design as fd
from sgwhiten.analysis_bank import SampleSequence, run_bank, window_products
from sgwhiten.detector import (DEFAULT_EPSILON, DEFAULT_MASKS, HypothesisMask,
                               build_ortho_transform, compute_statistic,
                               peak_snr, threshold_detect,
                               to_decibels)


class TestPulseTrain:
    def test_quadratic_shape(self):
        pulse = sim.quadratic_pulse(9, 1.0)
        assert pulse[4] == 1.0
        assert pulse[0] == 0.0 and pulse[-1] == 0.0

    def test_polarities_alternate_from_positive(self):
        _, truth = sim.gen_pulse_train(5.0)
        assert [p.sign for p in truth] == [1, -1, 1, -1, 1]

    def test_kinds_and_durations(self):
        _, truth = sim.gen_pulse_train(5.0)
        assert [p.kind for p in truth] == list(sim.PULSE_KINDS)
        assert [p.stop - p.start for p in truth] == [9, 17, 33, 17, 17]

    def test_square_and_sawtooth_shapes(self):
        assert np.array_equal(sim.square_pulse(4, 2.0), [2, 2, 2, 2])
        assert np.allclose(sim.sawtooth_pulse(5, 8.0), [0, 2, 4, 6, 8], atol=1e-15)

    def test_gap_spacing(self):
        train, truth = sim.gen_pulse_train(1.0, gap=40)
        assert truth[0].start == 40
        assert len(train) == 6 * 40 + 9 + 17 + 33 + 17 + 17
        for first, second in zip(truth, truth[1:]):
            assert second.start - first.stop == 40

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            sim.gen_pulse_train(0.0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="finite"):
            sim.gen_pulse_train(amplitude)


class TestBackground:
    def test_zero_phase_at_origin(self):
        bg = sim.gen_background(4, phase=0.0)
        assert bg[0] == pytest.approx(2.0, abs=1e-15)

    def test_amplitude_bounds(self):
        rng = np.random.default_rng(0)
        bg = sim.gen_background(5000, rng)
        assert bg.min() >= -3.0 and bg.max() <= 7.0

    def test_seeds_differ_in_phase_only(self):
        # Long enough to cover ~40 periods so the envelope statistics settle.
        n = 30_000
        bg1 = sim.gen_background(n, np.random.default_rng(1))
        bg2 = sim.gen_background(n, np.random.default_rng(2))
        assert not np.allclose(bg1, bg2)
        assert np.mean(bg1) == pytest.approx(np.mean(bg2), abs=0.1)
        assert np.ptp(bg1) == pytest.approx(np.ptp(bg2), rel=0.01)


class TestNoise:
    def test_low_white_variance(self):
        rng = np.random.default_rng(12)
        noise = sim.gen_noise("low-white", 10_000, rng)["white"]
        assert np.var(noise) == pytest.approx(0.01, rel=0.05)

    def test_high_white_variance(self):
        rng = np.random.default_rng(12)
        noise = sim.gen_noise("high-white", 10_000, rng)["white"]
        assert np.var(noise) == pytest.approx(0.04, rel=0.05)

    @pytest.mark.parametrize("scenario,omegas", [
        ("matched-colored", (0.8608, 1.6022)),
        ("mismatched-colored", (0.9469, 1.7624)),
    ])
    def test_interferer_frequencies(self, scenario, omegas):
        rng = np.random.default_rng(5)
        n = 8192
        interferers = sim.gen_noise(scenario, n, rng)["interferers"]
        spectrum = np.abs(np.fft.rfft(interferers * np.hanning(n)))
        grid = np.fft.rfftfreq(n, 1.0) * 2 * math.pi
        found = grid[np.argsort(spectrum)[-6:]]
        for omega in omegas:
            assert np.min(np.abs(found - omega)) < 0.01

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            sim.gen_noise("purple", 10, np.random.default_rng(0))

    def test_colored_white_floor_flag(self):
        rng = np.random.default_rng(3)
        parts = sim.gen_noise("matched-colored", 100, rng, colored_white_noise=True)
        assert set(parts) == {"interferers", "white"}


class TestBuildTrace:
    def test_bit_identical_reproducibility(self):
        t1 = sg.build_trace("low-white", seed=42)
        t2 = sg.build_trace("low-white", seed=42)
        assert np.array_equal(t1.x, t2.x)
        for key in t1.components:
            assert np.array_equal(t1.components[key], t2.components[key])

    def test_component_additivity_exact(self):
        for scenario in sim.SCENARIOS:
            trace = sg.build_trace(scenario, seed=7)
            total = np.zeros(len(trace.x))
            for part in trace.components.values():
                total = total + part
            assert np.array_equal(trace.x, total)

    def test_component_names(self):
        white = sg.build_trace("high-white", seed=0)
        assert set(white.components) == {"pulses", "dc", "background", "white"}
        colored = sg.build_trace("matched-colored", seed=0)
        assert set(colored.components) == {"pulses", "dc", "background",
                                           "interferers"}

    def test_colored_scenarios_carry_no_white_noise_by_default(self):
        trace = sg.build_trace("mismatched-colored", seed=0)
        assert "white" not in trace.components

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            sg.build_trace("bogus", seed=0)


class TestDetectorIntegration:
    def test_statistic_identical_under_polarity_flip(self, presets, transforms):
        # Pulses alone: negating every pulse leaves the statistic untouched.
        train, _ = sim.gen_pulse_train(8.0)
        h_matrix = presets["A"].operators.h_matrix
        z_pos = compute_statistic(run_bank(SampleSequence(values=train), h_matrix),
                                  transforms["A"])
        z_neg = compute_statistic(run_bank(SampleSequence(values=-train), h_matrix),
                                  transforms["A"])
        assert np.array_equal(z_pos, z_neg)

    def test_detection_pattern_stable_under_polarity_flip(self, presets,
                                                          transforms):
        trace = sg.build_trace("low-white", seed=11, amplitude=8.0)
        flipped = trace.x - 2 * trace.components["pulses"]
        reports = []
        for x in (trace.x, flipped):
            feats = run_bank(SampleSequence(values=x),
                             presets["A"].operators.h_matrix)
            z = compute_statistic(feats, transforms["A"])
            reports.append(z)
        medium = [p for p in trace.pulses if p.kind == "quad-medium"][0]
        row = (medium.start + medium.stop - 1) // 2 - 8
        assert (reports[0][row] > 100.0) == (reports[1][row] > 100.0)

    def test_run_detector_report(self, presets):
        trace = sg.build_trace("low-white", seed=1, amplitude=8.0)
        report = sim.run_detector(presets["A"], trace)
        assert len(report.peak_snr_db) == 5
        assert report.gamma_db == 20.0


class TestExperiment:
    def test_reproducible(self):
        kwargs = dict(scenarios=("low-white",), labels=("A", "F"), seeds=(0, 1),
                      amplitude=8.0)
        r1 = sg.run_experiment(**kwargs)
        r2 = sg.run_experiment(**kwargs)
        for key in r1.cells:
            assert r1.cells[key].peaks_medium_db == r2.cells[key].peaks_medium_db

    def test_table_shape(self):
        result = sg.run_experiment(scenarios=("low-white",), labels=("A", "E"),
                                   seeds=(0,), amplitude=8.0)
        table = result.table()
        assert set(table) == {"low-white"}
        assert set(table["low-white"]) == {"A", "E"}

    def test_medium_pulse_detected_low_white(self):
        result = sg.run_experiment(scenarios=("low-white",), labels=("A",),
                                   seeds=range(5), amplitude=8.0)
        assert result.cells[("low-white", "A")].detect_medium == 1.0

    def test_calibration_brackets_target(self):
        amp = sg.calibrate_amplitude(target_db=28.5, seeds=range(8))
        result = sg.run_experiment(scenarios=("low-white",), labels=("A",),
                                   seeds=range(8), amplitude=amp)
        assert result.cells[("low-white", "A")].median_db == pytest.approx(
            28.5, abs=1.0)


class TestLongWindowSelectivity:
    def test_m33_detects_only_large_quadratic(self):
        # Doubling the window re-tunes every filter to the 33-sample pulse:
        # in both white scenarios the large pulse is the only detection for
        # the majority of seeds.
        seeds = range(20)
        for scenario in ("low-white", "high-white"):
            result = sg.run_experiment(scenarios=(scenario,), m=33, l=5,
                                       seeds=seeds, amplitude=8.0)
            for label in result.labels:
                kinds = result.cells[(scenario, label)].detected_kinds
                only_large = kinds["quad-large"] \
                    - max(kinds[k] for k in kinds if k != "quad-large")
                assert kinds["quad-large"] > 0.5, (scenario, label)
                assert only_large > 0.0, (scenario, label)

    def test_square_saw_never_detected_low_white(self):
        result = sg.run_experiment(scenarios=("low-white",), seeds=range(20),
                                   amplitude=8.0)
        for label in result.labels:
            assert result.cells[("low-white", label)].nonquad_event == 0.0, label


def per_trace_report(filt, trace, masks=DEFAULT_MASKS, epsilon=DEFAULT_EPSILON,
                     gamma_db=20.0):
    """One trace alone through bank, statistics and threshold, spelled out."""
    tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)
    feats = run_bank(SampleSequence(values=trace.x), filt.operators.h_matrix)
    factors = tr.mask_factors(masks)
    fore = feats.coeffs @ factors.foreground
    back = feats.coeffs @ factors.background
    p1 = np.einsum("ij,ij->i", fore, fore)
    p0 = np.einsum("ij,ij->i", back, back)
    # Shared passes run the residual factor padded with zero columns to a
    # multiple of 8 (as wide as that fits a pass at M = 17 and 33).
    m, width = tr.residual_factor.shape
    factor = np.zeros((m, -(-width // 8) * 8))
    factor[:, :width] = tr.residual_factor
    out = window_products(trace.x, factor)[:, :width]
    residual = np.einsum("nk,nk->n", out, out)
    z = p1 / (p0 + epsilon)
    z_db = to_decibels(z)
    noise = tr.mask_factors(masks).share * residual
    decision_db = to_decibels(np.maximum(p1 - noise, 0.0) / (p0 + epsilon))
    return {"z": z, "z_db": z_db, "decision_db": decision_db,
            "events": threshold_detect(decision_db, gamma_db, feats.offset),
            "peak_snr_db": tuple(peak_snr(z_db, trace.extents(), feats.offset,
                                          filt.half_length))}


class TestBatchedDetection:
    """One pass per preset over all traces gives each trace's own reports."""

    @pytest.mark.parametrize("kwargs", [
        dict(m=17, seeds=(0, 1, 2)),
        dict(m=33, seeds=(3, 4)),
        dict(m=17, seeds=(5, 6), colored_white_noise=True,
             masks=HypothesisMask(foreground_keep=(1, 2), background_zero=(0, 1, 2))),
        dict(m=17, seeds=(7,), scenarios=("mismatched-colored",),
             masks=HypothesisMask(foreground_keep=(2, 3, 4),
                                  background_zero=(0,)), epsilon=1e-2,
             gamma_db=12.0),
    ], ids=["m17", "m33", "masks-colored-white", "one-trace"])
    def test_reports_equal_per_trace_path(self, kwargs):
        seen = []
        result = sg.run_experiment(amplitude=9.0,
                                   sink=lambda *args: seen.append(args), **kwargs)
        options = {k: kwargs[k] for k in ("masks", "epsilon", "gamma_db")
                   if k in kwargs}
        assert [(t.name, t.seed) for t, _, _ in seen] == \
            [(s, k) for s in result.scenarios for k in result.seeds]
        for trace, filters, reports in seen:
            assert set(reports) == set(fd.PRESET_LABELS)
            for lab, report in reports.items():
                want = per_trace_report(filters[lab], trace, **options)
                for name, value in want.items():
                    assert np.array_equal(getattr(report, name), value), \
                        (trace.name, trace.seed, lab, name)

    @pytest.mark.parametrize("budget,passes", [(1, 6), (600_000, 3)],
                             ids=["one-trace-groups", "groups-across-scenarios"])
    def test_groups_give_one_pass_results(self, monkeypatch, budget, passes):
        # 399-sample traces at M = 17 take ~255 kB each, so 600 kB holds two.
        kwargs = dict(scenarios=("low-white", "matched-colored"), seeds=(0, 1, 2),
                      amplitude=9.0)
        whole, seen = [], []
        want = sg.run_experiment(sink=lambda *args: whole.append(args), **kwargs)
        calls = []
        detect = sim.detect_traces
        monkeypatch.setattr(sim, "detect_traces",
                            lambda filters, traces, **kw:
                            calls.append((tuple(filters), len(traces)))
                            or detect(filters, traces, **kw))
        monkeypatch.setattr(sim, "GROUP_BYTES", budget)
        got = sg.run_experiment(sink=lambda *args: seen.append(args), **kwargs)
        assert len(calls) == passes
        assert all(labels == fd.PRESET_LABELS for labels, _ in calls)
        assert sum(count for _, count in calls) == 6
        assert got.cells == want.cells
        assert len(seen) == len(whole) == 6
        for (trace, _, reports), (trace0, _, reports0) in zip(seen, whole):
            assert (trace.name, trace.seed) == (trace0.name, trace0.seed)
            for lab, report in reports.items():
                for name in ("z", "z_db", "decision_db", "events", "peak_snr_db"):
                    assert np.array_equal(getattr(report, name),
                                          getattr(reports0[lab], name))

    def test_run_detector_is_the_one_trace_case(self, presets):
        trace = sg.build_trace("high-white", seed=4)
        report = sim.run_detector(presets["F"], trace)
        for name, value in per_trace_report(presets["F"], trace).items():
            assert np.array_equal(getattr(report, name), value), name

    def test_rejects_traces_of_other_layouts(self, presets):
        traces = [sg.build_trace("low-white", seed=0),
                  sg.build_trace("low-white", seed=0, gap=40)]
        with pytest.raises(ValueError, match="layout"):
            sim.detect_traces({"A": presets["A"]}, traces)

    def test_rejects_filters_of_mixed_window_lengths(self, presets):
        traces = [sg.build_trace("low-white", seed=0)]
        filters = {"A": presets["A"], "B33": fd.design_preset("B", m=33)}
        with pytest.raises(ValueError, match="window length"):
            sim.detect_traces(filters, traces)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, presets, value):
        trace = sg.build_trace("low-white", seed=0)
        x = trace.x.copy()
        x[40] = value
        bad = dataclasses.replace(trace, x=x)
        with pytest.raises(ValueError, match="NaN or infinity"):
            sim.run_detector(presets["A"], bad)
        with pytest.raises(ValueError, match="NaN or infinity"):
            sim.detect_traces({"A": presets["A"]}, [trace, bad])

    def test_empty_seed_set_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            sg.run_experiment(seeds=())
        with pytest.raises(ValueError, match="seed"):
            sg.calibrate_amplitude(seeds=())


class TestKeptDesigns:
    """Repeat runs reuse the kept designs and their transforms."""

    def test_repeat_run_builds_nothing_again(self, monkeypatch):
        fd.design.cache_clear()
        built = []
        build = fd.build_ortho_transform
        monkeypatch.setattr(fd, "build_ortho_transform",
                            lambda *args: built.append(args) or build(*args))
        counts = []
        for _ in range(2):
            misses, before = fd.design.cache_info().misses, len(built)
            amplitude = sg.calibrate_amplitude(seeds=(0, 1))
            sg.run_experiment(scenarios=("low-white",), seeds=(0, 1),
                              amplitude=amplitude)
            counts.append((fd.design.cache_info().misses - misses,
                           len(built) - before))
        assert counts == [(6, 6), (0, 0)]

    def test_reports_equal_a_fresh_design_and_transform(self):
        kwargs = dict(scenarios=("low-white", "matched-colored"), seeds=(0, 3),
                      amplitude=9.0)
        sg.run_experiment(**kwargs)
        seen = []
        sg.run_experiment(sink=lambda *args: seen.append(args), **kwargs)
        for trace, filters, reports in seen:
            for lab, report in reports.items():
                fresh = fd.design.__wrapped__(filters[lab].spec, label=lab)
                assert fresh is not filters[lab]
                for name, value in per_trace_report(fresh, trace).items():
                    assert np.array_equal(getattr(report, name), value), \
                        (trace.name, trace.seed, lab, name)


def plain_calibration(target_db, tol_db, seeds, m, l, gap, lo=0.1, hi=1000.0,
                      max_iter=40):
    """Log-domain bisection that rebuilds and analyses every whole trace."""
    filt = fd.design_preset("A", m=m, l=l)
    tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)

    def median_peak(amplitude):
        peaks = []
        for seed in seeds:
            trace = sg.build_trace("low-white", seed, amplitude=amplitude, gap=gap)
            feats = run_bank(SampleSequence(values=trace.x),
                             filt.operators.h_matrix)
            z_db = to_decibels(compute_statistic(feats, tr))
            peaks += peak_snr(z_db, trace.extents(["quad-medium"]), feats.offset,
                              filt.half_length)
        return float(np.median(peaks))

    assert median_peak(lo) < target_db < median_peak(hi)
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi)
        value = median_peak(mid)
        if abs(value - target_db) <= 0.1 * tol_db:
            return mid
        if value < target_db:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestCalibration:
    @pytest.mark.parametrize("target_db,tol_db,seeds,m,gap", [
        (28.5, 1.0, (0, 1, 2, 3), 17, 51),
        (31.0, 0.01, (8, 2, 9), 17, 51),
        (25.0, 0.1, (4, 5), 17, 5),      # gap < 2K: the read span is clipped
        (2.0, 0.1, (6, 7, 8), 33, 30),
    ], ids=["default", "tight", "short-gap", "m33"])
    def test_equals_whole_trace_bisection(self, target_db, tol_db, seeds, m, gap):
        got = sg.calibrate_amplitude(target_db=target_db, tol_db=tol_db,
                                     seeds=seeds, m=m, gap=gap)
        assert got == plain_calibration(target_db, tol_db, seeds, m, 5, gap)

    @pytest.mark.parametrize("m,gap", [(17, 51), (17, 5), (33, 99), (33, 30)],
                             ids=["m17", "m17-short-gap", "m33", "m33-short-gap"])
    def test_read_span_peaks_equal_whole_trace_peaks(self, m, gap):
        filt = fd.design_preset("A", m=m, l=5, d=0)
        tr = build_ortho_transform(filt.operators.psi, filt.operators.weight.matrix)
        seeds = (0, 7, 3, 12, 5)
        peaks = sim._medium_peaks(filt, [sim.build_trace("low-white", s, gap=gap)
                                         for s in seeds], gap)
        for amplitude in (0.1, 0.73, 4.2, 10.0, 61.5, 1000.0):
            whole = []
            for seed in seeds:
                trace = sim.build_trace("low-white", seed, amplitude=amplitude,
                                        gap=gap)
                feats = run_bank(SampleSequence(values=trace.x),
                                 filt.operators.h_matrix)
                whole += peak_snr(to_decibels(compute_statistic(feats, tr)),
                                  trace.extents(["quad-medium"]), feats.offset,
                                  filt.half_length)
            assert peaks(amplitude).tolist() == whole
