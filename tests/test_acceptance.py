"""Acceptance suite: every release criterion at its stated tolerance.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing tests as well).  Criterion 7 exercises the full seeded
scenario matrix after the amplitude calibration step and is the only
compute-heavy block; it is budgeted at under 60 seconds total.
"""

import math
import time

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten import filter_design as fd
from sgwhiten import noise_models as nm
from sgwhiten import sim_harness as sim
from sgwhiten.analysis_bank import FeatureSeries
from sgwhiten.detector import compute_statistic

SEEDS = tuple(range(20))
GAMMA_DB = 20.0
CAL_TARGET_DB = 28.5
CAL_TOL_DB = 1.0


def check(passed: bool, name: str, detail: str = "") -> None:
    print(f"[{name}] {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"{name}: {detail}"


def crossings(cell) -> str:
    """Pulse kinds with a crossing, as fractions of seeds, or 'none'."""
    hits = [f"{kind}={frac:.2f}" for kind, frac in cell.detected_kinds.items() if frac]
    return " ".join(hits) or "none"


@pytest.fixture(scope="session")
def calibrated():
    start = time.perf_counter()
    amplitude = sg.calibrate_amplitude(target_db=CAL_TARGET_DB, tol_db=CAL_TOL_DB,
                                       seeds=SEEDS)
    return {"amplitude": amplitude, "calibration_seconds": time.perf_counter() - start}


@pytest.fixture(scope="session")
def experiment(calibrated):
    start = time.perf_counter()
    result = sg.run_experiment(scenarios=sim.SCENARIOS, seeds=SEEDS,
                               amplitude=calibrated["amplitude"],
                               gamma_db=GAMMA_DB)
    calibrated["experiment_seconds"] = time.perf_counter() - start
    return result


def test_criterion_1_golden_wng(presets):
    expected = {"A": (0.2103, 5e-4), "B": (0.2204, 2e-3), "C": (0.2374, 2e-3),
                "D": (0.2166, 2e-3), "E": (0.2290, 2e-3), "F": (0.2119, 2e-3)}
    worst = max(abs(presets[k].wng - v) / tol
                for k, (v, tol) in expected.items())
    detail = " ".join(f"{k}={presets[k].wng:.4f}" for k in expected)
    check(worst <= 1.0, "criterion 1: golden white-noise gains", detail)


def test_criterion_2_first_null(presets):
    h = presets["A"].h
    via_roots = fd.first_null_frequency(h, method="roots")
    via_grid = fd.first_null_frequency(h, method="grid")
    ok = (abs(via_roots - 0.9179) <= 5e-4) and (abs(via_roots - via_grid) <= 1e-4)
    check(ok, "criterion 2: first-null frequency",
          f"roots={via_roots:.6f} grid={via_grid:.6f}")


def test_criterion_3_notch_depths(presets):
    def rel_db(filt, omega):
        mag = abs(fd.response_at(filt.h, omega)[0])
        dc = abs(fd.response_at(filt.h, 0.0)[0])
        return 20.0 * math.log10(mag / dc)

    e_depths = [rel_db(presets["E"], w) for w in (0.8608, 1.6022, math.pi)]
    d_depth = rel_db(presets["D"], math.pi)
    ok = all(v <= -40.0 for v in e_depths) and d_depth <= -80.0
    check(ok, "criterion 3: notch depths",
          f"E={['%.1f' % v for v in e_depths]} dB, D(pi)={d_depth:.1f} dB")


def test_criterion_4_solver_equivalence(presets):
    worst = 0.0
    for label in ("A", "B", "C", "F"):
        filt = presets[label]
        r = nm.correlation_matrix(filt.spec.noise, filt.spec.m)
        via_kkt = fd.solve_kkt(r, filt.operators.psi, filt.operators.mu)
        via_ls = fd.extract_coefficients(
            filt.operators.h_matrix, fd.derivative_operator(filt.spec.l, 0),
            filt.operators.mu)
        worst = max(worst,
                    np.abs(via_kkt - via_ls).max() / np.abs(via_ls).max())
    conditioning = {lab: presets[lab].condition for lab in ("D", "E")}
    ok = worst <= 1e-8 and all(c is not None and c > 1.0
                               for c in conditioning.values())
    check(ok, "criterion 4: solver equivalence",
          f"max rel diff={worst:.2e}; conditioning report "
          f"D={conditioning['D']:.2e} E={conditioning['E']:.2e}")


def test_criterion_5_property_suite(presets, transforms):
    failures = []

    # polynomial reproduction <= 1e-9 relative, every preset, d = 0, 1, 2
    for label in sg.PRESET_LABELS:
        for d in (0, 1, 2):
            filt = sg.design_preset(label, d=d)
            n = np.arange(60, dtype=float)
            centers = n[8:-8]
            for p in range(5):
                y = np.convolve(n ** p, filt.h, mode="valid")
                if p < d:
                    expected = np.zeros_like(centers)
                else:
                    expected = (math.factorial(p) / math.factorial(p - d)
                                * centers ** (p - d))
                scale = max(np.abs(expected).max(), 1.0)
                if np.abs(y - expected).max() > 1e-9 * scale:
                    failures.append(f"poly {label} d={d} p={p}")

    # Parseval <= 1e-6 relative on a 4096-point grid
    for label, filt in presets.items():
        omega, resp = fd.frequency_response(filt.h, 4096)
        quad = np.trapezoid(np.abs(resp) ** 2, omega) / math.pi
        if abs(quad - filt.wng) > 1e-6 * filt.wng:
            failures.append(f"parseval {label}")

    # symmetry <= 1e-12 (even d), antisymmetry for odd d
    for label, filt in presets.items():
        if np.abs(filt.h - filt.h[::-1]).max() > 1e-12:
            failures.append(f"symmetry {label}")
    odd = sg.design_preset("A", d=1)
    if np.abs(odd.h + odd.h[::-1]).max() > 1e-12:
        failures.append("antisymmetry A d=1")

    # H psi = I <= 1e-9
    for label, filt in presets.items():
        resid = np.abs(filt.operators.h_matrix @ filt.operators.psi
                       - np.eye(filt.spec.l)).max()
        if resid > 1e-9:
            failures.append(f"left-inverse {label}")

    # orthonormalization identity chain <= 1e-8 relative
    rng = np.random.default_rng(99)
    for label, filt in presets.items():
        tr = transforms[label]
        psi = filt.operators.psi
        for _ in range(4):
            alpha = rng.normal(size=5)
            synth = psi @ alpha
            direct = synth @ tr.w_scaled @ synth
            ortho = np.sum((tr.u @ alpha) ** 2)
            if abs(direct - ortho) > 1e-8 * abs(direct):
                failures.append(f"identity-chain {label}")

    # statistic sign independence, exact
    coeffs = rng.normal(size=(40, 5))
    for label in sg.PRESET_LABELS:
        z_pos = compute_statistic(FeatureSeries(coeffs=coeffs, offset=8),
                                  transforms[label])
        z_neg = compute_statistic(FeatureSeries(coeffs=-coeffs, offset=8),
                                  transforms[label])
        if not np.array_equal(z_pos, z_neg):
            failures.append(f"sign-independence {label}")

    check(not failures, "criterion 5: property suite",
          f"failures={failures}" if failures else "all properties hold")


def test_criterion_6_sinusoid_gain(presets):
    rng = np.random.default_rng(4242)
    worst = 0.0
    for label, filt in presets.items():
        for omega_x in rng.uniform(0.1, 3.0, size=5):
            samples = math.ceil(100 * 2 * math.pi / omega_x) + filt.spec.m
            n = np.arange(samples)
            phase = rng.uniform(0, 2 * math.pi)
            y = np.convolve(np.sin(omega_x * n + phase), filt.h, mode="valid")
            measured = np.mean(y ** 2)
            expected = abs(fd.response_at(filt.h, omega_x)[0]) ** 2 / 2
            worst = max(worst, abs(measured - expected) / expected)
    check(worst <= 0.02, "criterion 6: sinusoid gain",
          f"worst rel error={worst:.4f} (tolerance 0.02)")


def test_criterion_7_calibration_anchor(calibrated, experiment):
    cell = experiment.cells[("low-white", "A")]
    ok = abs(cell.median_db - CAL_TARGET_DB) <= CAL_TOL_DB
    check(ok, "criterion 7: amplitude calibration",
          f"A={calibrated['amplitude']:.3f} mV -> low-white median "
          f"{cell.median_db:.2f} dB (target {CAL_TARGET_DB} +- {CAL_TOL_DB})")


def test_criterion_7a_low_white_detections(experiment):
    fractions = {lab: experiment.cells[("low-white", lab)].detect_medium
                 for lab in ("A", "B", "D", "E", "F")}
    ok = all(v >= 0.9 for v in fractions.values())
    check(ok, "criterion 7a: low-white medium-pulse detection",
          " ".join(f"{k}={v:.2f}" for k, v in fractions.items()))


def test_criterion_7b_high_white_filter_c_silent(experiment):
    cell = experiment.cells[("high-white", "C")]
    silent = 1.0 - cell.any_event_fraction
    check(silent >= 0.9, "criterion 7b: high-white, no detections for C",
          f"silent fraction={silent:.2f} (median medium peak "
          f"{cell.median_db:.1f} dB); crossings at {crossings(cell)}")


def test_criterion_7c_matched_e_dominates(experiment):
    labels = experiment.labels
    peaks = {lab: experiment.cells[("matched-colored", lab)].peaks_medium_db
             for lab in labels}
    detected = experiment.cells[("matched-colored", "E")].medium_detected
    wins, margins = [], []
    for i in range(len(SEEDS)):
        others = [peaks[lab][i] for lab in labels if lab != "E"]
        margins.append(peaks["E"][i] - max(others))
        wins.append(detected[i] and peaks["E"][i] > max(others))
    frac = np.mean(wins)
    margin = float(np.median(margins))
    ok = frac >= 0.9 and margin >= 10.0
    check(ok, "criterion 7c: matched-colored, E dominates",
          f"win fraction={frac:.2f}, median margin={margin:.1f} dB")


def test_criterion_7d_mismatched_all_silent(experiment):
    joint_silent = []
    for i in range(len(SEEDS)):
        joint_silent.append(not any(
            experiment.cells[("mismatched-colored", lab)].any_event[i]
            for lab in experiment.labels))
    frac = np.mean(joint_silent)
    per_filter = {lab: 1.0 - experiment.cells[("mismatched-colored", lab)]
                  .any_event_fraction for lab in experiment.labels}
    where = "; ".join(
        f"{lab}: {crossings(experiment.cells[('mismatched-colored', lab)])}"
        for lab in experiment.labels)
    check(frac >= 0.9, "criterion 7d: mismatched-colored, all silent",
          f"joint silent fraction={frac:.2f}; per-filter silent "
          + " ".join(f"{k}={v:.2f}" for k, v in per_filter.items())
          + f"; crossings at {where}")


def test_criterion_7e_nonquadratic_suppressed(experiment):
    counts = {}
    for scenario in ("low-white", "high-white"):
        for lab in experiment.labels:
            cell = experiment.cells[(scenario, lab)]
            hits = sum(cell.nonquad_detected)
            if hits:
                counts[f"{scenario}/{lab}"] = hits
    check(not counts, "criterion 7e: square/sawtooth suppressed in white noise",
          f"violations={counts}" if counts else "no square/sawtooth crossings")


def test_criterion_7_runtime(calibrated):
    total = calibrated["calibration_seconds"] + calibrated["experiment_seconds"]
    check(total < 60.0, "criterion 7: runtime",
          f"calibration+experiment={total:.1f} s (budget 60 s)")


def test_criterion_8_wideband_trends(presets):
    sidelobes, wngs = [], []
    for f_c in (0.05, 0.10, 0.15, 0.20):
        filt = fd.design_preset("F", omega_c=2 * math.pi * f_c)
        sidelobes.append(fd.sidelobe_peak(filt.h))
        wngs.append(filt.wng)
    trend_ok = (all(a >= b - 1e-12 for a, b in zip(sidelobes, sidelobes[1:]))
                and all(a <= b + 1e-12 for a, b in zip(wngs, wngs[1:])))
    near_white = fd.design_preset("F", omega_c=0.01)
    gap = np.abs(near_white.h - presets["A"].h).max()
    check(trend_ok and gap <= 1e-3, "criterion 8: wide-band cut-off trends",
          f"sidelobes={['%.4f' % s for s in sidelobes]} "
          f"wng={['%.4f' % w for w in wngs]} convergence gap={gap:.2e}")
