"""Synthetic pulse-detection scenarios and the preset-comparison experiment.

A trace is a pulse train (quadratic pulses of 9, 17 and 33 samples, then a
square and a sawtooth of 17, with alternating polarity) on top of a 2 mV dc
offset and a slow 5 mV background sinusoid, plus scenario noise:

* low-white / high-white   -- zero-mean Gaussian, sigma 0.1 / 0.2 mV
* matched-colored          -- two 5 mV interferers at 0.8608 and 1.6022
                              rad/sample (the narrow-band preset's nulls)
* mismatched-colored       -- two 5 mV interferers at 0.9469 and 1.7624

Colored scenarios carry no white-noise floor by default; pass
``colored_white_noise=True`` to add the low-scenario floor back.  All
randomness (phases, noise) comes from numpy's default_rng (PCG64) seeded per
trace, so identical seeds give bit-identical traces.  Time is counted in
samples: traces carry no sampling period.  Golden traces for regression
live in the test suite, so cross-library generator parity is not required.

The experiment runner designs every preset (``filter_design.design`` keeps
the designs, and each filter its detector transform, so repeat runs reuse
both), builds the (scenario, seed) traces in groups of bounded size, and
runs all presets over a group in one ``detect_traces`` call: the traces, of
one length, are laid end to end, one window pass gives every preset's
powers (``detector``), and ``_by_trace``, the one place that knows the
layout, splits the statistics by trace and drops the windows that straddle
two traces.  It aggregates a scenarios-by-filters matrix of medium-pulse
peak SNRs (peaks of the fitted ratio Z), in the shape of a standard
comparison table.  Detection patterns count crossings of the
noise-corrected statistic D (see ``detector``).  Amplitude calibration
bisects over pulse amplitudes 0.1 to 1000 and reads only the Z peak of the
medium pulse: it builds each seed's trace once and, per bisection step,
recomposes only the samples that peak reads, for all seeds in one window
pass that gives p1 and p0 alone.  Both give the results of whole traces
analysed one at a time within the round-off bound of their products
(``analysis_bank``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
import functools
import math

import numpy as np

from . import filter_design as fd
from .analysis_bank import _freeze, window_power_sums
from .detector import (DEFAULT_EPSILON, DEFAULT_GAMMA_DB, DEFAULT_MASKS,
                       DetectionReport, HypothesisMask, build_reports,
                       detection_statistics)

SCENARIOS = ("low-white", "high-white", "matched-colored", "mismatched-colored")

WHITE_SIGMA = {"low-white": 0.1, "high-white": 0.2}
MATCHED_OMEGAS = (0.8608, 1.6022)
MISMATCHED_OMEGAS = (0.9469, 1.7624)
INTERFERER_AMPLITUDE = 5.0

BACKGROUND_DC = 2.0
BACKGROUND_AMPLITUDE = 5.0
BACKGROUND_OMEGA = 0.0084

DEFAULT_AMPLITUDE = 10.0
DEFAULT_GAP = 51          # 3x the default window length 17
GROUP_BYTES = 1 << 23     # about the most one run_experiment group holds

PULSE_KINDS = ("quad-small", "quad-medium", "quad-large", "square", "sawtooth")
MEDIUM = "quad-medium"


@dataclass(frozen=True)
class PulseTruth:
    """Ground truth for one pulse: half-open support [start, stop) and sign."""

    kind: str
    start: int
    stop: int
    sign: int

    @property
    def extent(self) -> tuple[int, int]:
        return (self.start, self.stop)


@dataclass(frozen=True)
class ScenarioTrace:
    """Composite waveform with exact component breakdown and pulse truth."""

    name: str
    seed: int
    x: np.ndarray
    components: dict
    pulses: tuple
    amplitude: float

    def __post_init__(self) -> None:
        _freeze(self, "x")

    def extents(self, kinds=None) -> list[tuple[int, int]]:
        if kinds is None:
            return [p.extent for p in self.pulses]
        return [p.extent for p in self.pulses if p.kind in kinds]


def quadratic_pulse(duration: int, amplitude: float) -> np.ndarray:
    """Downward-opening parabola, peak at center, zero at both endpoints."""
    j = np.arange(duration, dtype=float)
    return amplitude * (1.0 - (2.0 * j / (duration - 1) - 1.0) ** 2)


def square_pulse(duration: int, amplitude: float) -> np.ndarray:
    return np.full(duration, amplitude, dtype=float)


def sawtooth_pulse(duration: int, amplitude: float) -> np.ndarray:
    return amplitude * np.arange(duration, dtype=float) / (duration - 1)


@functools.lru_cache(maxsize=8)
def gen_pulse_train(amplitude: float, gap: int = DEFAULT_GAP):
    """Deterministic five-pulse train with alternating polarity.

    Quadratic pulses of 9, 17 and 33 samples, then square and sawtooth of 17,
    signs +, -, +, -, +, separated (and flanked) by ``gap`` quiet samples.
    Returns (samples, pulse truth tuple).  The recent trains are kept, so
    the traces of one amplitude and gap share one read-only sample array.
    """
    if not 0 < amplitude < math.inf:
        raise ValueError(f"pulse amplitude must be positive and finite, "
                         f"got {amplitude!r}")
    shapes = [
        ("quad-small", quadratic_pulse(9, amplitude)),
        ("quad-medium", quadratic_pulse(17, amplitude)),
        ("quad-large", quadratic_pulse(33, amplitude)),
        ("square", square_pulse(17, amplitude)),
        ("sawtooth", sawtooth_pulse(17, amplitude)),
    ]
    segments = []
    truth = []
    position = 0
    sign = 1
    for kind, shape in shapes:
        segments.append(np.zeros(gap))
        position += gap
        segments.append(sign * shape)
        truth.append(PulseTruth(kind=kind, start=position,
                                stop=position + len(shape), sign=sign))
        position += len(shape)
        sign = -sign
    segments.append(np.zeros(gap))
    samples = np.concatenate(segments)
    samples.setflags(write=False)
    return samples, tuple(truth)


def gen_background(num_samples: int, rng: np.random.Generator | None = None,
                   phase: float | None = None) -> np.ndarray:
    """Slow background: 2 mV dc plus a 5 mV sinusoid with random phase."""
    if phase is None:
        if rng is None:
            raise ValueError("need a generator or an explicit phase")
        phase = rng.uniform(0.0, 2.0 * math.pi)
    n = np.arange(num_samples)
    return BACKGROUND_DC + BACKGROUND_AMPLITUDE * np.sin(BACKGROUND_OMEGA * n + phase)


def gen_noise(scenario: str, num_samples: int, rng: np.random.Generator,
              colored_white_noise: bool = False) -> dict:
    """Scenario noise components, each as a separate named array.

    White scenarios return {"white": ...}; colored scenarios return
    {"interferers": ...} (sum of two random-phase sinusoids), plus the
    low-scenario white floor when ``colored_white_noise`` is set.
    """
    n = np.arange(num_samples)
    if scenario in WHITE_SIGMA:
        return {"white": rng.normal(0.0, WHITE_SIGMA[scenario], num_samples)}
    if scenario == "matched-colored":
        omegas = MATCHED_OMEGAS
    elif scenario == "mismatched-colored":
        omegas = MISMATCHED_OMEGAS
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    interferers = np.zeros(num_samples)
    for omega in omegas:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        interferers += INTERFERER_AMPLITUDE * np.sin(omega * n + phase)
    out = {"interferers": interferers}
    if colored_white_noise:
        out["white"] = rng.normal(0.0, WHITE_SIGMA["low-white"], num_samples)
    return out


def _compose(parts) -> np.ndarray:
    """The composite of trace components: summed from zero, in order, one
    element at a time.  Composing a slice of the components, stacked over
    seeds or not, gives the same slice of the trace bit for bit."""
    total = 0.0
    for part in parts:
        total = total + part
    return total


def build_trace(scenario: str, seed: int, amplitude: float = DEFAULT_AMPLITUDE,
                gap: int = DEFAULT_GAP,
                colored_white_noise: bool = False) -> ScenarioTrace:
    """Assemble a seeded scenario trace; the composite is the exact component sum.

    Draw order from the per-trace generator: background phase first, then the
    noise component (interferer phases in ascending frequency order).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    rng = np.random.default_rng(seed)
    pulses, truth = gen_pulse_train(amplitude, gap)
    num = len(pulses)
    n = np.arange(num)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    components = {
        "pulses": pulses,
        "dc": np.full(num, BACKGROUND_DC),
        "background": BACKGROUND_AMPLITUDE * np.sin(BACKGROUND_OMEGA * n + phase),
    }
    components.update(gen_noise(scenario, num, rng, colored_white_noise))
    return ScenarioTrace(name=scenario, seed=seed,
                         x=_compose(components.values()), components=components,
                         pulses=truth, amplitude=amplitude)


def _end_to_end(x: np.ndarray, m: int) -> np.ndarray:
    """The rows of x (traces x samples) laid end to end, plus M - 1 zeros,
    so that a window pass over them gives one row per sample of each trace."""
    return np.concatenate([x.ravel(), np.zeros(m - 1)])


def _by_trace(rows: np.ndarray, traces: int, m: int) -> np.ndarray:
    """Split the window rows of an ``_end_to_end`` pass into (traces, n - M + 1,
    ...), dropping the M - 1 rows whose windows straddle two traces; a trace
    of fewer than M samples, which holds no window, is a ValueError."""
    n = len(rows) // traces
    if n < m:
        raise ValueError(f"trace length {n} is shorter than the window {m}")
    return rows.reshape(traces, n, *rows.shape[1:])[:, :n - m + 1]


def detect_traces(filters, traces, gamma_db: float = DEFAULT_GAMMA_DB,
                  epsilon: float = DEFAULT_EPSILON,
                  masks: HypothesisMask = DEFAULT_MASKS) -> dict:
    """Full pipeline for filters of one window length M over traces of one
    length and pulse layout: over the traces end to end, one window pass
    through every filter's [H'C_F, H'C_B, V] gives its powers p1, p0 and r,
    and ``_by_trace`` splits their statistics into reports.  ``filters``
    maps labels to ``DesignedFilter``s; the result maps each label to its
    reports, one per trace, in trace order.

    Each report agrees with a run of its filter over its trace alone within
    the round-off bound of its products (see README).  Raises ValueError when
    there is no filter or trace, the filters differ in M, the traces in
    layout, a trace is shorter than M, or a sample is not finite.
    """
    if not filters or not traces:
        raise ValueError("no filters or no traces to detect")
    lengths = {filt.spec.m for filt in filters.values()}
    if len(lengths) > 1:
        raise ValueError(f"filters detected together must share one window "
                         f"length M, got {sorted(lengths)}")
    extents = traces[0].extents()
    if any(trace.extents() != extents for trace in traces[1:]):
        raise ValueError("traces detected together must share their pulse layout")
    (m,) = lengths
    matrices = [matrix for filt in filters.values() for matrix in (
        *filt.transform.window_factors(filt.operators.h_matrix, masks),
        filt.transform.residual_factor)]
    sums = window_power_sums(_end_to_end(np.stack([t.x for t in traces]), m),
                             matrices)
    reports = {}
    for k, (label, filt) in enumerate(filters.items()):
        stats = detection_statistics(*sums[3 * k:3 * k + 3],
                                     filt.transform.mask_factors(masks).share,
                                     epsilon)
        reports[label] = build_reports(*(_by_trace(series, len(traces), m)
                                         for series in stats),
                                       filt.half_length, gamma_db, extents,
                                       filt.half_length)
    return reports


def run_detector(filt: fd.DesignedFilter, trace: ScenarioTrace,
                 gamma_db: float = DEFAULT_GAMMA_DB,
                 epsilon: float = DEFAULT_EPSILON,
                 masks: HypothesisMask = DEFAULT_MASKS) -> DetectionReport:
    """Full pipeline for one filter over one trace: ``detect_traces`` of it."""
    return detect_traces({filt.label: filt}, [trace], gamma_db=gamma_db,
                         epsilon=epsilon, masks=masks)[filt.label][0]


@dataclass(frozen=True)
class CellStats:
    """Per-seed record of one (scenario, filter) cell, seeds in run order."""

    peaks_medium_db: tuple    # medium-pulse peak statistic per seed
    medium_detected: tuple    # crossing at the medium pulse, per seed
    any_event: tuple          # any crossing anywhere, per seed
    nonquad_detected: tuple   # crossing at square or sawtooth, per seed
    detected_kinds: dict      # kind -> fraction of seeds detected

    @property
    def detect_medium(self) -> float:
        return sum(self.medium_detected) / len(self.medium_detected)

    @property
    def any_event_fraction(self) -> float:
        return sum(self.any_event) / len(self.any_event)

    @property
    def nonquad_event(self) -> float:
        return sum(self.nonquad_detected) / len(self.nonquad_detected)

    @property
    def median_db(self) -> float:
        return float(np.median(self.peaks_medium_db))

    @property
    def iqr_db(self) -> float:
        lo, hi = np.percentile(self.peaks_medium_db, [25, 75])
        return float(hi - lo)


@dataclass(frozen=True)
class ExperimentResult:
    """Scenario-by-filter matrix of detector behavior across seeds."""

    scenarios: tuple
    labels: tuple
    seeds: tuple
    amplitude: float
    gamma_db: float
    m: int
    l: int
    cells: dict               # (scenario, label) -> CellStats

    def table(self) -> dict:
        """Median medium-pulse peak SNR (dB), rows scenarios, columns filters."""
        return {s: {lab: self.cells[(s, lab)].median_db for lab in self.labels}
                for s in self.scenarios}


def run_experiment(scenarios=SCENARIOS, labels=fd.PRESET_LABELS, m: int = 17,
                   l: int = 5, gamma_db: float = DEFAULT_GAMMA_DB,
                   seeds=range(20), amplitude: float = DEFAULT_AMPLITUDE,
                   gap: int | None = None, epsilon: float = DEFAULT_EPSILON,
                   colored_white_noise: bool = False,
                   masks: HypothesisMask = DEFAULT_MASKS,
                   sink=None) -> ExperimentResult:
    """Design the presets once, then build the (scenario, seed) traces in
    groups of at most about GROUP_BYTES and run all presets over a group in
    one ``detect_traces`` call, one window pass.

    Per seed and filter the medium-pulse peak SNR and the detection pattern
    (which pulses crossed the threshold, whether anything crossed at all) are
    recorded; aggregation is by fraction of seeds and median peak.  Every
    detection uses ``masks``.  ``sink``, if given, is called once per trace,
    in (scenario, seed) order, as ``sink(trace, filters, reports)``, the
    dicts mapping each label to its ``DesignedFilter`` and ``DetectionReport``.
    A group's traces and reports are dropped once the sink has seen them, so
    memory does not grow with the number of seeds.  Raises ValueError when
    there is no scenario or no seed.
    """
    scenarios, seeds = tuple(scenarios), tuple(seeds)
    if not scenarios or not seeds:
        raise ValueError("the experiment needs at least one scenario and one seed")
    if gap is None:
        gap = 3 * m
    filters = {lab: fd.design_preset(lab, m=m, l=l, d=0) for lab in labels}
    cases = [(scenario, seed) for scenario in scenarios for seed in seeds]
    # Floats a group holds per sample: the trace, its components and their
    # end-to-end copy, and per preset p1, p0, r and 3 report series.
    num = len(gen_pulse_train(amplitude, gap)[0])
    size = max(GROUP_BYTES // (8 * num * (6 * len(labels) + 16)), 1)

    half = (m - 1) // 2
    medium = PULSE_KINDS.index(MEDIUM)
    runs = {lab: [] for lab in labels}    # per trace: (peak, kinds, any event)
    for first in range(0, len(cases), size):
        traces = [build_trace(scenario, seed, amplitude=amplitude, gap=gap,
                              colored_white_noise=colored_white_noise)
                  for scenario, seed in cases[first:first + size]]
        reports = detect_traces(filters, traces, gamma_db=gamma_db,
                                epsilon=epsilon, masks=masks)
        for i, trace in enumerate(traces):
            if sink is not None:
                sink(trace, filters, {lab: reports[lab][i] for lab in labels})
            for lab in labels:
                report = reports[lab][i]
                runs[lab].append((report.peak_snr_db[medium],
                                  _detected_kinds(report, trace, half),
                                  len(report.events) > 0))
        # Release the group, whose reports view its whole statistic arrays,
        # before the next one is built.
        del traces, reports, trace, report

    cells = {}
    for lab in labels:
        for k, scenario in enumerate(scenarios):
            peaks, kinds, events = zip(*runs[lab][k * len(seeds):
                                                  (k + 1) * len(seeds)])
            cells[(scenario, lab)] = CellStats(
                peaks_medium_db=peaks,
                medium_detected=tuple(MEDIUM in d for d in kinds),
                any_event=events,
                nonquad_detected=tuple(bool({"square", "sawtooth"} & d)
                                       for d in kinds),
                detected_kinds={kind: sum(kind in d for d in kinds) / len(seeds)
                                for kind in PULSE_KINDS})
    return ExperimentResult(scenarios=scenarios, labels=tuple(labels),
                            seeds=seeds, amplitude=amplitude, gamma_db=gamma_db,
                            m=m, l=l, cells=cells)


def _detected_kinds(report: DetectionReport, trace: ScenarioTrace,
                    half: int) -> set:
    events = report.events.tolist()   # ascending, as build_reports gives them
    return {p.kind for p in trace.pulses if bisect_left(events, p.start - half)
            < bisect_left(events, p.stop + half)}


def _medium_peaks(filt: fd.DesignedFilter, traces, gap: int):
    """Medium-pulse Z peaks (dB) of ``traces`` as a function of the pulse
    amplitude, one per trace.

    The traces are built once; a call recomposes only the samples
    [start - 2K, stop + 2K) that the windows centred within K of the medium
    pulse read, for all traces at once and in ``build_trace``'s order, and
    runs one window pass over them for p1 and p0 of the default mask.
    """
    m = filt.spec.m
    start, stop = traces[0].extents([MEDIUM])[0]
    reach = 2 * filt.half_length
    read = slice(max(start - reach, 0), min(stop + reach, len(traces[0].x)))
    parts = {name: np.stack([trace.components[name][read] for trace in traces])
             for name in traces[0].components}
    matrices = filt.transform.window_factors(filt.operators.h_matrix,
                                             DEFAULT_MASKS)

    def peaks(amplitude: float) -> np.ndarray:
        # Only the pulses scale with the amplitude; they stay the first part.
        parts["pulses"] = gen_pulse_train(amplitude, gap)[0][read]
        p1, p0 = window_power_sums(_end_to_end(_compose(parts.values()), m),
                                   matrices)
        # Z dB alone: no residual and no noise share.
        z_db = detection_statistics(p1, p0, np.zeros_like(p1), 0.0)[1]
        return _by_trace(z_db, len(traces), m).max(axis=1)

    return peaks


def calibrate_amplitude(target_db: float = 28.5, tol_db: float = 1.0,
                        seeds=range(20), m: int = 17, l: int = 5,
                        gap: int | None = None) -> float:
    """Pulse amplitude that puts the plain preset's low-white medium-pulse
    peak SNR (median over seeds) at the target level.

    The median peak grows monotonically with amplitude, so a log-domain
    bisection over amplitudes 0.1 to 1000 converges; iteration stops once
    the median is within a tenth of ``tol_db`` of the target, or after 40
    steps.  Each seed's trace is built once, and an evaluation recomposes
    and analyses only the samples the medium-pulse peak reads
    (``_medium_peaks``): the peaks are those of whole traces at that
    amplitude, within round-off.  Raises ValueError when there is no seed.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("calibration needs at least one seed")
    if gap is None:
        gap = 3 * m
    peaks = _medium_peaks(fd.design_preset("A", m=m, l=l, d=0),
                          [build_trace("low-white", seed, gap=gap)
                           for seed in seeds], gap)

    def median_peak(amplitude: float) -> float:
        return float(np.median(peaks(amplitude)))

    lo, hi = 0.1, 1000.0
    if not median_peak(lo) < target_db < median_peak(hi):
        raise ValueError("calibration target outside the amplitude bracket")
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        value = median_peak(mid)
        if abs(value - target_db) <= 0.1 * tol_db:
            return mid
        if value < target_db:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
