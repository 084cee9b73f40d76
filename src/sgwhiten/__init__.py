"""Whitened Savitzky-Golay filters with colored-noise models.

Polynomial-regression FIR filters whose weight matrix comes from the inverse
autocorrelation of a parameterized noise model, giving direct control over
side-lobe structure and null placement.  Includes a sliding polynomial
analysis bank, a quadratic-pulse detection statistic, and a seeded scenario
simulator for comparing the preset designs.
"""

from .errors import IllConditionedError, NotPositiveDefiniteError, NumericalError
from .noise_models import (AutocorrSequence, NoiseModel, WeightMatrix,
                           autocorrelation, condition_estimate,
                           gauss_markov_lowpass_autocorr,
                           gaussian_kernel_weights, invert_to_weight,
                           kms_tridiagonal_inverse, narrowband_autocorr,
                           toeplitz_from_autocorr, weight_matrix,
                           wideband_autocorr)
from .filter_design import (DesignSpec, DesignedFilter, RegressionOperators,
                            build_vandermonde, cutoff_heuristic,
                            derivative_operator, design, design_preset,
                            extract_coefficients, first_null_frequency,
                            frequency_response, moment_vector, preset_cutoff,
                            response_at, sidelobe_peak, solve_kkt,
                            solve_weighted_ls, white_noise_gain,
                            PRESET_LABELS)
from .analysis_bank import (FeatureSeries, SampleSequence, StreamingBank,
                            convolve, run_bank, synthesize)
from .detector import (DetectionReport, HypothesisMask, OrthoTransform,
                       build_ortho_transform, compute_statistic, detect,
                       peak_snr, threshold_detect, to_decibels)
from .sim_harness import (ExperimentResult, PulseTruth, ScenarioTrace,
                          SCENARIOS, build_trace, calibrate_amplitude,
                          detect_traces, gen_background, gen_noise,
                          gen_pulse_train, run_detector, run_experiment)

__version__ = "0.1.0"
