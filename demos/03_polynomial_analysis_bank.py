#!/usr/bin/env python3
"""The analysis bank: local polynomial coefficients from a sliding window.

A designed filter is one row of a bank H whose rows estimate all L monomial
coefficients around every sample.  This demo runs the bank over a noisy
quadratic pulse, shows the quadratic coefficient lighting up at the pulse
center, reconstructs the fitted segment, and confirms that the streaming
wrapper, fed uneven chunks, reproduces batch results within the round-off
bound 2 gamma_M sum|h||x| of each M-term product, gamma_M = M u / (1 - M u).

Run:  python demos/03_polynomial_analysis_bank.py
"""

import numpy as np

import sgwhiten as sg
from sgwhiten.analysis_bank import SampleSequence, StreamingBank, run_bank, synthesize

rng = np.random.default_rng(7)
filt = sg.design_preset("A")
k = filt.half_length

pulse = sg.sim_harness.quadratic_pulse(17, 6.0)
x = np.concatenate([np.zeros(40), pulse, np.zeros(40)])
x += rng.normal(0, 0.05, len(x))

feats = run_bank(SampleSequence(values=x), filt.operators.h_matrix)
center = 40 + 8
row = center - feats.offset
alpha = feats.coeffs[row]

print("coefficients at the pulse center (true curvature -6/64 = -0.09375):")
for l, value in enumerate(alpha):
    print(f"  l={l}: {value:+.5f}")

segment = synthesize(alpha, filt.operators.psi)
truth = x[center - k:center + k + 1]
print(f"\nsynthesized segment rms error vs window samples: "
      f"{np.sqrt(np.mean((segment - truth) ** 2)):.4f} "
      f"(noise level 0.05)")

curvature = feats.coeffs[:, 2]
print(f"quadratic-coefficient trace: min {curvature.min():+.4f} at center "
      f"{np.argmin(curvature) + feats.offset} (pulse center {center})")

stream = StreamingBank(filt.operators.h_matrix)
cuts = [5, 12, 13, 40, 70]
collected = np.concatenate([stream.push(chunk) for chunk in np.split(x, cuts)])
m = len(filt.h)
unit = np.finfo(float).eps / 2
windows = np.lib.stride_tricks.sliding_window_view(np.abs(x), m)
bound = 2 * m * unit / (1 - m * unit) * (windows @ np.abs(filt.operators.h_matrix.T))
deviation = np.abs(collected - feats.coeffs)
print(f"streaming wrapper, chunks of {np.diff([0, *cuts, len(x)]).tolist()} "
      f"samples: largest deviation from batch {deviation.max():.2e}, "
      f"{np.max(deviation / bound):.3f} of the round-off bound")
