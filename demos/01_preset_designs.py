#!/usr/bin/env python3
"""Design the six preset filters and compare their diagnostics.

The presets share the same window (M = 17) and quartic model (L = 5) but
differ in the noise model behind the weight matrix:

  A  plain least squares (white noise, identity weights)
  B  diagonal Gaussian kernel taper
  C  first-order low-pass Gauss-Markov model
  D  first-order Nyquist model (deep notch at the band edge)
  E  narrow-band model with three steered nulls
  F  wide-band model spanning cut-off to Nyquist

Run:  python demos/01_preset_designs.py [outdir]

Writes one frequency-response CSV per preset for external plotting and
prints the white-noise gain and first-null table.
"""

import sys
from pathlib import Path

import numpy as np

import sgwhiten as sg
from sgwhiten.cli import write_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")

print(f"{'preset':>6} {'WNG':>8} {'first null':>11} {'condition':>11}  weight source")
for label in sg.PRESET_LABELS:
    filt = sg.design_preset(label)
    null = "-" if filt.omega_delta is None else f"{filt.omega_delta:.4f}"
    cond = "-" if filt.condition is None else f"{filt.condition:.2e}"
    print(f"{label:>6} {filt.wng:8.4f} {null:>11} {cond:>11}  "
          f"{filt.operators.weight.provenance}")

    omega, resp = sg.frequency_response(filt.h, 2048)
    mag = np.abs(resp)
    with np.errstate(divide="ignore"):
        db = np.maximum(20 * np.log10(mag), -300.0)
    write_csv(out / f"response_{label}.csv", ("omega", "magnitude", "db"),
              (omega, mag, db))

print(f"\nresponse curves written to {out}/response_<label>.csv")
print("plot db vs omega to see the main lobe, side lobes, and steered nulls;")
print("preset E pins nulls at 0.8608, 1.6022 and pi, preset D only at pi.")
