#!/usr/bin/env python3
"""How the two colored-noise knobs shape the frequency response.

Part 1 sweeps the pole damping of the Nyquist preset: as the damping
approaches zero from the left, the band-edge side-lobe collapses into a
notch (the filter zero slides onto the unit circle).

Part 2 sweeps the wide-band cut-off: raising the cut-off widens the main
lobe, lowers the side-lobes, and raises the white-noise gain; as the
cut-off drops toward dc the design converges to the plain preset A.

Run:  python demos/02_response_shaping.py [outdir]
"""

import math
import sys
from pathlib import Path

import numpy as np

import sgwhiten as sg
from sgwhiten import filter_design as fd
from sgwhiten.cli import write_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")

print("Nyquist preset D: band-edge gain vs pole damping")
print(f"{'sigma':>10} {'|H(pi)| dB':>12} {'WNG':>8}")
rows = []
for sigma in (-1e-1, -1e-2, -1e-3, -1e-4, -1e-6):
    filt = sg.design_preset("D", sigma_nb=sigma)
    edge = abs(fd.response_at(filt.h, math.pi)[0])
    edge_db = 20 * math.log10(max(edge, 1e-15))
    rows.append((sigma, edge_db, filt.wng))
    print(f"{sigma:>10.0e} {edge_db:>12.1f} {filt.wng:>8.4f}")
write_csv(out / "nyquist_damping_sweep.csv", ("sigma", "edge_db", "wng"),
          zip(*rows))

print("\nWide-band preset F: side-lobe level and WNG vs cut-off")
print(f"{'f_c':>6} {'sidelobe':>9} {'WNG':>8}")
rows = []
for f_c in (0.05, 0.10, 0.15, 0.20):
    filt = sg.design_preset("F", omega_c=2 * math.pi * f_c)
    side = fd.sidelobe_peak(filt.h)
    rows.append((f_c, side, filt.wng))
    print(f"{f_c:>6.2f} {side:>9.4f} {filt.wng:>8.4f}")
write_csv(out / "wideband_cutoff_sweep.csv", ("f_c", "sidelobe", "wng"),
          zip(*rows))

plain = sg.design_preset("A")
near_white = sg.design_preset("F", omega_c=0.01)
gap = np.abs(near_white.h - plain.h).max()
print(f"\nwith the cut-off at 0.01 rad/sample the wide-band taps match the")
print(f"plain preset to {gap:.2e}: colored noise fading to white")
print(f"sweep tables written to {out}/")
