"""Independent references for the benchmark's output checks.

The detection reference computes the bank as L ``np.convolve`` calls with the
reversed rows of H, and writes the Z statistic out from its definition,

    Z[n] = |U a1[n]|^2 / (|U a0[n]|^2 + eps),   U'U = psi' (W / max W) psi,

with a1 keeping only the quadratic coefficient and a0 dropping the constant
and quadratic ones.  It shares no code with the program's bank or detector.

Z is compared with a relative tolerance plus the round-off that the bank's
coefficients carry in floating point.  Where a coefficient nearly cancels
(Z of 1e-18 beside a typical Z of order one), any two correct summation
orders differ by that round-off, which is many times Z itself.

Run as a script, it regenerates ``reference/paper_table.json``: the pool of
seed blocks for the paper-table workload and, for each, the calibrated
amplitude and table the program gave at the commit that defined the benchmark.
Regenerate only when a change to the program is meant to change those values.

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

PAPER_TABLE = Path(__file__).resolve().parent / "reference" / "paper_table.json"
Z_REL_TOL = 1e-6
GAMMA_SLACK_DB = 1e-6
TAP_MOMENT_TOL = 1e-9
FOREGROUND = (2,)
BACKGROUND_ZERO = (0, 2)


def reference_z(x: np.ndarray, h_matrix: np.ndarray, weight: np.ndarray,
                epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Z over the valid region of x, from its definition, and its round-off.

    The round-off bound covers two computations of Z that differ only in how
    each coefficient's M-term dot product is summed: each coefficient may be
    off by gamma_M sum|h||x| (gamma_M = M u / (1 - M u)), on either side.
    """
    n_rows, m = h_matrix.shape
    k = (m - 1) // 2

    def bank(signal, rows):
        return np.stack([np.convolve(signal, row[::-1], mode="valid") for row in rows],
                        axis=1)

    coeffs = bank(x, h_matrix)
    unit = np.finfo(float).eps / 2
    coeff_err = 2 * (m * unit / (1 - m * unit)) * bank(np.abs(x), np.abs(h_matrix))
    psi = np.vander(np.arange(-k, k + 1, dtype=float), n_rows, increasing=True)
    gram = psi.T @ (weight / weight.max()) @ psi
    u = np.linalg.cholesky(0.5 * (gram + gram.T)).T
    fg = list(FOREGROUND)
    bg = [j for j in range(n_rows) if j not in BACKGROUND_ZERO]
    beta1 = coeffs[:, fg] @ u[:, fg].T
    beta0 = coeffs[:, bg] @ u[:, bg].T
    p1 = np.sum(beta1 * beta1, axis=1)
    p0 = np.sum(beta0 * beta0, axis=1)
    z = p1 / (p0 + epsilon)
    # First order in the coefficient errors, plus the square for p1's own.
    beta1_err = coeff_err[:, fg] @ np.abs(u[:, fg]).T
    beta0_err = coeff_err[:, bg] @ np.abs(u[:, bg]).T
    p1_err = np.sum(2 * np.abs(beta1) * beta1_err + beta1_err ** 2, axis=1)
    p0_err = np.sum(2 * np.abs(beta0) * beta0_err + beta0_err ** 2, axis=1)
    return z, (p1_err + z * p0_err) / (p0 + epsilon)


def check_detection(seq, filt, z, events, epsilon: float, gamma_db: float) -> list[str]:
    """Compare one block's Z series and events with the reference."""
    ops = filt.operators
    want, roundoff = reference_z(np.asarray(seq.values), ops.h_matrix,
                                 ops.weight.matrix, epsilon)
    if z.shape != want.shape:
        return [f"Z has {z.shape} samples, reference {want.shape}"]
    problems = []
    # Error over what is allowed; above 1 fails.
    excess = np.abs(z - want) / (Z_REL_TOL * np.abs(want) + roundoff + np.finfo(float).tiny)
    worst = float(np.max(excess)) if len(excess) else 0.0
    if not worst <= 1.0:
        problems.append(f"Z error {worst:.3g} x (relative {Z_REL_TOL:g} + round-off)")
    offset = seq.start + (len(filt.h) - 1) // 2
    with np.errstate(divide="ignore"):
        want_db = 10.0 * np.log10(want)
    differ = set(events.tolist()) ^ set((np.nonzero(want_db > gamma_db)[0] + offset).tolist())
    unexplained = [n for n in differ if abs(want_db[n - offset] - gamma_db) > GAMMA_SLACK_DB]
    if unexplained:
        problems.append(f"{len(unexplained)} events differ from the reference")
    return problems


def check_taps(filt) -> list[str]:
    """psi'h = mu in scaled shifts, even parity, finite white-noise gain."""
    h = np.asarray(filt.h)
    m = len(h)
    k = (m - 1) // 2
    n_rows = filt.operators.h_matrix.shape[0]
    psi = np.vander(np.arange(-k, k + 1) / k, n_rows, increasing=True)
    mu = np.zeros(n_rows)
    mu[0] = 1.0
    problems = []
    moment = float(np.max(np.abs(psi.T @ h - mu)))
    if not moment <= TAP_MOMENT_TOL:
        problems.append(f"moment residual {moment:.3e} > {TAP_MOMENT_TOL:g}")
    if not np.max(np.abs(h - h[::-1])) <= 1e-12 * np.max(np.abs(h)):
        problems.append("taps are not even")
    if not (np.isfinite(filt.wng) and np.isclose(filt.wng, np.dot(h, h), rtol=1e-12)):
        problems.append(f"white-noise gain {filt.wng!r} is not the finite sum of squared taps")
    return problems


def read_filtered_csv(path: Path):
    """The n, x and y columns of a ``sgwhiten filter`` output file."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    if rows[0] != ["n", "x", "y"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    n = np.array([int(r[0]) for r in rows[1:]])
    x = np.array([float(r[1]) for r in rows[1:]])
    y = np.array([float(r[2]) for r in rows[1:]])
    return n, x, y


def make_paper_table_reference(blocks: int = 48, seeds_per_block: int = 4,
                               pool_seed: int = 20191217) -> dict:
    from sgwhiten import sim_harness as sim

    target_db, tol_db, m, l = 28.5, 1.0, 17, 5
    rng = np.random.default_rng(pool_seed)
    seeds = rng.choice(100_000, size=blocks * seeds_per_block, replace=False)
    out = []
    for b in range(blocks):
        block = sorted(int(s) for s in seeds[b * seeds_per_block:(b + 1) * seeds_per_block])
        amplitude = sim.calibrate_amplitude(target_db=target_db, tol_db=tol_db,
                                            seeds=block, m=m, l=l)
        table = sim.run_experiment(seeds=block, amplitude=amplitude, m=m, l=l).table()
        out.append({"seeds": block, "amplitude": amplitude, "table": table})
    return {"target_db": target_db, "tol_db": tol_db, "M": m, "L": l,
            "pool_seed": pool_seed, "blocks": out}


if __name__ == "__main__":
    sys.path.insert(0, str(PAPER_TABLE.parent.parent.parent / "src"))
    PAPER_TABLE.parent.mkdir(exist_ok=True)
    PAPER_TABLE.write_text(json.dumps(make_paper_table_reference(), indent=1) + "\n")
    print(f"wrote {PAPER_TABLE}")
