"""The residual factor's contracts beyond the M = 17, L = 5 presets.

V is the M x (M - L) factor of the residual form Q = W_s - W_s psi G^-1
psi' W_s, so that r = |V' x|^2 is the whitened residual e' W_s e of the fit
to window x.  Each bound is a multiple of the unit round-off u times the
condition that carries the error:

* V has M - L columns, and each is orthogonal to the basis: the cosine of
  the angle between a column v and a scaled basis column (j / K)^l is below
  ORTHO_FACTOR u M kappa_C.  V' psi = Q2' C' psi vanishes exactly; rounding
  in C' psi, the QR and C Q2 leaves an entry of about u M |C| |psi_l|, and
  |v| >= sigma_min(C), with kappa_C = sqrt(cond W_s) the condition of the
  Cholesky factor C.
* r agrees with the direct e' W_s e of the bank's fit within
  RESIDUAL_FACTOR u M (x' W_s x + |e|' |W_s| |e|) + (u kappa_N)^2 x' W_s x.
  The first term holds both roundings: V's route perturbs the whitened
  window by about u M of its size, and the direct quadratic form rounds
  its terms |e|' |W_s| |e|.  The bank's coefficients solve the normal
  equations, off by about u kappa_N (kappa_N the condition of the scaled
  normal matrix); r is least at the exact fit, so that moves it by the
  square.
* Against a 60-digit mpmath Q, r's error per window is below
  ORACLE_FACTOR u M sqrt(x' W_s x r): the whitened window's error of about
  u M sqrt(x' W_s x) reaches r = |y|^2 through 2 |y|.  A factor taken from
  Q itself would carry the rounding of Q's entries, about u x' W_s x, which
  grows with x' W_s x / r and not with its square root.

Over 10,000 random specs drawn as here (odd M 5-129, L <= 9, all six
families), with numpy 2.4 and OpenBLAS 0.3.31, the largest values were
0.82 for the cosine and 7.1 for the residual in those units: the factors
below leave margins of about 10.  The oracle cases read at most 2.4
(preset F at M = 17).
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from sgwhiten import filter_design as fd  # noqa: E402
from sgwhiten import sim_harness as sim  # noqa: E402
from sgwhiten.analysis_bank import (SampleSequence, run_bank,  # noqa: E402
                                    window_power_sums)
from sgwhiten.errors import NumericalError  # noqa: E402
from test_design_properties import (UNIT_ROUNDOFF, noise_models,  # noqa: E402
                                    normal_condition, scaled_basis)

ORTHO_FACTOR = 8
RESIDUAL_FACTOR = 64
ORACLE_FACTOR = 16


@st.composite
def residual_cases(draw):
    """A designed filter of a random spec with its residual factor built,
    and a seed for its input; specs that fail are discarded."""
    # Odd M from 5 to 65, one draw in eight from 67 to 129.
    half = draw(st.integers(2, 32)) if draw(st.integers(0, 7)) \
        else draw(st.integers(33, 64))
    m = 2 * half + 1
    l = draw(st.integers(1, min(m, 9)))
    ts = 2.0 ** draw(st.floats(-2, 2))
    try:
        noise = draw(noise_models(half, ts))
        filt = fd.design(fd.DesignSpec(m=m, l=l, d=0, ts=ts, noise=noise))
        filt.transform.residual_factor
    except (ValueError, NumericalError):
        reject()
    return filt, draw(st.integers(0, 2 ** 32 - 1))


def whitened_power(windows, weight):
    """x' W x of each row of ``windows``."""
    return np.einsum("nm,mk,nk->n", windows, weight, windows)


@settings(max_examples=200, deadline=None)
@given(residual_cases())
def test_residual_contracts(case):
    filt, seed = case
    spec = filt.spec
    tr = filt.transform
    factor = tr.residual_factor
    assert factor.shape == (spec.m, spec.m - spec.l)
    # Orthogonality in scaled shifts.
    basis = scaled_basis(filt)
    kappa_c = math.sqrt(np.linalg.cond(tr.w_scaled))
    if factor.size:
        cosine = np.abs(factor.T @ basis) / np.outer(
            np.linalg.norm(factor, axis=0), np.linalg.norm(basis, axis=0))
        assert cosine.max() <= ORTHO_FACTOR * UNIT_ROUNDOFF * spec.m * kappa_c, \
            (spec, cosine.max(), kappa_c)
    # The residual power against the direct quadratic form of the bank's fit,
    # on noise plus a polynomial of random size.
    rng = np.random.default_rng(seed)
    n = 4 * spec.m
    x = rng.normal(size=n) + 10.0 ** rng.uniform(-2, 3) * np.polyval(
        rng.normal(size=3), np.linspace(-3.0, 3.0, n))
    feats = run_bank(SampleSequence(values=x), filt.operators.h_matrix)
    windows = np.lib.stride_tricks.sliding_window_view(x, spec.m)
    e = windows - feats.coeffs @ filt.operators.psi.T
    total = whitened_power(windows, tr.w_scaled)
    bound = (RESIDUAL_FACTOR * UNIT_ROUNDOFF * spec.m
             * (total + whitened_power(np.abs(e), np.abs(tr.w_scaled)))
             + (UNIT_ROUNDOFF * normal_condition(filt)) ** 2 * total)
    power = window_power_sums(x, [tr.residual_factor])[0]
    gap = np.abs(power - whitened_power(e, tr.w_scaled))
    assert np.all(gap <= bound), (spec, (gap / bound).max())


def exact_residuals(x, m, transform):
    """x' Q x = e' W_s e of every window of x, with Q = W_s - W_s psi G^-1
    psi' W_s formed in 60-digit mpmath from the float W_s and psi.

    Q is rounded to integers at 2^-220 of its largest entry and the samples
    are exact integers over a power of two, so the quadratic forms are exact
    integer sums, rounded once to float."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        weight = mp.matrix(transform.w_scaled.tolist())
        psi = mp.matrix(transform.psi.tolist())
        wpsi = weight * psi
        q = weight - wpsi * (mp.inverse(psi.T * wpsi) * wpsi.T)
        shift = 220 - int(mp.floor(mp.log(max(abs(v) for v in q), 2)))
        q_int = np.array([[int(mp.nint(mp.ldexp(q[i, j], shift)))
                           for j in range(m)] for i in range(m)], dtype=object)
    ratios = [value.as_integer_ratio() for value in x.tolist()]
    denominator = max(den for _, den in ratios)
    x_int = np.array([num * (denominator // den) for num, den in ratios],
                     dtype=object)
    windows = np.lib.stride_tricks.sliding_window_view(x_int, m)
    sums = np.sum((windows @ q_int) * windows, axis=1)
    scale = denominator ** 2 << shift
    return np.array([total / scale for total in sums.tolist()])


@pytest.mark.parametrize("label, m, l", [("F", 17, 5), ("E", 17, 5),
                                         ("F", 65, 7), ("D", 33, 5)])
def test_residual_power_matches_exact_form(label, m, l):
    tr = fd.design_preset(label, m=m, l=l, d=0).transform
    x = np.asarray(sim.build_trace("high-white", 3).x)
    want = exact_residuals(x, m, tr)
    windows = np.lib.stride_tricks.sliding_window_view(x, m)
    bound = ORACLE_FACTOR * UNIT_ROUNDOFF * m * np.sqrt(
        whitened_power(windows, tr.w_scaled) * want)
    gap = np.abs(window_power_sums(x, [tr.residual_factor])[0] - want)
    assert np.all(gap <= bound), (gap / bound).max()
