"""Property tests of the design contracts beyond the M = 17, L = 5 presets:
random odd M 5-65, L <= min(M, 7), d < L, ts and all six noise families.

Each bound is a multiple of the unit round-off u times the condition that
carries the error, so it holds across the draws' wide range of conditioning:

* polynomial reproduction in scaled shifts j / K, residual per unit of
  |h|_1, below REPRODUCTION_FACTOR u (M + kappa_N), with kappa_N the
  condition of the scaled normal matrix psi_s' W psi_s;
* parity: taps exactly even for even d and exactly odd for odd d;
* weight conditions up to KKT_CONDITION_LIMIT: the LS taps agree with the
  bordered KKT solve, relative to max |h|, below AGREEMENT_FACTOR
  u (M + kappa_N kappa_R), with kappa_R the condition the weight reports.

Over 26,000 random designs (this file's draws, and draws pinned to the
ends of every range), with numpy 2.4 and OpenBLAS 0.3.31, the largest
residuals were 2.4 u (M + kappa_N) for reproduction (4.6e-10 at most) and
72 u (M + kappa_N kappa_R) for route agreement (4.7e-7 at most, at M = 65,
L = 7): the factors below leave margins of 13 and 14.  Specs that
raise ValueError or NumericalError are discarded.

H psi = I is not checked here: its scaled residual reaches 5e-3 for
wide-band weights and 3e-5 for Nyquist weights at M = 7, L = 7, where the
normal equations psi' W psi lose it.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from sgwhiten import filter_design as fd  # noqa: E402
from sgwhiten import noise_models as nm  # noqa: E402
from sgwhiten.errors import NumericalError  # noqa: E402

UNIT_ROUNDOFF = 2.0 ** -53
REPRODUCTION_FACTOR = 32
AGREEMENT_FACTOR = 1024


@st.composite
def noise_models(draw, k, ts):
    """A noise model of any family, with parameters across their ranges."""
    kind = draw(st.sampled_from(["white", "gaussian-kernel", "gauss-markov",
                                 "nyquist", "narrow-band", "wide-band"]))
    if kind == "white":
        return nm.NoiseModel.white(ts)
    if kind == "gaussian-kernel":
        return nm.NoiseModel.gaussian_kernel(k * 2.0 ** draw(st.floats(-2, 3)), ts)
    if kind == "gauss-markov":
        return nm.NoiseModel.gauss_markov(2.0 ** draw(st.floats(-3, 6)), ts)
    if kind == "nyquist":
        return nm.NoiseModel.nyquist(-10.0 ** draw(st.floats(-7, 0)), ts)
    if kind == "narrow-band":
        poles = draw(st.lists(st.tuples(st.floats(-7, -1),
                                        st.floats(0.05, math.pi)),
                              min_size=1, max_size=3))
        return nm.NoiseModel.narrow_band(
            [(-10.0 ** damping / ts, omega / ts) for damping, omega in poles], ts)
    omega_c = draw(st.floats(0.05, 3.0))
    return nm.NoiseModel.wide_band(omega_c, draw(st.floats(omega_c + 0.05,
                                                           math.pi)), ts)


@st.composite
def designs(draw):
    """A designed filter of a random spec; specs that fail are discarded."""
    m = 2 * draw(st.integers(2, 32)) + 1
    l = draw(st.integers(1, min(m, 7)))
    d = draw(st.integers(0, l - 1))
    ts = 2.0 ** draw(st.floats(-2, 2))
    try:
        noise = draw(noise_models((m - 1) // 2, ts))
        return fd.design(fd.DesignSpec(m=m, l=l, d=d, ts=ts, noise=noise))
    except (ValueError, NumericalError):
        reject()


def scaled_basis(filt) -> np.ndarray:
    """psi_s[j, l] = (j / K)^l, rows j = -K..K."""
    k = filt.spec.half_length
    return np.vander(np.arange(-k, k + 1) / k, filt.spec.l, increasing=True)


def normal_condition(filt) -> float:
    """Condition of the scaled normal matrix psi_s' W psi_s."""
    basis = scaled_basis(filt)
    return float(np.linalg.cond(basis.T @ filt.operators.weight.matrix @ basis))


@settings(max_examples=300, deadline=None)
@given(designs())
def test_design_contracts(filt):
    spec = filt.spec
    k = spec.half_length
    # Reproduction: the window-ordered taps w = h reversed meet the moment
    # constraints, sum_j w_j (j/K)^l = d! / (ts K)^d at l = d, else 0.
    window = filt.h[::-1]
    target = np.zeros(spec.l)
    target[spec.d] = math.factorial(spec.d) / (spec.ts * k) ** spec.d
    residual = np.abs(scaled_basis(filt).T @ window - target).max()
    kappa_n = normal_condition(filt)
    assert residual <= (REPRODUCTION_FACTOR * UNIT_ROUNDOFF * (spec.m + kappa_n)
                        * np.abs(window).sum()), (spec, residual, kappa_n)
    # Parity, exactly.
    sign = 1.0 if spec.d % 2 == 0 else -1.0
    assert np.array_equal(filt.h, sign * filt.h[::-1]), spec
    # Route agreement wherever the LS route is trusted.
    if filt.condition <= fd.KKT_CONDITION_LIMIT:
        deriv = fd.derivative_operator(spec.l, spec.d, spec.ts)
        via_kkt = fd.solve_kkt(nm.correlation_matrix(spec.noise, spec.m),
                               filt.operators.psi, deriv.T @ filt.operators.mu)
        gap = np.abs(via_kkt - filt.h).max() / np.abs(filt.h).max()
        bound = AGREEMENT_FACTOR * UNIT_ROUNDOFF * (spec.m
                                                    + kappa_n * filt.condition)
        assert gap <= bound, (spec, gap, kappa_n, filt.condition)
