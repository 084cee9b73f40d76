"""The dense weight route through R's even and odd blocks, beyond the
presets: random orders 1-65, odd and even, every autocorrelation family and
random valid lags; and a 30-digit oracle for the KKT taps.

Each bound is a multiple of the unit round-off u, with n the order of R,
||R|| its 2-norm and kappa its condition:

* the blocks' eigenvalues equal ``eigvalsh(R)`` within EIGEN_FACTOR n u
  ||R||: each block entry is within one rounding of Q' R Q, and a symmetric
  eigensolver is backward stable, so by Weyl's theorem either set is within
  a small multiple of n u ||R|| of the exact eigenvalues (Higham, Accuracy
  and Stability of Numerical Algorithms, 2nd ed., ch. 7; Golub & Van Loan,
  Matrix Computations, 4th ed., 8.1);
* W is symmetric exactly and within INVERSE_FACTOR n u kappa max|R^-1| of
  ``np.linalg.inv(R)``, entry by entry, as two inverses with backward
  errors of order n u ||R|| are;
* the condition W reports is within CONDITION_FACTOR n u kappa of
  ``np.linalg.cond(R)``, relative: the smallest eigenvalue carries an error
  of order n u ||R||, which is n u kappa of itself.

Over 6,000 random draws of the same orders, families and lags, with numpy 2.4 and OpenBLAS 0.3.31 on SkylakeX
kernels, the largest values in those units were 1.9, 0.87 and 1.3: the
factors below leave margins of 8 to 18.  Matrices too close to singular
for the inverse-residual check are discarded.

The KKT oracle solves the full bordered system [[R, psi], [psi', 0]] of
presets D and E at M = 65 in 30-digit mpmath, from the same float R and
psi.  The program solves the bordered system of R's even block instead.
Partial-pivoting LU is backward stable (Higham 9.3), so its taps' error,
relative to their largest, is about u times the condition of that bordered
half, taken with the basis in scaled shifts (j / K)^l, which does not
change the taps.  The oracle asserts ORACLE_FACTOR u kappa_half.  With the
same numpy and OpenBLAS, E read 0.17 u kappa_half (2.2e-10) and D 0.24
u kappa_half (3.4e-9); a float64 solve of the full bordered system read
3.4e-9 and 4.2e-9.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from sgwhiten import filter_design as fd  # noqa: E402
from sgwhiten import noise_models as nm  # noqa: E402
from sgwhiten.errors import IllConditionedError  # noqa: E402
from test_design_properties import UNIT_ROUNDOFF, noise_models  # noqa: E402

EIGEN_FACTOR = 16
INVERSE_FACTOR = 16
CONDITION_FACTOR = 16
ORACLE_FACTOR = 4


@st.composite
def correlation_matrices(draw):
    """R of a random order 1-65 and a random model of any family with an
    autocorrelation, or of random lags with |R[m]| <= R[0]; with the rho of
    a first-order model's closed-form inverse."""
    n = draw(st.integers(1, 65))
    if draw(st.booleans()):
        model = draw(noise_models(max(n // 2, 1), 1.0).filter(
            lambda model: model.kind != "gaussian-kernel"))
        kms_rho = nm._KINDS[model.kind].kms_rho
        return (nm.correlation_matrix(model, n),
                None if kms_rho is None else kms_rho(model))
    lags = draw(st.lists(st.floats(-1, 1), min_size=n - 1, max_size=n - 1))
    scale = 10.0 ** draw(st.floats(-3, 3))
    acf = nm.AutocorrSequence(values=scale * np.array([1.0] + lags))
    return nm.toeplitz_from_autocorr(acf, n), None


@settings(max_examples=300, deadline=None)
@given(correlation_matrices())
def test_blocks_give_the_inverse_and_the_condition(case):
    r, kms_rho = case
    n = len(r)
    try:
        weight = nm.invert_to_weight(r, kms_rho=kms_rho)
    except IllConditionedError:
        reject()
    eigenvalues = np.linalg.eigvalsh(r)
    norm = np.abs(eigenvalues).max()
    blocks = np.sort(np.concatenate(
        [np.linalg.eigvalsh(block) for block in nm.centrosymmetric_blocks(r)]))
    gap = np.abs(blocks - eigenvalues).max()
    assert gap <= EIGEN_FACTOR * n * UNIT_ROUNDOFF * norm, (n, gap / norm)
    w = weight.matrix
    assert np.array_equal(w, w.T)
    kappa = np.linalg.cond(r)
    inverse = np.linalg.inv(r)
    gap = np.abs(w - inverse).max()
    assert gap <= (INVERSE_FACTOR * n * UNIT_ROUNDOFF * kappa
                   * np.abs(inverse).max()), (n, kappa, gap)
    assert abs(weight.condition - kappa) <= (
        CONDITION_FACTOR * n * UNIT_ROUNDOFF * kappa * kappa), \
        (n, weight.condition, kappa)


def exact_kkt_taps(r, psi, mu):
    """Taps of the full bordered system in 30-digit mpmath, from the float
    R and psi, in shift-index order as ``solve_kkt`` returns them."""
    mp = pytest.importorskip("mpmath")
    m, l = psi.shape
    bordered = np.zeros((m + l, m + l))
    bordered[:m, :m] = r
    bordered[:m, m:] = psi
    bordered[m:, :m] = psi.T
    with mp.workdps(30):
        solution = mp.lu_solve(mp.matrix(bordered.tolist()),
                               mp.matrix([0.0] * m + mu.tolist()))
        return np.array([float(solution[i]) for i in range(m)])[::-1]


def scaled_half_condition(r, l):
    """Condition of the even block's bordered system with the symmetric
    columns of the basis in scaled shifts, (j / K)^l, l even."""
    m = len(r)
    k = (m - 1) // 2
    even, _ = nm.centrosymmetric_blocks(r)
    columns = np.vander(np.arange(-k, k + 1) / k, l, increasing=True)[:, ::2]
    halves = np.vstack([math.sqrt(2.0) * columns[:k], columns[k:k + 1]])
    width = halves.shape[1]
    return np.linalg.cond(np.block([[even, halves],
                                    [halves.T, np.zeros((width, width))]]))


@pytest.mark.parametrize("label", ["D", "E"])
def test_kkt_taps_match_the_exact_bordered_solve(label):
    filt = fd.design_preset(label, m=65)
    assert filt.condition > fd.KKT_CONDITION_LIMIT
    r = nm.correlation_matrix(filt.spec.noise, filt.spec.m)
    want = exact_kkt_taps(r, filt.operators.psi, filt.operators.mu)
    error = np.abs(filt.h - want).max() / np.abs(want).max()
    kappa_half = scaled_half_condition(r, filt.spec.l)
    assert error <= ORACLE_FACTOR * UNIT_ROUNDOFF * kappa_half, \
        (error, kappa_half)
