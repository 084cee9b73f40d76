"""Whitened Savitzky-Golay filter design.

The filter taps minimize the noise power h' R h subject to moment
constraints psi' h = c that force exact reproduction of the d-th derivative
of any polynomial up to the model degree at the window center.  Two solver
routes are provided and cross-checked:

* a bordered KKT system in R (robust when R is nearly singular), solved in
  R's even and odd blocks (``noise_models.centrosymmetric_blocks``), each
  of about half the order, and only for a parity the constraints touch; the
  design hands it the R its weights were inverted from, and
* the explicit weighted-least-squares form H = (psi' W psi)^-1 psi' W with
  W = R^-1, followed by tap extraction h' = mu' D^d H.

Diagnostics follow from the taps and weights: the white-noise gain (sum of
squared taps), the conditioning, the frequency response, and the first-null
frequency used by the preset cut-off heuristic omega_c = 0.75 * omega_delta.

Presets A-F reproduce a standard design progression at M = 17, L = 5:
A plain least squares, B Gaussian kernel taper, C low-pass Gauss-Markov,
D Nyquist notch, E narrow-band multi-notch, F wide-band high-frequency.

A design is made once and reused.  ``design`` keeps its last
DESIGN_CACHE_SIZE results by (spec, label); a repeat call returns the same
immutable ``DesignedFilter``, and the preset cut-off reads the entry of
preset A at d = 0.  A filter builds the detector's ``OrthoTransform`` of its
basis and weights on first use of ``DesignedFilter.transform`` and keeps
it, with the per-mask factors and the residual factor the transform builds
in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from . import noise_models as nm
from .analysis_bank import _freeze
from .detector import OrthoTransform, build_ortho_transform
from .errors import IllConditionedError

PRESET_LABELS = ("A", "B", "C", "D", "E", "F")

# Inverse-Toeplitz weights with a condition number above this take the
# bordered KKT route (the notch designs); cheaper models keep the W route.
KKT_CONDITION_LIMIT = 1e6

# Designs ``design`` keeps: the six presets at one (M, L, d, ts) and two more.
DESIGN_CACHE_SIZE = 8

DEFAULT_SIGMA_NB = -1e-6
PRESET_E_OMEGAS = (0.8608, 1.6022, 3.1416)


@dataclass(frozen=True)
class DesignSpec:
    """Validated design parameters: window M, monomial count L, derivative d."""

    m: int
    l: int
    d: int
    ts: float = 1.0
    noise: nm.NoiseModel = nm.NoiseModel.white()

    def __post_init__(self) -> None:
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError("filter length M must be odd and >= 3")
        if not 1 <= self.l <= self.m:
            raise ValueError("monomial count L must satisfy 1 <= L <= M")
        if not 0 <= self.d < self.l:
            raise ValueError("derivative order d must satisfy 0 <= d < L")
        if not 0 < self.ts < math.inf:
            raise ValueError("sampling period must be positive and finite")
        # Only narrow-band models carry poles; L <= M keeps the limit >= 0.
        limit = self.half_length + 1 - ((self.l - 1) // 2 + 1)
        if len(self.noise.poles) > limit:
            raise ValueError(
                f"narrow-band pole count {len(self.noise.poles)} exceeds the "
                f"{limit} spare degrees of freedom at M={self.m}, L={self.l}")

    @property
    def half_length(self) -> int:
        return (self.m - 1) // 2


@dataclass(frozen=True)
class RegressionOperators:
    """Matrices behind a design: basis psi, weights W, analysis H."""

    psi: np.ndarray       # M x L discrete monomials
    weight: nm.WeightMatrix
    h_matrix: np.ndarray  # L x M analysis (filter bank) matrix
    mu: np.ndarray        # L moment constraints [1, 0, ...]

    def __post_init__(self) -> None:
        _freeze(self, "psi", "h_matrix", "mu")


@dataclass(frozen=True)
class DesignedFilter:
    """Immutable design result: taps h[m] for m = -K..K, the operators and
    spec behind them, and diagnostics derived from them; ``omega_delta`` is
    found on first read and kept."""

    h: np.ndarray
    operators: RegressionOperators
    spec: DesignSpec
    label: str

    def __post_init__(self) -> None:
        _freeze(self, "h")

    @property
    def half_length(self) -> int:
        return (len(self.h) - 1) // 2

    @property
    def wng(self) -> float:
        return white_noise_gain(self.h)

    @property
    def condition(self) -> float:
        return self.operators.weight.condition

    @functools.cached_property
    def omega_delta(self) -> float | None:
        # The dc-relative grid fallback is meaningless when H(0) = 0.
        return first_null_frequency(self.h, "auto" if self.spec.d == 0 else "roots")

    @functools.cached_property
    def transform(self) -> OrthoTransform:
        """The detector's orthonormalized basis under this design's weights,
        built on first use and kept."""
        return build_ortho_transform(self.operators.psi, self.operators.weight.matrix)


def build_vandermonde(m: int, l: int) -> np.ndarray:
    """Discrete monomial basis psi[m, l] = m^l, rows m = -K..K, columns l = 0..L-1."""
    if m % 2 == 0 or m < 1:
        raise ValueError("window length must be odd")
    if l > m:
        raise ValueError("cannot fit more monomials than samples")
    k = (m - 1) // 2
    shifts = np.arange(-k, k + 1, dtype=float)
    return np.vander(shifts, l, increasing=True)


def moment_vector(l: int) -> np.ndarray:
    mu = np.zeros(l)
    mu[0] = 1.0
    return mu


def derivative_operator(l: int, d: int, ts: float = 1.0) -> np.ndarray:
    """Matrix mapping monomial coefficients to those of the d-th derivative.

    One differentiation step sends coefficient a_j of m^j to j * a_j at
    position j-1, scaled by 1/ts; applying it d times gives D^d.  D^0 is the
    identity.
    """
    if not 0 <= d < l:
        raise ValueError("derivative order must satisfy 0 <= d < L")
    single = np.zeros((l, l))
    for j in range(1, l):
        single[j - 1, j] = j / ts
    out = np.eye(l)
    for _ in range(d):
        out = single @ out
    return out


def solve_weighted_ls(weight: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Weighted least-squares analysis matrix H = (psi' W psi)^-1 psi' W."""
    w = np.asarray(weight, dtype=float)
    normal = psi.T @ w @ psi
    try:
        return np.linalg.solve(normal, psi.T @ w)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"normal matrix is singular: {exc}") from exc


def extract_coefficients(h_matrix: np.ndarray, deriv: np.ndarray,
                         mu: np.ndarray) -> np.ndarray:
    """FIR taps for the derivative D^d = ``deriv`` from the analysis matrix.

    The window-ordered regression row is mu' D^d H; reversing it yields the
    taps h[m] of the convolution sum(h[m] x[n-m]), so that filtering any
    polynomial of model degree returns its exact d-th derivative at the window
    center (with the correct sign for odd d).  For d = 0 the row is symmetric
    and the taps equal row 0 of H.
    """
    row = mu @ deriv @ h_matrix
    return row[::-1].copy()


def solve_kkt(r_matrix: np.ndarray, psi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Minimize h' R h subject to psi' h = mu through bordered systems.

    R must be symmetric and centrosymmetric, as an autocorrelation matrix
    is, and each column of psi symmetric or antisymmetric about the window
    centre, exactly; anything else is a ValueError.  The problem then splits
    by parity (``noise_models.centrosymmetric_blocks``): the taps' symmetric
    part solves the bordered system of R's even block with the symmetric
    columns, and their antisymmetric part that of the odd block with the
    antisymmetric ones.  A parity whose constraints are all zero has zero
    taps and is not solved, so a derivative's taps have its parity exactly.

    Returns taps in shift-index order (the raw solution is window-ordered and
    is reversed before returning; for symmetric even-derivative designs the
    reversal is the identity).  The Lagrange multipliers are discarded.
    """
    r = np.asarray(r_matrix, dtype=float)
    psi = np.asarray(psi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    symmetric = np.all(psi == psi[::-1], axis=0)
    antisymmetric = np.all(psi == -psi[::-1], axis=0) & ~symmetric
    if not np.all(symmetric | antisymmetric):
        raise ValueError("each psi column must be symmetric or antisymmetric "
                         "about the window centre")
    even_block, odd_block = nm.centrosymmetric_blocks(r)
    m, k = len(r), len(odd_block)
    # The columns in the blocks' orthonormal bases, Q' psi.
    halves = np.vstack([math.sqrt(2.0) * psi[:k], psi[k:m - k]])
    try:
        even = _bordered_half(even_block, halves[:, symmetric], mu[symmetric])
        odd = _bordered_half(odd_block, halves[:k, antisymmetric],
                             mu[antisymmetric])
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"bordered system is singular (condition number "
            f"{nm.condition_estimate(r):.3e}): {exc}") from exc
    # Back to the window, Q [even; odd].
    window = np.empty(m)
    window[:k] = math.sqrt(0.5) * (even[:k] + odd)
    window[k:m - k] = even[k:]
    window[m - k:] = (math.sqrt(0.5) * (even[:k] - odd))[::-1]
    return window[::-1].copy()


def _bordered_half(block: np.ndarray, columns: np.ndarray,
                   target: np.ndarray) -> np.ndarray:
    """The x minimizing x' block x subject to columns' x = target, from the
    bordered system; zeros when the target is."""
    size = len(block)
    if not np.any(target):
        return np.zeros(size)
    width = columns.shape[1]
    bordered = np.zeros((size + width, size + width))
    bordered[:size, :size] = block
    bordered[:size, size:] = columns
    bordered[size:, :size] = columns.T
    rhs = np.zeros(size + width)
    rhs[size:] = target
    return np.linalg.solve(bordered, rhs)[:size]


def white_noise_gain(h: np.ndarray) -> float:
    """Output variance per unit input white-noise variance: sum of squared taps."""
    taps = np.asarray(h, dtype=float)
    return float(np.dot(taps, taps))


def frequency_response(h: np.ndarray, grid_size: int = 4096):
    """Sample H(omega) = sum h[m] exp(-i omega m) on [0, pi].

    Returns (omega, response) with ``grid_size`` uniformly spaced points
    including both endpoints.
    """
    if grid_size < 2:
        raise ValueError("grid must have at least 2 points")
    omega = np.linspace(0.0, math.pi, grid_size)
    return omega, response_at(h, omega)


def response_at(h: np.ndarray, omega) -> np.ndarray:
    """H(omega) at arbitrary frequencies (radians/sample)."""
    taps = np.asarray(h, dtype=float)
    k = (len(taps) - 1) // 2
    shifts = np.arange(-k, k + 1)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return np.exp(-1j * np.outer(omega, shifts)) @ taps


def first_null_frequency(h: np.ndarray, method: str = "auto") -> float | None:
    """Frequency of the transfer-function zero nearest dc on the unit circle.

    ``roots`` finds zeros of the tap polynomial via companion-matrix
    eigenvalues, keeps those within 1e-3 of the unit circle with
    argument in (0, pi], and returns the smallest argument.  ``grid`` refines
    local minima of |H| and accepts the first that drops below 1e-6 of the dc
    gain.  ``auto`` tries roots first, then the grid.  Returns None when no
    qualifying null exists.
    """
    if method not in ("auto", "roots", "grid"):
        raise ValueError(f"unknown method {method!r}")
    taps = np.asarray(h, dtype=float)
    if not np.any(taps):
        raise ValueError("tap vector is identically zero")
    if method in ("auto", "roots"):
        zeros = np.roots(taps)
        args = np.angle(zeros)
        keep = (np.abs(1.0 - np.abs(zeros)) <= 1e-3) & (args > 1e-12) \
            & (args <= math.pi + 1e-12)
        if np.any(keep):
            candidates = np.sort(args[keep])
            return float(min(candidates[0], math.pi))
        if method == "roots":
            return None
    return _first_null_grid(taps)


def _first_null_grid(taps: np.ndarray) -> float | None:
    omega, resp = frequency_response(taps, 8192)
    mag = np.abs(resp)
    dc = mag[0]
    if dc == 0.0:
        return None
    interior = np.nonzero((mag[1:-1] < mag[:-2]) & (mag[1:-1] <= mag[2:]))[0] + 1
    for i in interior:
        w_min, m_min = _refine_minimum(taps, omega[i - 1], omega[i + 1])
        if m_min < 1e-6 * dc:
            return w_min
    return None


def _refine_minimum(taps, lo, hi):
    # Golden-section search on |H(omega)|.
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = abs(response_at(taps, c)[0])
    fd = abs(response_at(taps, d)[0])
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = abs(response_at(taps, c)[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = abs(response_at(taps, d)[0])
    w = 0.5 * (a + b)
    return w, abs(response_at(taps, w)[0])


def cutoff_heuristic(omega_delta: float) -> float:
    """Noise cut-off from the first null: omega_c = 0.75 * omega_delta."""
    if omega_delta <= 0:
        raise ValueError("first-null frequency must be positive")
    return 0.75 * omega_delta


def sidelobe_peak(h: np.ndarray) -> float:
    """Largest |H(omega)| beyond the first null (the worst side-lobe)."""
    omega_delta = first_null_frequency(h)
    if omega_delta is None:
        raise ValueError("design has no null; side-lobe level undefined")
    omega, resp = frequency_response(h, 8192)
    beyond = omega > omega_delta
    if not np.any(beyond):
        return 0.0
    return float(np.abs(resp[beyond]).max())


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def design(spec: DesignSpec, label: str = "custom") -> DesignedFilter:
    """Solve a design spec into taps and operators.

    The last DESIGN_CACHE_SIZE results are kept by their arguments, so a
    repeat call returns the same filter; errors are raised afresh.

    The explicit weighted-LS route is used for diagonal or well-conditioned
    weights; the bordered KKT route takes over when the condition number of
    the autocorrelation matrix exceeds ``KKT_CONDITION_LIMIT`` (1e6).
    The KKT route solves the R that the weights invert, and its taps have
    the derivative's parity exactly (``solve_kkt``).  The LS route's
    even-derivative taps are symmetrized (odd-derivative taps
    antisymmetrized), which the exact solution satisfies for any symmetric
    Toeplitz weight.
    """
    psi = build_vandermonde(spec.m, spec.l)
    mu = moment_vector(spec.l)
    deriv = derivative_operator(spec.l, spec.d, spec.ts)
    weight, r_matrix = nm._weight_and_correlation(spec.noise, spec.m)

    h_matrix = solve_weighted_ls(weight.matrix, psi)
    if weight.provenance != "inverse-toeplitz" or weight.condition <= KKT_CONDITION_LIMIT:
        taps = extract_coefficients(h_matrix, deriv, mu)
        # Exact solutions have definite parity; project out solver round-off.
        sign = 1.0 if spec.d % 2 == 0 else -1.0
        taps = 0.5 * (taps + sign * taps[::-1])
    else:
        taps = solve_kkt(r_matrix, psi, deriv.T @ mu)

    operators = RegressionOperators(psi=psi, weight=weight, h_matrix=h_matrix,
                                    mu=mu)
    return DesignedFilter(h=taps, operators=operators, spec=spec, label=label)


def design_preset(label: str, m: int = 17, l: int = 5, d: int = 0,
                  ts: float = 1.0, sigma_nb: float | None = None,
                  omega_list=None, omega_c: float | None = None) -> DesignedFilter:
    """Build one of the preset filters A-F.

    B, C, E and F derive their cut-off from the first null of the plain
    preset A at the same (M, L) via omega_c = 0.75 * omega_delta unless
    ``omega_c`` overrides it; an ``omega_c`` that is not positive and finite
    is a ValueError.  ``sigma_nb`` overrides the pole damping of D
    and E, ``omega_list`` the pole frequencies of E.
    """
    label = label.upper()
    if label not in PRESET_LABELS:
        raise ValueError(f"preset label must be one of {PRESET_LABELS}")
    if label == "A":
        return design(DesignSpec(m=m, l=l, d=d, ts=ts, noise=nm.NoiseModel.white(ts)),
                      label="A")

    sigma = DEFAULT_SIGMA_NB if sigma_nb is None else sigma_nb
    if omega_c is None and label in ("B", "C", "F"):
        omega_c = preset_cutoff(m, l, ts)
    elif omega_c is not None and not 0 < omega_c < math.inf:
        raise ValueError(f"cut-off omega_c must be positive and finite, got {omega_c!r}")

    if label == "B":
        noise = nm.NoiseModel.gaussian_kernel(lam=3.0 / omega_c, ts=ts)
    elif label == "C":
        noise = nm.NoiseModel.gauss_markov(lam=3.0 / omega_c, ts=ts)
    elif label == "D":
        noise = nm.NoiseModel.nyquist(sigma=sigma, ts=ts)
    elif label == "E":
        omegas = PRESET_E_OMEGAS if omega_list is None else tuple(omega_list)
        noise = nm.NoiseModel.narrow_band([(sigma, w / ts) for w in omegas], ts=ts)
    else:
        noise = nm.NoiseModel.wide_band(omega_c=omega_c, omega_d=math.pi, ts=ts)
    return design(DesignSpec(m=m, l=l, d=d, ts=ts, noise=noise), label=label)


def preset_cutoff(m: int, l: int, ts: float = 1.0) -> float:
    """Cut-off omega_c = 0.75 * omega_delta of the plain design at (M, L).

    Presets B, C and F all derive their cut-off from the same plain design,
    which is the ``design`` call of preset A at d = 0 and so is solved once.
    """
    base = design(DesignSpec(m=m, l=l, d=0, ts=ts, noise=nm.NoiseModel.white(ts)),
                  label="A")
    if base.omega_delta is None:
        raise IllConditionedError("plain design has no first null; cannot derive omega_c")
    return cutoff_heuristic(base.omega_delta)
