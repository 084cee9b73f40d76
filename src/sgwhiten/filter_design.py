"""Whitened Savitzky-Golay filter design.

The filter taps minimize the noise power h' R h subject to moment
constraints psi' h = c that force exact reproduction of the d-th derivative
of any polynomial up to the model degree at the window center.  Two solver
routes are provided and cross-checked:

* a bordered KKT system in R (robust when R is nearly singular), and
* the explicit weighted-least-squares form H = (psi' W psi)^-1 psi' W with
  W = R^-1, followed by tap extraction h' = mu' D^d H.

Diagnostics include the white-noise gain (sum of squared taps), the
frequency response, and the first-null frequency used by the preset
cut-off heuristic omega_c = 0.75 * omega_delta.

Presets A-F reproduce a standard design progression at M = 17, L = 5:
A plain least squares, B Gaussian kernel taper, C low-pass Gauss-Markov,
D Nyquist notch, E narrow-band multi-notch, F wide-band high-frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from . import noise_models as nm
from .errors import IllConditionedError

PRESET_LABELS = ("A", "B", "C", "D", "E", "F")

# Inverse-Toeplitz weights with a condition number above this take the
# bordered KKT route (the notch designs); cheaper models keep the W route.
KKT_CONDITION_LIMIT = 1e6

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
        if self.ts <= 0:
            raise ValueError("sampling period must be positive")
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
    """Matrices behind a design: basis psi, weights W, analysis H, derivative D."""

    psi: np.ndarray       # M x L discrete monomials
    weight: nm.WeightMatrix
    h_matrix: np.ndarray  # L x M analysis (filter bank) matrix
    deriv: np.ndarray     # L x L derivative operator
    mu: np.ndarray        # L moment constraints [1, 0, ...]

    def __post_init__(self) -> None:
        for name in ("psi", "h_matrix", "deriv", "mu"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DesignedFilter:
    """Immutable design result: taps h[m] for m = -K..K plus diagnostics."""

    h: np.ndarray
    operators: RegressionOperators
    wng: float
    omega_delta: float | None
    condition: float
    label: str = "custom"
    spec: DesignSpec | None = None

    def __post_init__(self) -> None:
        taps = np.asarray(self.h, dtype=float)
        taps.setflags(write=False)
        object.__setattr__(self, "h", taps)

    @property
    def half_length(self) -> int:
        return (len(self.h) - 1) // 2


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


def extract_coefficients(h_matrix: np.ndarray, deriv: np.ndarray, d: int,
                         mu: np.ndarray) -> np.ndarray:
    """FIR taps for derivative order d from the analysis matrix.

    The window-ordered regression row is mu' D^d H; reversing it yields the
    taps h[m] of the convolution sum(h[m] x[n-m]), so that filtering any
    polynomial of model degree returns its exact d-th derivative at the window
    center (with the correct sign for odd d).  For d = 0 the row is symmetric
    and the taps equal row 0 of H.
    """
    row = mu @ deriv @ h_matrix
    return row[::-1].copy()


def solve_kkt(r_matrix: np.ndarray, psi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Minimize h' R h subject to psi' h = mu via the bordered system.

    Returns taps in shift-index order (the raw solution is window-ordered and
    is reversed before returning; for symmetric even-derivative designs the
    reversal is the identity).  The Lagrange multiplier block is discarded.
    """
    r = np.asarray(r_matrix, dtype=float)
    m, l = psi.shape
    bordered = np.zeros((m + l, m + l))
    bordered[:m, :m] = r
    bordered[:m, m:] = psi
    bordered[m:, :m] = psi.T
    rhs = np.zeros(m + l)
    rhs[m:] = mu
    try:
        solution = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"bordered system is singular (condition number "
            f"{nm.condition_estimate(r):.3e}): {exc}") from exc
    return solution[:m][::-1].copy()


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


def first_null_frequency(h: np.ndarray, method: str = "auto",
                         circle_tol: float = 1e-3) -> float | None:
    """Frequency of the transfer-function zero nearest dc on the unit circle.

    ``roots`` finds zeros of the tap polynomial via companion-matrix
    eigenvalues, keeps those within ``circle_tol`` of the unit circle with
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
        keep = (np.abs(1.0 - np.abs(zeros)) <= circle_tol) & (args > 1e-12) \
            & (args <= math.pi + 1e-12)
        if np.any(keep):
            candidates = np.sort(args[keep])
            return float(min(candidates[0], math.pi))
        if method == "roots":
            return None
    return _first_null_grid(taps)


def _first_null_grid(taps: np.ndarray, grid_size: int = 8192) -> float | None:
    omega, resp = frequency_response(taps, grid_size)
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


def _refine_minimum(taps, lo, hi, iterations=80):
    # Golden-section search on |H(omega)|.
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = abs(response_at(taps, c)[0])
    fd = abs(response_at(taps, d)[0])
    for _ in range(iterations):
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


def sidelobe_peak(h: np.ndarray, grid_size: int = 8192) -> float:
    """Largest |H(omega)| beyond the first null (the worst side-lobe)."""
    omega_delta = first_null_frequency(h)
    if omega_delta is None:
        raise ValueError("design has no null; side-lobe level undefined")
    omega, resp = frequency_response(h, grid_size)
    beyond = omega > omega_delta
    if not np.any(beyond):
        return 0.0
    return float(np.abs(resp[beyond]).max())


def design(spec: DesignSpec, label: str = "custom") -> DesignedFilter:
    """Solve a design spec into taps, operators, and diagnostics.

    The explicit weighted-LS route is used for diagonal or well-conditioned
    weights; the bordered KKT route takes over when the condition number of
    the autocorrelation matrix exceeds ``KKT_CONDITION_LIMIT`` (1e6).
    Even-derivative taps are symmetrized (odd-derivative taps
    antisymmetrized), which the exact solution satisfies for any symmetric
    Toeplitz weight.
    """
    psi = build_vandermonde(spec.m, spec.l)
    mu = moment_vector(spec.l)
    deriv = derivative_operator(spec.l, spec.d, spec.ts)
    weight = nm.weight_matrix(spec.noise, spec.m)

    h_matrix = solve_weighted_ls(weight.matrix, psi)
    if weight.provenance != "inverse-toeplitz" or weight.condition <= KKT_CONDITION_LIMIT:
        taps = extract_coefficients(h_matrix, deriv, spec.d, mu)
    else:
        r_matrix = nm.correlation_matrix(spec.noise, spec.m)
        constraint = deriv.T @ mu
        taps = solve_kkt(r_matrix, psi, constraint)

    # Exact solutions have definite parity; project out solver round-off.
    if spec.d % 2 == 0:
        taps = 0.5 * (taps + taps[::-1])
    else:
        taps = 0.5 * (taps - taps[::-1])

    operators = RegressionOperators(psi=psi, weight=weight, h_matrix=h_matrix,
                                    deriv=deriv, mu=mu)
    if spec.d == 0:
        omega_delta = first_null_frequency(taps, method="auto")
    else:
        # The dc-relative grid fallback is meaningless when H(0) = 0.
        omega_delta = first_null_frequency(taps, method="roots")
    return DesignedFilter(h=taps, operators=operators, wng=white_noise_gain(taps),
                          omega_delta=omega_delta, condition=weight.condition,
                          label=label, spec=spec)


def design_preset(label: str, m: int = 17, l: int = 5, d: int = 0,
                  ts: float = 1.0, sigma_nb: float | None = None,
                  omega_list=None, omega_c: float | None = None) -> DesignedFilter:
    """Build one of the preset filters A-F.

    B, C, E and F derive their cut-off from the first null of the plain
    preset A at the same (M, L) via omega_c = 0.75 * omega_delta unless
    ``omega_c`` overrides it.  ``sigma_nb`` overrides the pole damping of D
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


@functools.lru_cache(maxsize=None)
def preset_cutoff(m: int, l: int, ts: float = 1.0) -> float:
    """Cut-off omega_c = 0.75 * omega_delta of the plain design at (M, L).

    Kept per (M, L, ts): presets B, C and F all derive their cut-off from
    the same plain design.
    """
    base = design(DesignSpec(m=m, l=l, d=0, ts=ts, noise=nm.NoiseModel.white(ts)),
                  label="A")
    if base.omega_delta is None:
        raise IllConditionedError("plain design has no first null; cannot derive omega_c")
    return cutoff_heuristic(base.omega_delta)
