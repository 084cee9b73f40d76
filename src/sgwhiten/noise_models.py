"""Discrete autocorrelation sequences and weight matrices for colored-noise models.

A noise model describes the shape of a wide-sense-stationary noise spectrum.
Each model yields an autocorrelation sequence R[m], the symmetric Toeplitz
matrix built from it, and the inverse (whitening) weight matrix W used by the
filter solvers.  Supported families:

* white            -- flat spectrum, identity weights
* gaussian-kernel  -- diagonal Gaussian taper (a weighting kernel, not a
                      stationary process)
* gauss-markov     -- first-order low-pass, R[m] = rho^|m| with rho in (0, 1)
* nyquist          -- first-order pole near z = -1, R[m] = (-exp(sigma*Ts))^|m|
* narrow-band      -- sum of lightly damped cosines, one per pole pair
* wide-band        -- unit spectral density on [omega_c, omega_d], zero outside

Each family is one entry of the ``_KINDS`` table: its fields in serialized
order, its autocorrelation builder and its weight route.  The value checks
live in the public builders alone, so a new family is one table entry plus
its builder.

Overall scale of R is irrelevant: inversion removes it, only the spectral
shape matters.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np

from .analysis_bank import _freeze
from .errors import IllConditionedError

# Residual bound for invert_to_weight: ||R W - I||_inf <= RESIDUAL_TOL * M.
RESIDUAL_TOL = 1e-6

# Pole frequencies this close above pi are treated as Nyquist, not aliased;
# covers inputs quoted to a few decimals (e.g. 3.1416).
ALIAS_TOL = 1e-4


@dataclass(frozen=True)
class NoiseModel:
    """Declarative description of a noise process.

    Use the classmethod constructors rather than filling fields by hand.
    Construction checks the kind, ts and that the family's fields are
    present, then builds lag 0 so that the family's builder checks the values.
    """

    kind: str
    ts: float = 1.0
    lam: float | None = None                # samples (kernel / Gauss-Markov scale)
    sigma: float | None = None              # 1/seconds, pole real part (< 0)
    poles: tuple[tuple[float, float], ...] = ()   # (sigma, Omega) pairs
    omega_c: float | None = None            # radians/sample
    omega_d: float | None = None            # radians/sample

    def __post_init__(self) -> None:
        family = _KINDS.get(self.kind)
        if family is None:
            raise ValueError(f"unknown noise model kind {self.kind!r}")
        if not 0 < self.ts < math.inf:
            raise ValueError("sampling period must be positive and finite")
        # Not "in (None, ())": a numpy scalar == () is an empty array.
        missing = [name for name in family.fields
                   if (value := getattr(self, name)) is None
                   or (isinstance(value, tuple) and not value)]
        if missing:
            raise ValueError(f"{self.kind} model needs {' and '.join(missing)}")
        # The builders hold the value checks: building lag 0 runs them.
        if family.autocorr is None:
            gaussian_kernel_weights(self.lam, 0)
        else:
            family.autocorr(self, 0)

    @classmethod
    def white(cls, ts: float = 1.0) -> "NoiseModel":
        return cls(kind="white", ts=ts)

    @classmethod
    def gaussian_kernel(cls, lam: float, ts: float = 1.0) -> "NoiseModel":
        return cls(kind="gaussian-kernel", lam=lam, ts=ts)

    @classmethod
    def gauss_markov(cls, lam: float, ts: float = 1.0) -> "NoiseModel":
        return cls(kind="gauss-markov", lam=lam, ts=ts)

    @classmethod
    def nyquist(cls, sigma: float = -1e-6, ts: float = 1.0) -> "NoiseModel":
        return cls(kind="nyquist", sigma=sigma, ts=ts)

    @classmethod
    def narrow_band(cls, poles, ts: float = 1.0) -> "NoiseModel":
        return cls(kind="narrow-band",
                   poles=tuple((float(s), float(w)) for s, w in poles), ts=ts)

    @classmethod
    def wide_band(cls, omega_c: float, omega_d: float = math.pi,
                  ts: float = 1.0) -> "NoiseModel":
        return cls(kind="wide-band", omega_c=omega_c, omega_d=omega_d, ts=ts)

    def to_dict(self) -> dict:
        """JSON-ready representation; inverse of from_dict."""
        out: dict = {"kind": self.kind, "ts": self.ts}
        for name in _KINDS[self.kind].fields:
            value = getattr(self, name)
            out[name] = ([{"sigma": s, "omega": w} for s, w in value]
                         if name == "poles" else value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        """Model from its to_dict form; any malformed document is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"noise model must be an object, got {data!r}")
        data = dict(data)
        kind = data.pop("kind", None)
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown noise model kind {kind!r}")
        values = {name: _field(name, data.pop(name))
                  for name in ("ts",) + _KINDS[kind].fields if name in data}
        if data:
            raise ValueError(f"unknown noise model keys: {sorted(data)}")
        return cls(kind=kind, **values)


def _field(name: str, value):
    """A serialized field, type-checked: a real number, or poles as objects."""
    if name == "poles":
        if not isinstance(value, list) or not all(
                isinstance(p, dict) and set(p) == {"sigma", "omega"} for p in value):
            raise ValueError("poles must be a list of {sigma, omega} objects")
        return tuple((_field("sigma", p["sigma"]), _field("omega", p["omega"]))
                     for p in value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"noise model field {name!r} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class AutocorrSequence:
    """One-sided autocorrelation R[m] at lags m = 0..kmax (symmetric in m)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "values")
        vals = self.values
        if vals.ndim != 1 or not len(vals):
            raise ValueError("values must be a 1-d sequence of lags 0..kmax")
        if vals[0] <= 0:
            raise ValueError("R[0] must be positive")
        if np.any(np.abs(vals) > vals[0] * (1 + 1e-12)):
            raise ValueError("|R[m]| may not exceed R[0] for a WSS process")

    @property
    def kmax(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, m: int) -> float:
        return float(self.values[abs(m)])


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric weight matrix with provenance and conditioning metadata.

    ``condition`` is always set.  ``inverse-toeplitz`` weights are given the
    condition number of their source autocorrelation matrix; diagonal ones
    take the ratio of their largest to smallest diagonal entry (1.0 for the
    identity, inf when an entry is zero).
    """

    matrix: np.ndarray
    provenance: str     # "identity" | "diagonal-kernel" | "inverse-toeplitz"
    condition: float | None = None

    def __post_init__(self) -> None:
        _freeze(self, "matrix")
        w = self.matrix
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        scale = np.abs(w).max()
        if np.abs(w - w.T).max() > 1e-12 * max(scale, 1.0):
            raise ValueError("weight matrix must be symmetric")
        if self.provenance not in ("identity", "diagonal-kernel", "inverse-toeplitz"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance in ("identity", "diagonal-kernel"):
            diag = np.diag(w)
            if np.abs(w - np.diag(diag)).max() != 0.0:
                raise ValueError("diagonal provenance requires exact zeros off-diagonal")
            if self.condition is None:
                low = diag.min()
                object.__setattr__(self, "condition",
                                   math.inf if low == 0.0 else float(diag.max() / low))
        elif self.condition is None:
            raise ValueError("inverse-toeplitz weights need their source's condition number")


def wideband_autocorr(omega_c: float, omega_d: float, kmax: int) -> AutocorrSequence:
    """Autocorrelation of band-limited noise with unit density on [omega_c, omega_d].

    R[m] = 2 sin(omega_d m)/m - 2 sin(omega_c m)/m for m != 0, and the lag-0
    value is the continuity limit 2 (omega_d - omega_c).

    Parameters
    ----------
    omega_c, omega_d : float
        Band edges in radians/sample, 0 < omega_c < omega_d <= pi.
    kmax : int
        Largest lag to evaluate.
    """
    if not 0 < omega_c < omega_d:
        raise ValueError("need 0 < omega_c < omega_d (non-empty band)")
    if omega_d > math.pi:
        raise ValueError("omega_d may not exceed pi")
    m = np.arange(kmax + 1, dtype=float)
    vals = np.empty(kmax + 1)
    vals[0] = 2.0 * (omega_d - omega_c)
    if kmax >= 1:
        mm = m[1:]
        vals[1:] = 2.0 * np.sin(omega_d * mm) / mm - 2.0 * np.sin(omega_c * mm) / mm
    return AutocorrSequence(values=vals)


def narrowband_autocorr(poles, ts: float, kmax: int) -> AutocorrSequence:
    """Autocorrelation of a sum of lightly damped oscillators.

    Each pole pair (sigma, Omega) contributes exp(sigma*Ts*|m|) cos(Omega*Ts*m);
    sigma < 0 gives the decaying envelope of a causal process.  The sequence is
    truncated at +-kmax.
    """
    m = np.arange(kmax + 1, dtype=float)
    vals = np.zeros(kmax + 1)
    for sig, omega in ((float(s), float(w)) for s, w in poles):
        if not sig < 0:
            raise ValueError("pole damping sigma must be < 0")
        if not 0 < omega * ts <= math.pi + ALIAS_TOL:
            raise ValueError(f"pole frequency Omega*Ts = {omega * ts:.4g} outside (0, pi]")
        vals += np.exp(sig * ts * m) * np.cos(omega * ts * m)
    return AutocorrSequence(values=vals)


def gauss_markov_lowpass_autocorr(lam: float, kmax: int) -> AutocorrSequence:
    """First-order low-pass Gauss-Markov autocorrelation rho^|m|, rho = exp(-1/lam)."""
    if not lam > 0:
        raise ValueError("correlation scale lam must be positive")
    rho = math.exp(-1.0 / lam)
    vals = rho ** np.arange(kmax + 1, dtype=float)
    return AutocorrSequence(values=vals)


def gaussian_kernel_weights(lam: float, kmax: int) -> WeightMatrix:
    """Diagonal Gaussian taper w[m] = exp(-m^2 / (2 lam^2)), m = -kmax..kmax.

    The scale is typically chosen from a cut-off frequency via
    lam = 3 / omega_c (three-sigma point of the kernel's own response).
    """
    if not lam > 0:
        raise ValueError("kernel scale lam must be positive")
    m = np.arange(-kmax, kmax + 1, dtype=float)
    diag = np.exp(-(m ** 2) / (2.0 * lam ** 2))
    return WeightMatrix(matrix=np.diag(diag), provenance="diagonal-kernel")


def toeplitz_from_autocorr(acf: AutocorrSequence, size: int) -> np.ndarray:
    """Symmetric Toeplitz matrix with entry [i, j] = R[|i - j|]."""
    if acf.kmax < size - 1:
        raise ValueError(f"autocorrelation covers lags 0..{acf.kmax}, need 0..{size - 1}")
    idx = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    return acf.values[idx]


def kms_tridiagonal_inverse(rho: float, size: int) -> np.ndarray:
    """Closed-form inverse of the Kac-Murdock-Szego matrix [rho^|i-j|].

    Exact for any |rho| < 1; preferred over a dense solve when rho is close
    to +-1 and the matrix condition number approaches 1/(1 - rho^2)^2.
    """
    if not abs(rho) < 1:
        raise ValueError("KMS inverse requires |rho| < 1")
    if size == 1:
        return np.ones((1, 1))
    denom = 1.0 - rho * rho
    w = np.zeros((size, size))
    np.fill_diagonal(w, (1.0 + rho * rho) / denom)
    w[0, 0] = w[-1, -1] = 1.0 / denom
    i = np.arange(size - 1)
    w[i, i + 1] = -rho / denom
    w[i + 1, i] = -rho / denom
    return w


def invert_to_weight(r_matrix: np.ndarray, kms_rho: float | None = None) -> WeightMatrix:
    """Invert an autocorrelation matrix into a whitening weight matrix.

    Parameters
    ----------
    r_matrix : ndarray
        Symmetric, numerically nonsingular autocorrelation matrix.
    kms_rho : float, optional
        When the matrix is known to be first-order ([rho^|i-j|]), pass rho to
        use the exact tridiagonal inverse instead of a dense solve.

    Raises
    ------
    IllConditionedError
        If ||R W - I||_inf exceeds 1e-6 * M.  For narrow-band models this
        signals that |sigma| must be increased.
    """
    r = np.asarray(r_matrix, dtype=float)
    size = r.shape[0]
    if kms_rho is not None:
        w = kms_tridiagonal_inverse(kms_rho, size)
    else:
        try:
            w = np.linalg.solve(r, np.eye(size))
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(f"autocorrelation matrix is singular: {exc}") from exc
        w = 0.5 * (w + w.T)
    residual = np.abs(r @ w - np.eye(size)).max()
    bound = RESIDUAL_TOL * size
    if not residual <= bound:
        raise IllConditionedError(
            f"inverse residual {residual:.3e} exceeds {bound:.3e}; "
            "the noise model is too close to singular (increase |sigma|)")
    return WeightMatrix(matrix=w, provenance="inverse-toeplitz",
                        condition=condition_estimate(r))


def condition_estimate(matrix: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix.

    The ratio of the largest to the smallest eigenvalue magnitude, from a
    symmetric eigenvalue decomposition; inf when the smallest is zero.
    """
    magnitudes = np.abs(np.linalg.eigvalsh(np.asarray(matrix, dtype=float)))
    low = magnitudes.min()
    return math.inf if low == 0.0 else float(magnitudes.max() / low)


class _Family(NamedTuple):
    fields: tuple[str, ...]                # serialized order
    autocorr: Callable | None              # (model, kmax) -> AutocorrSequence
    weight: str                            # provenance of the weight route
    kms_rho: Callable | None = None        # model -> rho of a first-order KMS matrix


_KINDS = {
    "white": _Family(
        (), lambda model, kmax: AutocorrSequence(values=np.eye(1, kmax + 1)[0]),
        "identity"),
    # A weighting kernel, not a process: it has no autocorrelation.
    "gaussian-kernel": _Family(("lam",), None, "diagonal-kernel"),
    "gauss-markov": _Family(
        ("lam",), lambda model, kmax: gauss_markov_lowpass_autocorr(model.lam, kmax),
        "inverse-toeplitz", lambda model: math.exp(-1.0 / model.lam)),
    # Single pole at Omega = pi: R[m] = (-exp(sigma*Ts))^|m|.
    "nyquist": _Family(
        ("sigma",), lambda model, kmax: narrowband_autocorr(
            [(model.sigma, math.pi / model.ts)], model.ts, kmax),
        "inverse-toeplitz", lambda model: -math.exp(model.sigma * model.ts)),
    "narrow-band": _Family(
        ("poles",), lambda model, kmax: narrowband_autocorr(model.poles, model.ts, kmax),
        "inverse-toeplitz"),
    "wide-band": _Family(
        ("omega_c", "omega_d"),
        lambda model, kmax: wideband_autocorr(model.omega_c, model.omega_d, kmax),
        "inverse-toeplitz"),
}


def autocorrelation(model: NoiseModel, kmax: int) -> AutocorrSequence:
    """Autocorrelation sequence of a noise model out to lag kmax."""
    build = _KINDS[model.kind].autocorr
    if build is None:
        raise ValueError(f"{model.kind} model is a weighting kernel, not a process; "
                         "it has no autocorrelation")
    return build(model, kmax)


def correlation_matrix(model: NoiseModel, size: int) -> np.ndarray:
    """Toeplitz autocorrelation matrix of a model; diagonal kernels use W^-1."""
    if _KINDS[model.kind].autocorr is None:
        w = gaussian_kernel_weights(model.lam, (size - 1) // 2).matrix
        return np.diag(1.0 / np.diag(w))
    return toeplitz_from_autocorr(autocorrelation(model, size - 1), size)


def weight_matrix(model: NoiseModel, size: int) -> WeightMatrix:
    """Whitening weight matrix W for a model at the given window size.

    White -> identity; Gaussian kernel -> diagonal taper; first-order models
    (gauss-markov, nyquist) -> exact tridiagonal KMS inverse; narrow-band and
    wide-band -> dense inverse of the Toeplitz matrix with a residual check.
    """
    family = _KINDS[model.kind]
    if family.weight == "identity":
        return WeightMatrix(matrix=np.eye(size), provenance="identity")
    if family.weight == "diagonal-kernel":
        return gaussian_kernel_weights(model.lam, (size - 1) // 2)
    rho = None if family.kms_rho is None else family.kms_rho(model)
    return invert_to_weight(correlation_matrix(model, size), kms_rho=rho)
