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

Overall scale of R is irrelevant: inversion removes it, only the spectral
shape matters.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import IllConditionedError

# Residual bound for invert_to_weight: ||R W - I||_inf <= RESIDUAL_TOL * M.
RESIDUAL_TOL = 1e-6

# Pole frequencies this close above pi are treated as Nyquist, not aliased;
# covers inputs quoted to a few decimals (e.g. 3.1416).
ALIAS_TOL = 1e-4

_KINDS = ("white", "gaussian-kernel", "gauss-markov", "nyquist",
          "narrow-band", "wide-band")


@dataclass(frozen=True)
class NoiseModel:
    """Declarative description of a noise process.

    Use the classmethod constructors rather than filling fields by hand;
    they validate the parameter set for each family.
    """

    kind: str
    ts: float = 1.0
    lam: float | None = None                # samples (kernel / Gauss-Markov scale)
    sigma: float | None = None              # 1/seconds, pole real part (< 0)
    poles: tuple[tuple[float, float], ...] = ()   # (sigma, Omega) pairs
    omega_c: float | None = None            # radians/sample
    omega_d: float | None = None            # radians/sample

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise model kind {self.kind!r}")
        if self.ts <= 0:
            raise ValueError("sampling period must be positive")
        if self.kind in ("gaussian-kernel", "gauss-markov"):
            if self.lam is None or self.lam <= 0:
                raise ValueError(f"{self.kind} model needs lam > 0")
        if self.kind == "nyquist":
            if self.sigma is None or self.sigma >= 0:
                raise ValueError("nyquist model needs sigma < 0 for causal stability")
        if self.kind == "narrow-band":
            if not self.poles:
                raise ValueError("narrow-band model needs at least one pole")
            for sig, omega in self.poles:
                if sig >= 0:
                    raise ValueError("pole damping sigma must be < 0 for causal stability")
                w = omega * self.ts
                if not 0 < w <= math.pi + ALIAS_TOL:
                    raise ValueError(
                        f"pole frequency Omega*Ts = {w:.4g} outside (0, pi]; aliased")
        if self.kind == "wide-band":
            if self.omega_c is None or self.omega_d is None:
                raise ValueError("wide-band model needs omega_c and omega_d")
            if not 0 < self.omega_c < self.omega_d:
                raise ValueError("wide-band model needs 0 < omega_c < omega_d")
            if self.omega_d > math.pi:
                raise ValueError("omega_d may not exceed pi (Nyquist)")

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
        if self.kind in ("gaussian-kernel", "gauss-markov"):
            out["lam"] = self.lam
        elif self.kind == "nyquist":
            out["sigma"] = self.sigma
        elif self.kind == "narrow-band":
            out["poles"] = [{"sigma": s, "omega": w} for s, w in self.poles]
        elif self.kind == "wide-band":
            out["omega_c"] = self.omega_c
            out["omega_d"] = self.omega_d
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        data = dict(data)
        kind = data.pop("kind", None)
        ts = data.pop("ts", 1.0)
        if kind == "white":
            extra = data
        elif kind in ("gaussian-kernel", "gauss-markov"):
            lam = data.pop("lam", None)
            return _checked(cls(kind=kind, lam=lam, ts=ts), data)
        elif kind == "nyquist":
            sigma = data.pop("sigma", None)
            return _checked(cls(kind=kind, sigma=sigma, ts=ts), data)
        elif kind == "narrow-band":
            poles = tuple((p["sigma"], p["omega"]) for p in data.pop("poles", []))
            return _checked(cls(kind=kind, poles=poles, ts=ts), data)
        elif kind == "wide-band":
            oc = data.pop("omega_c", None)
            od = data.pop("omega_d", None)
            return _checked(cls(kind=kind, omega_c=oc, omega_d=od, ts=ts), data)
        else:
            raise ValueError(f"unknown noise model kind {kind!r}")
        return _checked(cls(kind="white", ts=ts), extra)


def _checked(model: NoiseModel, leftovers: dict) -> NoiseModel:
    if leftovers:
        raise ValueError(f"unknown noise model keys: {sorted(leftovers)}")
    return model


@dataclass(frozen=True)
class AutocorrSequence:
    """One-sided autocorrelation R[m] at lags m = 0..kmax (symmetric in m)."""

    values: np.ndarray
    kmax: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.kmax + 1,):
            raise ValueError("values must cover lags 0..kmax")
        if vals[0] <= 0:
            raise ValueError("R[0] must be positive")
        if np.any(np.abs(vals) > vals[0] * (1 + 1e-12)):
            raise ValueError("|R[m]| may not exceed R[0] for a WSS process")

    def __getitem__(self, m: int) -> float:
        return float(self.values[abs(m)])


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric weight matrix with provenance and conditioning metadata.

    ``condition`` is the condition number of the source autocorrelation
    matrix when provenance is ``inverse-toeplitz``, else None.
    """

    matrix: np.ndarray
    provenance: str     # "identity" | "diagonal-kernel" | "inverse-toeplitz"
    condition: float | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        scale = np.abs(w).max()
        if np.abs(w - w.T).max() > 1e-12 * max(scale, 1.0):
            raise ValueError("weight matrix must be symmetric")
        if self.provenance not in ("identity", "diagonal-kernel", "inverse-toeplitz"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance in ("identity", "diagonal-kernel"):
            if np.abs(w - np.diag(np.diag(w))).max() != 0.0:
                raise ValueError("diagonal provenance requires exact zeros off-diagonal")
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


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
    return AutocorrSequence(values=vals, kmax=kmax)


def narrowband_autocorr(poles, ts: float, kmax: int) -> AutocorrSequence:
    """Autocorrelation of a sum of lightly damped oscillators.

    Each pole pair (sigma, Omega) contributes exp(sigma*Ts*|m|) cos(Omega*Ts*m);
    sigma < 0 gives the decaying envelope of a causal process.  The sequence is
    truncated at +-kmax.
    """
    poles = tuple((float(s), float(w)) for s, w in poles)
    for sig, omega in poles:
        if sig >= 0:
            raise ValueError("pole damping sigma must be < 0")
        if not 0 < omega * ts <= math.pi + ALIAS_TOL:
            raise ValueError(f"pole frequency Omega*Ts = {omega * ts:.4g} outside (0, pi]")
    m = np.arange(kmax + 1, dtype=float)
    vals = np.zeros(kmax + 1)
    for sig, omega in poles:
        vals += np.exp(sig * ts * m) * np.cos(omega * ts * m)
    return AutocorrSequence(values=vals, kmax=kmax)


def gauss_markov_lowpass_autocorr(lam: float, kmax: int) -> AutocorrSequence:
    """First-order low-pass Gauss-Markov autocorrelation rho^|m|, rho = exp(-1/lam)."""
    if lam <= 0:
        raise ValueError("correlation scale lam must be positive")
    rho = math.exp(-1.0 / lam)
    vals = rho ** np.arange(kmax + 1, dtype=float)
    return AutocorrSequence(values=vals, kmax=kmax)


def gaussian_kernel_weights(lam: float, kmax: int) -> WeightMatrix:
    """Diagonal Gaussian taper w[m] = exp(-m^2 / (2 lam^2)), m = -kmax..kmax.

    The scale is typically chosen from a cut-off frequency via
    lam = 3 / omega_c (three-sigma point of the kernel's own response).
    """
    if lam <= 0:
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


def autocorrelation(model: NoiseModel, kmax: int) -> AutocorrSequence:
    """Autocorrelation sequence of a noise model out to lag kmax."""
    if model.kind == "white":
        vals = np.zeros(kmax + 1)
        vals[0] = 1.0
        return AutocorrSequence(values=vals, kmax=kmax)
    if model.kind == "gauss-markov":
        return gauss_markov_lowpass_autocorr(model.lam, kmax)
    if model.kind == "nyquist":
        # Single pole at Omega = pi: R[m] = (-exp(sigma*Ts))^|m|.
        return narrowband_autocorr([(model.sigma, math.pi / model.ts)],
                                   model.ts, kmax)
    if model.kind == "narrow-band":
        return narrowband_autocorr(model.poles, model.ts, kmax)
    if model.kind == "wide-band":
        return wideband_autocorr(model.omega_c, model.omega_d, kmax)
    raise ValueError(f"{model.kind} model is a weighting kernel, not a process; "
                     "it has no autocorrelation")


def correlation_matrix(model: NoiseModel, size: int) -> np.ndarray:
    """Toeplitz autocorrelation matrix of a model; diagonal kernels use W^-1."""
    if model.kind == "gaussian-kernel":
        w = gaussian_kernel_weights(model.lam, (size - 1) // 2).matrix
        return np.diag(1.0 / np.diag(w))
    return toeplitz_from_autocorr(autocorrelation(model, size - 1), size)


def weight_matrix(model: NoiseModel, size: int) -> WeightMatrix:
    """Whitening weight matrix W for a model at the given window size.

    White -> identity; Gaussian kernel -> diagonal taper; first-order models
    (gauss-markov, nyquist) -> exact tridiagonal KMS inverse; narrow-band and
    wide-band -> dense inverse of the Toeplitz matrix with a residual check.
    """
    if model.kind == "white":
        return WeightMatrix(matrix=np.eye(size), provenance="identity")
    if model.kind == "gaussian-kernel":
        return gaussian_kernel_weights(model.lam, (size - 1) // 2)
    if model.kind == "gauss-markov":
        rho = math.exp(-1.0 / model.lam)
        r = toeplitz_from_autocorr(autocorrelation(model, size - 1), size)
        w = invert_to_weight(r, kms_rho=rho)
        return w
    if model.kind == "nyquist":
        rho = -math.exp(model.sigma * model.ts)
        r = toeplitz_from_autocorr(autocorrelation(model, size - 1), size)
        return invert_to_weight(r, kms_rho=rho)
    r = toeplitz_from_autocorr(autocorrelation(model, size - 1), size)
    return invert_to_weight(r)
