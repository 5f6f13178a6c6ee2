"""Random sensing ensembles and the quadratic intensity operator.

An ensemble is a set of m sensing vectors z_i.  The forward operator
maps a Hermitian matrix X to the real vector (z_i* X z_i)_i; applied to
xx* it returns the phaseless intensities |<x, z_i>|^2.  Noise models
rescale the realized noise vector to hit a target SNR exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .hermitian import COMPLEX, REAL, as_hermitian, as_signal, field_of

GAUSSIAN_MODELS = ("real-gaussian", "complex-gaussian")
SPHERE_MODELS = ("real-unit-sphere", "complex-unit-sphere")
MODELS = GAUSSIAN_MODELS + SPHERE_MODELS

NOISE_MODELS = ("gaussian", "poisson", "none")


@dataclass(frozen=True)
class SensingEnsemble:
    """m sensing vectors stored as the rows of an (m, n) array."""

    vectors: np.ndarray
    model: str

    def __post_init__(self):
        Z = np.asarray(self.vectors)
        if Z.ndim != 2 or not np.all(np.isfinite(Z)):
            raise ValueError("sensing vectors must be a finite 2-d array")

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def field(self) -> str:
        return field_of(self.vectors)


@dataclass(frozen=True)
class IntensityData:
    """Measured intensities b and the l2 bound eps on their noise, all the solver reads.

    Clean intensities are nonnegative and the noise has norm at most eps,
    so no b_i may lie below -eps (up to round-off).
    """

    b: np.ndarray
    eps: float

    def __post_init__(self):
        b = np.asarray(self.b)
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise ValueError("intensities b must be a finite 1-d vector")
        if not 0 <= self.eps < np.inf:
            need = "finite" if self.eps > 0 else "nonnegative"
            raise ValueError(f"noise bound eps must be {need}, got {self.eps}")
        if np.any(b < -self.eps - 1e-9 * max(1.0, float(np.abs(b).max(initial=0.0)))):
            raise ValueError("clean intensities must be nonnegative, but some b_i < -eps")


def _draw_gaussian(rng: np.random.Generator, m: int, n: int, field: str) -> np.ndarray:
    if field == REAL:
        return rng.standard_normal((m, n))
    # real and imaginary parts each of variance 1/2, so E|z_jk|^2 = 1
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def sample_ensemble(n: int, m: int, model: str, seed: int) -> SensingEnsemble:
    """Draw m sensing vectors of length n, deterministically in (args, seed)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if model not in MODELS:
        raise ValueError(f"unknown ensemble model {model!r}")
    field = REAL if model.startswith("real") else COMPLEX
    rng = substream(seed, 0)
    Z = _draw_gaussian(rng, m, n, field)
    if model in SPHERE_MODELS:
        norms = np.linalg.norm(Z, axis=1)
        if np.any(norms == 0.0):
            raise RuntimeError("zero-norm Gaussian draw; cannot scale it to the unit sphere")
        Z = Z * (1.0 / norms)[:, None]
    return SensingEnsemble(vectors=Z, model=model)


def apply_measurement(ens: SensingEnsemble, X: np.ndarray) -> np.ndarray:
    """Quadratic forms (z_i* X z_i)_i; real output for Hermitian X."""
    X = as_hermitian(X)
    if X.shape[0] != ens.n:
        raise ValueError("matrix dimension does not match ensemble")
    Z = ens.vectors
    return np.sum((Z.conj() @ X) * Z, axis=1).real


def apply_adjoint(ens: SensingEnsemble, y: np.ndarray) -> np.ndarray:
    """Adjoint map y -> sum_i y_i z_i z_i* (Hermitian output)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (ens.m,):
        raise ValueError("weight vector length does not match ensemble")
    Z = ens.vectors
    A = (Z * y[:, None]).T @ Z.conj()
    return (A + A.conj().T) / 2


def _forward_factor(ens: SensingEnsemble, F: np.ndarray) -> np.ndarray:
    """A(F F*) = sum_j |Z-bar f_j|^2 for an n x k factor F, an m*n*k product; unchecked."""
    P = ens.vectors.conj() @ F
    return np.sum((P * P.conj()).real, axis=1)


def intensities(ens: SensingEnsemble, x: np.ndarray) -> np.ndarray:
    """Phaseless measurements |<x, z_i>|^2 of a signal x."""
    x = as_signal(x, field=ens.field)
    if x.size != ens.n:
        raise ValueError("signal length does not match ensemble")
    inner = ens.vectors @ x.conj()  # <x, z_i> = sum_t conj(x_t) z_{i,t}
    return np.abs(inner) ** 2


def add_noise(b_clean: np.ndarray, model: str, snr_db: float, seed: int) -> IntensityData:
    """Corrupt clean intensities with noise rescaled to an exact SNR.

    The realized noise nu is scaled so 10*log10(||b_clean||^2 / ||nu||^2)
    equals snr_db (measurement-relative SNR); the record is b = b_clean + nu
    with eps = ||nu||.  snr_db = +inf or model 'none' yields nu = 0.
    """
    b_clean = np.asarray(b_clean, dtype=np.float64)
    bad = b_clean[~((b_clean >= 0) & (b_clean < np.inf))]  # a NaN fails both comparisons
    if bad.size:
        raise ValueError(f"clean intensities must be finite and nonnegative, got {bad}")
    if model not in NOISE_MODELS:
        raise ValueError(f"unknown noise model {model!r}")
    if model == "none" or np.isposinf(snr_db):
        return IntensityData(b=b_clean.copy(), eps=0.0)
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    try:
        gain = 10.0 ** (-snr_db / 20.0)
    except OverflowError:  # below about -6165 dB
        msg = f"noise at {snr_db} dB is past float64: 10^({-snr_db} / 20) overflows"
        raise ValueError(msg) from None
    e = max(0, int(np.frexp(b_clean.max(initial=0.0))[1]))  # b / 2^e is exact, its squares finite
    ref = float(np.sum(np.ldexp(b_clean, -e) ** 2))
    if ref <= 0:
        raise ValueError("cannot set a finite SNR against zero-power intensities")
    rng = substream(seed, 1)
    if model == "gaussian":
        nu = rng.standard_normal(b_clean.size)
    else:  # poisson
        try:
            nu = rng.poisson(b_clean).astype(np.float64) - b_clean
        except ValueError as err:  # numpy's "lam value too large", past ~9.2e18
            raise ValueError(f"Poisson rate {b_clean.max():.3g} is past numpy's: {err}") from None
    nrm = float(np.linalg.norm(nu))
    if nrm == 0.0:
        # degenerate draw (e.g. all-zero rates); nothing to rescale
        return IntensityData(b=b_clean.copy(), eps=0.0)
    with np.errstate(over="ignore"):  # a noise norm or record past float64 is reported below
        nu *= np.ldexp(np.sqrt(ref) * gain, e) / nrm
        b = b_clean + nu
    if not np.all(np.isfinite(b)):
        raise ValueError(f"noise at {snr_db} dB takes the noisy intensities past float64")
    k = int(np.frexp(np.abs(nu).max())[1])  # nu / 2^k is exact, its squares finite
    return IntensityData(b=b, eps=float(np.ldexp(np.linalg.norm(np.ldexp(nu, -k)), k)))
