"""Dual-certificate machinery for the lifted trace-minimization program.

Under the Gaussian sensing model the mean of the per-measurement Gram
map X -> mean_i <z_i z_i*, X> z_i z_i* has the closed form
2X + Tr(X) I (real field) or X + Tr(X) I (complex field).  Its inverse
turns xx* into the weight matrix that drives the empirical certificate
Y = (1/m) sum_i w_i 1_{E_i} z_i z_i*, whose quality is judged by how
close its tangent part is to xx* and how small its complement part is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .hermitian import (
    COMPLEX,
    REAL,
    as_hermitian,
    as_unit_signal,
    field_of,
    matrix_norms,
    project_tangent,
)
from .measurement import (
    GAUSSIAN_MODELS,
    SensingEnsemble,
    _draw_gaussian,
    apply_adjoint,
    apply_measurement,
)

#: (tangent-distance, complement-operator-norm) thresholds per field.
THRESHOLDS = {REAL: (1.0 / 3.0, 0.5), COMPLEX: (0.2, 0.5)}

DEFAULT_TRUNCATION_BETA = 3.0


def mean_gram(X: np.ndarray, field: str) -> np.ndarray:
    """Expected per-measurement Gram map: 2X + Tr(X) I (real), X + Tr(X) I (complex)."""
    X = as_hermitian(X, field=field)
    eye = np.eye(X.shape[0], dtype=X.dtype)
    return (2.0 if field == REAL else 1.0) * X + np.trace(X).real * eye


def mean_gram_inverse(X: np.ndarray, field: str) -> np.ndarray:
    """Exact inverse of `mean_gram`."""
    X = as_hermitian(X, field=field)
    n = X.shape[0]
    shift = np.trace(X).real / (n + 2 if field == REAL else n + 1) * np.eye(n, dtype=X.dtype)
    return 0.5 * (X - shift) if field == REAL else X - shift


@dataclass(frozen=True)
class CertificateReport:
    dist_tangent: float
    opnorm_complement: float
    thresholds: tuple[float, float]

    @property
    def passed(self) -> bool:
        return (
            self.dist_tangent <= self.thresholds[0]
            and self.opnorm_complement <= self.thresholds[1]
        )


def check_mean_gram(field: str, n: int, num_samples: int, seed: int) -> float:
    """Monte Carlo check of the closed-form mean Gram map.

    Averages <zz*, X> zz* over num_samples Gaussian draws for 5 fixed
    random Hermitian test matrices and returns the worst relative
    Frobenius deviation from the closed form.  Decays like
    O(num_samples^{-1/2}).
    """
    if num_samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = substream(seed, 3)
    ens = SensingEnsemble(_draw_gaussian(rng, num_samples, n, field), f"{field}-gaussian")
    worst = 0.0
    for _ in range(5):
        X = _draw_gaussian(rng, n, n, field)  # both maps below symmetrize it
        est = apply_adjoint(ens, apply_measurement(ens, X)) / num_samples
        ref = mean_gram(X, field)
        denom = float(np.linalg.norm(ref))
        worst = max(worst, float(np.linalg.norm(est - ref)) / denom if denom else 0.0)
    return worst


def build_certificate(
    ens: SensingEnsemble,
    x: np.ndarray,
    beta: float = DEFAULT_TRUNCATION_BETA,
    truncate: bool = True,
) -> tuple[np.ndarray, float]:
    """Empirical certificate Y = (1/m) sum_i w_i 1_{E_i} z_i z_i* at unit x.

    The weights are w_i = <Minv(xx*), z_i z_i*> with Minv the inverse
    mean Gram map, so E[Y] = xx* without truncation.  The keep event E_i
    bounds |<x, z_i>| by sqrt(2 beta log n) and ||z_i|| by sqrt(3n);
    requires a Gaussian ensemble, whose moments the weights assume.
    """
    if ens.model not in GAUSSIAN_MODELS:
        raise ValueError("certificate construction requires a Gaussian ensemble")
    x = as_unit_signal(x, field=ens.field)
    if x.size != ens.n:
        raise ValueError("x must have the ensemble's length")
    n = ens.n
    if 2.0 * beta * np.log(n) < 3.0:
        warnings.warn(
            f"2*beta*log(n) = {2 * beta * np.log(n):.3g} < 3; "
            "truncation bounds are outside their intended regime"
        )
    w = apply_measurement(ens, mean_gram_inverse(np.outer(x, x.conj()), ens.field))
    if truncate:
        Z = ens.vectors
        keep = (np.abs(Z @ x.conj()) <= np.sqrt(2.0 * beta * np.log(n))) & (
            np.linalg.norm(Z, axis=1) <= np.sqrt(3.0 * n)
        )
        w = w * keep
        dropped = 1.0 - float(keep.mean())
    else:
        dropped = 0.0
    return apply_adjoint(ens, w) / ens.m, dropped


def verify_certificate(Y: np.ndarray, x: np.ndarray) -> CertificateReport:
    """Measure a candidate certificate against its field's thresholds (complex if Y or x is)."""
    x = as_unit_signal(x)
    Y = as_hermitian(Y)
    P = project_tangent(x, Y)
    return CertificateReport(
        dist_tangent=float(np.linalg.norm(P - np.outer(x, x.conj()))),
        opnorm_complement=matrix_norms(Y - P)[2],
        thresholds=THRESHOLDS[field_of(P)],
    )
