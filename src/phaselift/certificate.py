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
    TOL,
    as_hermitian,
    as_signal,
    matrix_norms,
    project_tangent,
    project_tangent_complement,
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


@dataclass(frozen=True)
class MeanGramOperator:
    """Expected per-measurement Gram map and its inverse, per field."""

    field: str
    n: int

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field {self.field!r}")
        if self.n < 1:
            raise ValueError("dimension must be positive")

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = as_hermitian(X, field=self.field)
        if X.shape[0] != self.n:
            raise ValueError("matrix dimension mismatch")
        return X

    def apply(self, X: np.ndarray) -> np.ndarray:
        """2X + Tr(X) I in the real field; X + Tr(X) I in the complex field."""
        X = self._check(X)
        c = 2.0 if self.field == REAL else 1.0
        return c * X + np.trace(X).real * np.eye(self.n, dtype=X.dtype)

    def inverse(self, X: np.ndarray) -> np.ndarray:
        """Exact inverse of `apply`."""
        X = self._check(X)
        eye = np.eye(self.n, dtype=X.dtype)
        tr = np.trace(X).real
        if self.field == REAL:
            return 0.5 * (X - tr / (self.n + 2) * eye)
        return X - tr / (self.n + 1) * eye


@dataclass(frozen=True)
class CertificateReport:
    dist_tangent: float
    opnorm_complement: float
    truncated_fraction: float
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
    op = MeanGramOperator(field, n)
    rng = substream(seed, 3)
    ens = SensingEnsemble(_draw_gaussian(rng, num_samples, n, field), f"{field}-gaussian", seed)
    worst = 0.0
    for _ in range(5):
        X = _draw_gaussian(rng, n, n, field)
        X = (X + X.conj().T) / 2
        est = apply_adjoint(ens, apply_measurement(ens, X)) / num_samples
        ref = op.apply(X)
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
    x = as_signal(x, field=ens.field)
    if x.size != ens.n or abs(np.linalg.norm(x) - 1.0) > TOL.unit_atol:
        raise ValueError("x must be a unit vector of matching length")
    n = ens.n
    if 2.0 * beta * np.log(n) < 3.0:
        warnings.warn(
            f"2*beta*log(n) = {2 * beta * np.log(n):.3g} < 3; "
            "truncation bounds are outside their intended regime"
        )
    w = apply_measurement(ens, MeanGramOperator(ens.field, n).inverse(np.outer(x, x.conj())))
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


def verify_certificate(
    Y: np.ndarray, x: np.ndarray, truncated_fraction: float = 0.0
) -> CertificateReport:
    """Measure a candidate certificate against the field's pass thresholds."""
    x = as_signal(x)
    if abs(np.linalg.norm(x) - 1.0) > TOL.unit_atol:
        raise ValueError("x must be unit-norm")
    Y = as_hermitian(Y)
    field = COMPLEX if np.iscomplexobj(Y) or np.iscomplexobj(x) else REAL
    if field == COMPLEX:
        x = x.astype(np.complex128)
        Y = Y.astype(np.complex128)
    dist_t = float(np.linalg.norm(project_tangent(x, Y) - np.outer(x, x.conj())))
    op_tp = matrix_norms(project_tangent_complement(x, Y))[2]
    return CertificateReport(
        dist_tangent=dist_t,
        opnorm_complement=op_tp,
        truncated_fraction=float(truncated_fraction),
        thresholds=THRESHOLDS[field],
    )
