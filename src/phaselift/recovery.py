"""Rank-1 extraction, debiasing, and phase-invariant error metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hermitian import as_signal, eig

#: Most negative eigenvalue, relative to ||X||_F, that rank-1 extraction accepts as leakage.
PSD_EXTRACTION_RTOL = 1e-6


@dataclass(frozen=True)
class RecoveryResult:
    x_hat: np.ndarray
    x_hat_debiased: np.ndarray
    rel_mse: float | None = None
    rel_rms: float | None = None


def debias(x_hat: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Rescale x_hat to carry the full (nonnegative part of the) spectral energy.

    Multiplies by s = sqrt(sum_k max(lambda_k, 0)) / ||x_hat||; eigenvalues
    are clipped at zero so tiny negative leakage cannot corrupt s.
    """
    x_hat = np.asarray(x_hat)
    nrm = float(np.linalg.norm(x_hat))
    if nrm == 0.0:
        return x_hat.copy()
    energy = float(np.sum(np.maximum(np.asarray(spectrum, dtype=np.float64), 0.0)))
    return x_hat * (np.sqrt(energy) / nrm)


def rel_mse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Relative MSE modulo a global phase: min_{|c|=1} ||c x - x_hat||^2 / ||x||^2.

    Closed form (||x||^2 + ||x_hat||^2 - 2|<x_hat, x>|) / ||x||^2; the
    optimizer is c = phase(<x_hat, x>) (or the sign, in the real field).
    """
    x = np.asarray(x)
    x_hat = np.asarray(x_hat)
    if x.shape != x_hat.shape:
        raise ValueError("signals must have the same length")
    if np.iscomplexobj(x) != np.iscomplexobj(x_hat):
        raise ValueError("signals must share a field")
    nx2 = float(np.real(np.vdot(x, x)))
    if nx2 == 0.0:
        raise ValueError("reference signal must be nonzero")
    nh2 = float(np.real(np.vdot(x_hat, x_hat)))
    cross = abs(np.vdot(x_hat, x))
    return float((nx2 + nh2 - 2.0 * cross) / nx2)


def recover(X_hat: np.ndarray, x_true: np.ndarray | None = None) -> RecoveryResult:
    """Full recovery pipeline: extraction, debiasing, optional error metrics.

    x_hat = sqrt(lambda_1) u_1 is the top rank-1 component of the
    (numerically) PSD X_hat, using the deterministic eigenvector convention
    of `hermitian.eig`.  Warns when the top eigenvalue is (nearly)
    degenerate, since the choice of u_1 is then ill-posed.
    """
    X_hat = np.asarray(X_hat)
    # X / 2^e is exact and its norms are finite; the floor keeps 2^-e finite on subnormal X
    e = max(int(np.frexp(np.max(np.abs(X_hat), initial=0.0))[1]), -1022)
    w, V = eig(X_hat * np.ldexp(1.0, -e))
    if w[-1] < -PSD_EXTRACTION_RTOL * max(float(np.linalg.norm(w)), 1e-300):
        raise ValueError("matrix is significantly non-PSD; cannot extract a rank-1 component")
    lam1 = max(float(w[0]), 0.0)
    if V.shape[0] > 1 and lam1 > 0.0 and w[0] - w[1] <= 1e-9 * lam1:
        warnings.warn("top eigenvalue is nearly degenerate; rank-1 extraction is ill-posed")
    w = np.ldexp(w, e)
    x_hat = np.sqrt(np.ldexp(lam1, e)) * V[:, 0]
    err = err_rms = None
    if x_true is not None:
        err = rel_mse(as_signal(x_true), x_hat)
        err_rms = float(np.sqrt(max(err, 0.0)))
    return RecoveryResult(
        x_hat=x_hat,
        x_hat_debiased=debias(x_hat, w),
        rel_mse=err,
        rel_rms=err_rms,
    )
