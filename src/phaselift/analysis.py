"""Empirical checks of the measurement operator's l1-isometry behavior.

Closed-form means of |Z1^2 - t Z2^2| (and its complex analog), Monte
Carlo validation of those means, and the observed l1-isometry constants
of a Gaussian measurement matrix on rank-1 and rank-2 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .hermitian import DTYPES
from .measurement import _draw_gaussian


def _check_t(t):
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0) or np.any(t > 1):
        raise ValueError("t must lie in [0, 1]")
    return t


def rank2_l1_mean_real(t):
    """E |Z1^2 - t Z2^2| for independent standard normals, t in [0, 1]."""
    t = _check_t(t)
    s = np.sqrt(t)
    return (2.0 / np.pi) * (2.0 * s + (1.0 - t) * (np.pi / 2.0 - 2.0 * np.arctan(s)))


def rank2_l1_mean_complex(t):
    """E ||Z1|^2 - t |Z2|^2| for independent standard complex normals, t in [0, 1]."""
    t = _check_t(t)
    return (1.0 + t**2) / (1.0 + t)


def rank2_l1_mc(t: float, field: str, num_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the rank-2 l1 moment at t."""
    if num_samples < 1000:
        raise ValueError("need at least 1000 samples")
    _check_t(t)
    rng = substream(seed, 4)
    Z = _draw_gaussian(rng, num_samples, 2, field)
    xi = np.abs(np.abs(Z[:, 0]) ** 2 - t * np.abs(Z[:, 1]) ** 2)
    mean = float(xi.mean())
    stderr = float(xi.std(ddof=1) / np.sqrt(num_samples))
    return mean, stderr


@dataclass(frozen=True)
class L1IsometryReport:
    delta_observed: float
    rank2_min_ratio: float


def l1_isometry_check(field: str, n: int, m: int, trials: int, seed: int) -> L1IsometryReport:
    """Observed l1-isometry constants of one Gaussian measurement draw.

    delta_observed is exact and uniform over unit vectors u: the per-
    measurement l1 mass of the lift uu* equals ||Z conj(u)||^2, so the
    extremes are the squared extreme singular values of Z over m.  The
    rank-2 floor is a sampled minimum of the l1 mass of uu* - t vv*
    (orthonormal u, v; t uniform in [0, 1]) over its operator norm.
    """
    if field not in DTYPES:
        raise ValueError(f"unknown field {field!r}")
    if m < n:
        raise ValueError("need m >= n")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = substream(seed, 5)
    Z = _draw_gaussian(rng, m, n, field)  # E |<u, z_i>|^2 = 1 in both fields
    sv = np.linalg.svd(Z, compute_uv=False)
    delta = max(1.0 - sv[-1] ** 2 / m, sv[0] ** 2 / m - 1.0)

    min_ratio = np.inf
    for _ in range(trials):
        G = _draw_gaussian(rng, n, 2, field)
        Q, _ = np.linalg.qr(G)
        t = rng.uniform(0.0, 1.0)
        a = np.abs(Z @ Q[:, 0].conj()) ** 2
        b = np.abs(Z @ Q[:, 1].conj()) ** 2
        # ||uu* - t vv*||_op = max(1, t) = 1 for t in [0, 1]
        min_ratio = min(min_ratio, float(np.mean(np.abs(a - t * b))))
    return L1IsometryReport(delta_observed=float(delta), rank2_min_ratio=float(min_ratio))
