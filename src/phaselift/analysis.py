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
from .measurement import SensingEnsemble, _draw_gaussian, intensities


def _check_t(t):
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= 0) & (t <= 1)):  # a NaN fails both comparisons
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


def rank2_l1_mc(t, field: str, num_samples: int, seed: int):
    """Monte Carlo estimate (mean, stderr) of the rank-2 l1 moment at t.

    An array t gives two arrays of its shape, all from one shared draw of
    (Z1, Z2) (common random numbers): entry j is the scalar call at t[j].
    """
    if num_samples < 1000:
        raise ValueError("need at least 1000 samples")
    ts = _check_t(t)
    Z = _draw_gaussian(substream(seed, 4), num_samples, 2, field)
    a, b = (intensities(SensingEnsemble(Z, f"{field}-gaussian"), e) for e in np.eye(2))
    xis = (np.abs(a - x * b) for x in ts.flat)  # one t at a time: no (t, sample) matrix
    stats = np.array([(xi.mean(), xi.std(ddof=1) / np.sqrt(num_samples)) for xi in xis])
    means, stderrs = stats.T.reshape((2,) + ts.shape)
    return (float(means), float(stderrs)) if ts.ndim == 0 else (means, stderrs)


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
    if n < 2:
        raise ValueError("the rank-2 check needs n >= 2")
    if m < n:
        raise ValueError("need m >= n")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = substream(seed, 5)
    # E |<u, z_i>|^2 = 1 in both fields
    ens = SensingEnsemble(_draw_gaussian(rng, m, n, field), f"{field}-gaussian")
    sv = np.linalg.svd(ens.vectors, compute_uv=False)
    delta = max(1.0 - sv[-1] ** 2 / m, sv[0] ** 2 / m - 1.0)

    min_ratio = np.inf
    for _ in range(trials):
        G = _draw_gaussian(rng, n, 2, field)
        Q, _ = np.linalg.qr(G)
        t = rng.uniform(0.0, 1.0)
        a, b = intensities(ens, Q[:, 0]), intensities(ens, Q[:, 1])
        # ||uu* - t vv*||_op = max(1, t) = 1 for t in [0, 1]
        min_ratio = min(min_ratio, float(np.mean(np.abs(a - t * b))))
    return L1IsometryReport(delta_observed=float(delta), rank2_min_ratio=float(min_ratio))
