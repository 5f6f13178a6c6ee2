"""Independent reference implementations used to cross-check the fast paths."""

import numpy as np


def random_hermitian(n, field, rng):
    """A Hermitian matrix whose entries are standard normal draws (real and imaginary parts)."""
    A = rng.standard_normal((n, n))
    if field == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def plain_proximal_gradient(ensembles, bs, lams, steps, iters):
    """Unaccelerated projected proximal gradient, fixed step, from zero, on k instances of
    one shape at once: each step makes one stacked eigh; returns the k final X and objectives.

    It shares no code with the solver: the measurement map is the lifted
    m x n^2 matrix whose row i is conj(z_i) kron z_i, so that row i times
    vec(X) is z_i* X z_i, and its adjoint is the conjugate transpose.
    """
    k, n = len(ensembles), ensembles[0].n
    A = np.stack([np.einsum("ij,ik->ijk", e.vectors.conj(), e.vectors) for e in ensembles])
    A = A.reshape(k, -1, n * n)
    AH = A.conj().transpose(0, 2, 1)
    b, lam = np.asarray(bs, dtype=float), np.asarray(lams, dtype=float)
    step = np.asarray(steps, dtype=float)[:, None, None]

    def residual(X):
        return (A @ X.reshape(k, n * n, 1))[..., 0].real - b

    X = np.zeros((k, n, n), dtype=A.dtype)
    for _ in range(iters):
        V = X - step * (AH @ residual(X)[..., None]).reshape(k, n, n)
        w, U = np.linalg.eigh((V + V.conj().transpose(0, 2, 1)) / 2)
        w = np.maximum(w - step[..., 0] * lam[:, None], 0.0)
        X = (U * w[:, None, :]) @ U.conj().transpose(0, 2, 1)
        X = (X + X.conj().transpose(0, 2, 1)) / 2
    r = residual(X)
    return X, 0.5 * np.sum(r * r, axis=1) + lam * np.trace(X, axis1=1, axis2=2).real


def capped_prox(V, cap, bisections=200):
    """Eigenvalue projection onto the spectraplex {X >= 0, Tr X = cap}, with the theta, of
    either sign, that bisection finds for sum max(w - theta, 0) = cap (the top eigenvalue
    minus cap gives a sum >= cap)."""
    w, U = np.linalg.eigh((V + V.conj().T) / 2)
    lo, hi = float(w.max()) - cap, float(w.max())
    for _ in range(bisections):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if np.maximum(w - mid, 0.0).sum() > cap else (lo, mid)
    w = np.maximum(w - hi, 0.0)
    pos = w > 0
    if not np.any(pos):
        return np.zeros_like(V)
    U = U[:, pos]
    X = (U * w[pos]) @ U.conj().T
    return (X + X.conj().T) / 2


def gram_lambda_max(ens):
    """||A*A|| as the top eigenvalue of the dense Gram matrix G_ij = |<z_i, z_j>|^2."""
    Z = ens.vectors
    return float(np.linalg.eigvalsh(np.abs(Z.conj() @ Z.T) ** 2)[-1])


def phase_grid_rel_mse(x, x_hat, num_phases=100_000):
    """Brute-force minimization of ||c x - x_hat||^2 / ||x||^2 over a phase grid."""
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, num_phases, endpoint=False))
    if not np.iscomplexobj(x) and not np.iscomplexobj(x_hat):
        phases = np.array([1.0, -1.0])
    nx2 = float(np.real(np.vdot(x, x)))
    nh2 = float(np.real(np.vdot(x_hat, x_hat)))
    cross = np.vdot(x_hat, x)
    vals = nx2 + nh2 - 2.0 * np.real(np.conj(phases) * cross)
    return float(vals.min()) / nx2
