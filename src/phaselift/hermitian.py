"""Dense Hermitian matrix arithmetic.

Eigendecompositions with a deterministic sign convention, spectral
norms, and the orthogonal projector onto the tangent space of the
rank-1 manifold at a unit vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: Allowed deviation from 1 of the norm of a unit anchor or certificate input.
UNIT_ATOL = 1e-10


def field_of(a: np.ndarray) -> str:
    """Field tag ('real' or 'complex') of an array, from its dtype."""
    return COMPLEX if np.iscomplexobj(a) else REAL


def as_signal(x, field: str | None = None) -> np.ndarray:
    """Validate and return a 1-d signal as float64 or complex128.

    The field is fixed by the dtype (or forced by `field`); real data
    is kept real rather than widened to complex with zero imaginary
    part.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("signal must be a nonempty 1-d vector")
    if field is None:
        field = field_of(x)
    if field == REAL:
        if np.iscomplexobj(x):
            raise ValueError("complex entries in a real-field signal")
        x = x.astype(np.float64, copy=False)
    elif field == COMPLEX:
        x = x.astype(np.complex128, copy=False)
    else:
        raise ValueError(f"unknown field {field!r}")
    if not np.all(np.isfinite(x.view(np.float64) if field == COMPLEX else x)):
        raise ValueError("non-finite entries in signal")
    return x


def as_hermitian(A, field: str | None = None) -> np.ndarray:
    """Validate, symmetrize and return an n-by-n Hermitian matrix."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("expected a square matrix")
    if field is None:
        field = field_of(A)
    if field not in (REAL, COMPLEX):
        raise ValueError(f"unknown field {field!r}")
    if field == REAL and np.iscomplexobj(A):
        raise ValueError("complex entries in a real-field matrix")
    A = A.astype(np.float64 if field == REAL else np.complex128, copy=False)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in matrix")
    return (A + A.conj().T) / 2


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column real-positive."""
    out = V.copy()
    for k in range(V.shape[1]):
        col = out[:, k]
        idx = np.argmax(np.abs(col) > 1e-12)
        pivot = col[idx]
        if np.abs(pivot) > 0:
            out[:, k] = col * (np.conj(pivot) / np.abs(pivot))
    return out


def eig(A: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Eigenvector phases are normalized (first nonzero component made
    real-positive) so repeated runs give identical output.
    """
    A = as_hermitian(A)
    w, V = np.linalg.eigh(A)
    order = np.argsort(w)[::-1]
    w = np.ascontiguousarray(w[order])
    V = _fix_signs(np.ascontiguousarray(V[:, order]))
    return EigenDecomposition(w, V)


def matrix_norms(A: np.ndarray) -> tuple[float, float, float]:
    """(nuclear, frobenius, operator) norms of a Hermitian matrix."""
    w = np.linalg.eigvalsh(as_hermitian(A))
    aw = np.abs(w)
    return float(aw.sum()), float(np.sqrt((aw**2).sum())), float(aw.max())


def _check_anchor(x: np.ndarray) -> np.ndarray:
    x = as_signal(x)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_ATOL:
        raise ValueError("tangent-space anchor must be unit-norm")
    return x


def project_tangent(x: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Orthogonal projection of H onto span{x y* + y x*} at unit x.

    Closed form: xx*H + Hxx* - xx*Hxx*.  The result has rank at most 2.
    """
    x = _check_anchor(x)
    H = as_hermitian(H)
    if H.shape[0] != x.size:
        raise ValueError("dimension mismatch between anchor and matrix")
    Hx = H @ x
    xHx = np.real(np.vdot(x, Hx))
    P = np.outer(x, Hx.conj()) + np.outer(Hx, x.conj()) - xHx * np.outer(x, x.conj())
    return (P + P.conj().T) / 2


def project_tangent_complement(x: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Component of H orthogonal to the tangent space at unit x."""
    H = as_hermitian(H)
    return H - project_tangent(x, H)
