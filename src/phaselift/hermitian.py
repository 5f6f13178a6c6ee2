"""Dense Hermitian matrix arithmetic and the array rules all modules share.

Field dtypes and input checks (finite entries, no complex data in a
real field, unit-norm anchors); eigendecompositions with a deterministic
sign convention, spectral norms, and the orthogonal projector onto the
tangent space of the rank-1 manifold at a unit vector.
"""

from __future__ import annotations

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: Array dtype of each field; its keys are the known fields.
DTYPES = {REAL: np.float64, COMPLEX: np.complex128}

#: Allowed deviation from 1 of the norm of a unit anchor or certificate input.
UNIT_ATOL = 1e-10


def field_of(a: np.ndarray) -> str:
    """Field tag ('real' or 'complex') of an array, from its dtype."""
    return COMPLEX if np.iscomplexobj(a) else REAL


def _checked(a: np.ndarray, field: str | None, what: str) -> np.ndarray:
    """Cast `a` to its field's dtype; the field is inferred from `a` unless given.

    Rejects an unknown field, complex data in a real field and non-finite
    entries; real data is kept real rather than widened to complex.
    """
    if field is None:
        field = field_of(a)
    if field not in DTYPES:
        raise ValueError(f"unknown field {field!r}")
    if field == REAL and np.iscomplexobj(a):
        raise ValueError(f"complex entries in a real-field {what}")
    a = a.astype(DTYPES[field], copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite entries in {what}")
    return a


def as_signal(x, field: str | None = None) -> np.ndarray:
    """Validate and return a 1-d signal as float64 or complex128."""
    x = np.asarray(x)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("signal must be a nonempty 1-d vector")
    return _checked(x, field, "signal")


def as_unit_signal(x, field: str | None = None) -> np.ndarray:
    """`as_signal` for a vector whose norm must be 1 to within UNIT_ATOL."""
    x = as_signal(x, field)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_ATOL:
        raise ValueError("expected a unit-norm vector")
    return x


def as_hermitian(A, field: str | None = None) -> np.ndarray:
    """Validate, symmetrize and return an n-by-n Hermitian matrix."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("expected a square matrix")
    A = _checked(A, field, "matrix")
    return (A + A.conj().T) / 2


def eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues descending, eigenvectors as matching columns) of a Hermitian matrix.

    Each eigenvector's first component above 1e-12 in modulus is made
    real-positive, so repeated runs give identical output.
    """
    w, V = np.linalg.eigh(as_hermitian(A))  # ascending
    V = V[:, ::-1]
    pivot = V[np.argmax(np.abs(V) > 1e-12, axis=0), np.arange(V.shape[1])]
    return np.ascontiguousarray(w[::-1]), V * (np.conj(pivot) / np.abs(pivot))


def matrix_norms(A: np.ndarray) -> tuple[float, float, float]:
    """(nuclear, frobenius, operator) norms of a Hermitian matrix."""
    w = np.linalg.eigvalsh(as_hermitian(A))
    aw = np.abs(w)
    return float(aw.sum()), float(np.sqrt((aw**2).sum())), float(aw.max())


def project_tangent(x: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Orthogonal projection of H onto span{x y* + y x*} at unit x.

    Closed form: xx*H + Hxx* - xx*Hxx*.  The result has rank at most 2.
    """
    x = as_unit_signal(x)
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
