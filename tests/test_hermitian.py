import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselift.hermitian import (
    as_hermitian,
    as_signal,
    eig,
    matrix_norms,
    project_tangent,
    project_tangent_complement,
)


def random_hermitian(n, field, rng):
    A = rng.standard_normal((n, n))
    if field == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


class TestEig:
    def test_diagonal(self):
        w, V = eig(np.diag([3.0, 1.0, -2.0]))
        assert np.allclose(w, [3.0, 1.0, -2.0])
        assert np.allclose(np.abs(V), np.eye(3))

    def test_hand_solved_2x2(self):
        # characteristic polynomial of [[0,1],[1,0]] gives eigenvalues +-1
        w, V = eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(V[:, 0], [s, s])
        assert np.allclose(V[:, 1], [s, -s])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reconstruction_and_orthonormality(self, field):
        rng = np.random.default_rng(1)
        # sizes above 16 leave numpy's small-array sort
        for n in (1, 6, 17, 40):
            for _ in range(10):
                A = random_hermitian(n, field, rng)
                w, V = eig(A)
                scale = max(1.0, np.linalg.norm(A))
                assert np.all(np.diff(w) <= 0)
                assert np.linalg.norm((V * w) @ V.conj().T - A) <= 1e-9 * scale
                G = V.conj().T @ V
                assert np.abs(G - np.eye(n)).max() <= 1e-10

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(2)
        for n in (1, 6, 17, 40):
            A = random_hermitian(n, "complex", rng)
            (_, V1), (_, V2) = eig(A), eig(A.copy())
            assert np.array_equal(V1, V2)
            for k in range(n):
                col = V1[:, k]
                pivot = col[np.argmax(np.abs(col) > 1e-12)]
                assert pivot.real > 0 and abs(pivot.imag) <= 1e-12 * abs(pivot)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestNorms:
    def test_hand_diagonal(self):
        nuc, fro, op = matrix_norms(np.diag([1.0, -2.0]))
        assert nuc == pytest.approx(3.0)
        assert fro == pytest.approx(np.sqrt(5.0))
        assert op == pytest.approx(2.0)

    def test_zero(self):
        assert matrix_norms(np.zeros((4, 4))) == (0.0, 0.0, 0.0)

    def test_rank1_unit(self):
        u = np.array([0.6, 0.8])
        nuc, fro, op = matrix_norms(np.outer(u, u))
        assert nuc == pytest.approx(1.0)
        assert fro == pytest.approx(1.0)
        assert op == pytest.approx(1.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_consistency_chain(self, field):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            nuc, fro, op = matrix_norms(random_hermitian(n, field, rng))
            assert nuc >= fro - 1e-12 >= op - 2e-12
            assert nuc <= n * op + 1e-12


def tangent_basis_projection(x, H):
    """Brute-force oracle: Gram-Schmidt an explicit basis of the tangent
    space at x, then project H onto it in the trace inner product."""
    n = x.size
    raw = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        raw.append(np.outer(x, e) + np.outer(e, x))
    basis = []
    for B in raw:
        for Q in basis:
            B = B - np.trace(Q.conj().T @ B) * Q
        nrm = np.linalg.norm(B)
        if nrm > 1e-12:
            basis.append(B / nrm)
    P = np.zeros_like(H)
    for Q in basis:
        P = P + np.trace(Q.conj().T @ H) * Q
    return P


class TestTangentProjection:
    def test_fixes_tangent_elements(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(5)
        H = np.outer(x, y) + np.outer(y, x)
        assert np.allclose(project_tangent(x, H), H, atol=1e-12)

    def test_kills_orthogonal_blocks(self):
        rng = np.random.default_rng(5)
        x = np.zeros(4)
        x[0] = 1.0
        H = np.zeros((4, 4))
        H[1:, 1:] = random_hermitian(3, "real", rng)
        assert np.abs(project_tangent(x, H)).max() <= 1e-14
        # complement leaves such H unchanged
        assert np.allclose(project_tangent_complement(x, H), H)

    def test_matches_basis_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            H = random_hermitian(4, "real", rng)
            P = project_tangent(x, H)
            assert np.abs(P - tangent_basis_projection(x, H)).max() <= 1e-10

    def test_complement_of_anchor_lift(self):
        x = np.array([1.0, 0.0, 0.0])
        assert np.abs(project_tangent_complement(x, np.outer(x, x))).max() <= 1e-14

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_idempotence_split_orthogonality_rank(self, field):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(5)
            if field == "complex":
                x = x + 1j * rng.standard_normal(5)
            x /= np.linalg.norm(x)
            H = random_hermitian(5, field, rng)
            P = project_tangent(x, H)
            Q = project_tangent_complement(x, H)
            assert np.abs(project_tangent(x, P) - P).max() <= 1e-10
            assert np.abs(P + Q - H).max() <= 1e-12
            assert abs(np.vdot(P, Q).real) <= 1e-10
            # rank of the tangent part is at most 2
            w = np.sort(np.abs(np.linalg.eigvalsh(P)))[::-1]
            if len(w) > 2:
                assert w[2] <= 1e-9 * max(np.linalg.norm(H), 1e-300)

    def test_dimension_mismatch(self):
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            project_tangent(x, np.eye(3))

    def test_non_unit_anchor_rejected(self):
        with pytest.raises(ValueError):
            project_tangent(np.array([1.0, 1.0]), np.eye(2))


class TestConstructors:
    def test_symmetrization(self):
        A = np.array([[1.0, 2.0], [0.0, 3.0]])
        H = as_hermitian(A)
        assert np.abs(H - H.conj().T).max() <= 1e-12

    def test_field_mixing_rejected(self):
        with pytest.raises(ValueError):
            as_signal(np.array([1.0 + 1j, 0.0]), field="real")

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        n=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        in_imag=st.booleans(),
    )
    def test_field_dtype_and_rejections(self, field, n, seed, bad, in_imag):
        rng = np.random.default_rng(seed)
        dtype = np.float64 if field == "real" else np.complex128
        A = random_hermitian(n, field, rng)
        x = A[0].copy()
        for check, a in ((as_signal, x), (as_hermitian, A)):
            assert check(a).dtype == dtype and check(a, field=field).dtype == dtype
            with pytest.raises(ValueError):
                check(a.astype(complex), field="real")
            # one non-finite entry, in the real or the imaginary part
            a = a.astype(complex) if in_imag else a.copy()
            flat = a.reshape(-1)
            k = int(rng.integers(flat.size))
            flat[k] = complex(flat[k].real, bad) if in_imag else bad
            with pytest.raises(ValueError):
                check(a)
            with pytest.raises(ValueError):
                check(a, field="complex")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            as_hermitian(np.eye(2), field="quaternion")
        with pytest.raises(ValueError):
            as_signal(np.ones(2), field="quaternion")
