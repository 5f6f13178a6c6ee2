import numpy as np
import pytest

from phaselift.certificate import (
    CertificateReport,
    build_certificate,
    check_mean_gram,
    mean_gram,
    mean_gram_inverse,
    verify_certificate,
)
from phaselift.measurement import SensingEnsemble, apply_adjoint, sample_ensemble


def random_hermitian(n, field, rng):
    A = rng.standard_normal((n, n))
    if field == "complex":
        A = A + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


class TestMeanGram:
    def test_real_identity_input(self):
        assert np.allclose(mean_gram(np.eye(4), "real"), 6.0 * np.eye(4))

    def test_complex_identity_input(self):
        assert np.allclose(mean_gram(np.eye(4) + 0j, "complex"), 5.0 * np.eye(4))

    def test_real_traceless(self):
        X = np.diag([1.0, -1.0, 0.0])
        assert np.allclose(mean_gram(X, "real"), 2.0 * X)

    def test_complex_traceless_inverse(self):
        X = np.diag([1.0, -1.0, 0.0]).astype(complex)
        assert np.allclose(mean_gram_inverse(X, "complex"), X)

    def test_real_hand_inverse(self):
        n = 5
        E = np.zeros((n, n))
        E[0, 0] = 1.0
        expected = 0.5 * (E - np.eye(n) / (n + 2))
        assert np.allclose(mean_gram_inverse(E, "real"), expected)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_mutual_inverse(self, field):
        rng = np.random.default_rng(0)
        for _ in range(50):
            X = random_hermitian(4, field, rng)
            assert np.abs(mean_gram_inverse(mean_gram(X, field), field) - X).max() <= 1e-12
            assert np.abs(mean_gram(mean_gram_inverse(X, field), field) - X).max() <= 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_self_adjoint(self, field):
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = random_hermitian(4, field, rng)
            B = random_hermitian(4, field, rng)
            lhs = np.vdot(mean_gram(A, field), B).real
            rhs = np.vdot(A, mean_gram(B, field)).real
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            mean_gram(np.eye(3) + 0j, "real")


class TestExpectationCheck:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_large_sample_accuracy(self, field):
        assert check_mean_gram(field, 4, 200_000, seed=0) <= 0.05

    def test_error_halves_when_samples_quadruple(self):
        ratios = []
        for seed in range(10):
            small = check_mean_gram("real", 4, 50_000, seed=seed)
            large = check_mean_gram("real", 4, 200_000, seed=seed + 100)
            ratios.append(large / small)
        assert 0.3 <= np.mean(ratios) <= 0.8

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            check_mean_gram("real", 4, 10, seed=0)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            check_mean_gram("quaternion", 4, 1000, seed=0)


class TestBuildCertificate:
    def test_truncation_is_rare_at_beta_3(self):
        x = np.zeros(64)
        x[0] = 1.0
        for seed in range(10):
            ens = sample_ensemble(64, 1000, "real-gaussian", seed)
            _, frac = build_certificate(ens, x, beta=3.0)
            assert frac <= 0.001

    def test_large_sample_limit_is_near_perfect(self):
        x = np.zeros(8)
        x[0] = 1.0
        ens = sample_ensemble(8, 100_000, "real-gaussian", 1)
        Y, frac = build_certificate(ens, x, truncate=False)
        assert frac == 0.0
        rep = verify_certificate(Y, x)
        assert rep.dist_tangent <= 0.1

    def test_in_range_of_adjoint(self):
        x = np.zeros(6)
        x[0] = 1.0
        ens = sample_ensemble(6, 50, "real-gaussian", 2)
        Y, _ = build_certificate(ens, x, truncate=False)
        M = mean_gram_inverse(np.outer(x, x), "real")
        w = np.einsum("ij,jk,ik->i", ens.vectors, M, ens.vectors)
        assert np.abs(Y - apply_adjoint(ens, w) / ens.m).max() <= 1e-12

    def test_sphere_ensembles_rejected(self):
        x = np.zeros(4)
        x[0] = 1.0
        ens = sample_ensemble(4, 10, "real-unit-sphere", 3)
        with pytest.raises(ValueError):
            build_certificate(ens, x)

    def test_non_unit_x_rejected(self):
        ens = sample_ensemble(4, 10, "real-gaussian", 4)
        with pytest.raises(ValueError):
            build_certificate(ens, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_small_n_warns(self):
        x = np.array([1.0, 0.0])
        ens = sample_ensemble(2, 10, "real-gaussian", 5)
        with pytest.warns(UserWarning):
            build_certificate(ens, x, beta=0.5)

    def test_quality_improves_with_m(self):
        n = 16
        x = np.zeros(n)
        x[0] = 1.0
        medians = []
        for m_mult in (2, 8, 32, 128):
            dists = []
            for seed in range(20):
                ens = sample_ensemble(n, m_mult * n, "real-gaussian", 1000 * m_mult + seed)
                Y, _ = build_certificate(ens, x, truncate=False)
                dists.append(verify_certificate(Y, x).dist_tangent)
            medians.append(np.median(dists))
        assert np.all(np.diff(medians) < 0)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(6)
        n = 8
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        e1 = np.zeros(n)
        e1[0] = 1.0
        ens = sample_ensemble(n, 200, "real-gaussian", 7)
        rotated = SensingEnsemble(vectors=ens.vectors @ U, model=ens.model)
        Y_x, frac_x = build_certificate(ens, U @ e1)
        Y_e1, frac_e1 = build_certificate(rotated, e1)
        assert frac_x == frac_e1
        d_x = verify_certificate(Y_x, U @ e1).dist_tangent
        d_e1 = verify_certificate(Y_e1, e1).dist_tangent
        assert d_x == pytest.approx(d_e1, abs=1e-10)

    def test_truncated_fraction_shrinks_with_n(self):
        medians = []
        for n in (16, 64, 256):
            fracs = []
            for seed in range(10):
                ens = sample_ensemble(n, 4 * n, "real-gaussian", 2000 + 10 * n + seed)
                _, frac = build_certificate(ens, np.eye(n)[0], beta=3.0)
                fracs.append(frac)
            medians.append(np.median(fracs))
        assert medians[0] >= medians[1] >= medians[2]


class TestVerify:
    def test_perfect_certificate(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        rep = verify_certificate(np.outer(x, x), x)
        assert rep.dist_tangent <= 1e-12 and rep.opnorm_complement <= 1e-12
        assert rep.passed

    def test_complement_spike_fails(self):
        rng = np.random.default_rng(9)
        x, v = np.linalg.qr(rng.standard_normal((5, 2)))[0].T
        Y = np.outer(x, x) + 0.6 * np.outer(v, v)
        rep = verify_certificate(Y, x)
        assert rep.opnorm_complement == pytest.approx(0.6, abs=1e-10)
        assert not rep.passed

    def test_thresholds_per_field(self):
        x = np.zeros(4)
        x[0] = 1.0
        real = verify_certificate(np.outer(x, x), x)
        cplx = verify_certificate(np.outer(x, x).astype(complex), x.astype(complex))
        assert real.thresholds == (pytest.approx(1 / 3), 0.5)
        assert cplx.thresholds == (pytest.approx(0.2), 0.5)
        # a complex Y or x makes the field complex; the report equals the all-complex one
        rng = np.random.default_rng(10)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z /= np.linalg.norm(z)
        Y_real, Y_cplx = random_hermitian(4, "real", rng), random_hermitian(4, "complex", rng)
        mixed = [
            (verify_certificate(Y_real, z), verify_certificate(Y_real.astype(complex), z)),
            (verify_certificate(Y_cplx, x), verify_certificate(Y_cplx, x.astype(complex))),
        ]
        for rep, all_complex in mixed:
            assert rep == all_complex
            assert rep.thresholds == cplx.thresholds

    def test_report_pass_definition(self):
        rep = CertificateReport(
            dist_tangent=0.3, opnorm_complement=0.51, thresholds=(1 / 3, 0.5)
        )
        assert not rep.passed
