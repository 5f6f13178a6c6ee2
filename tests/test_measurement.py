import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from phaselift.measurement import (
    MODELS,
    IntensityData,
    SensingEnsemble,
    _forward_factor,
    add_noise,
    apply_adjoint,
    apply_measurement,
    intensities,
    sample_ensemble,
)


class TestSampling:
    def test_unit_sphere_norms(self):
        ens = sample_ensemble(8, 16, "real-unit-sphere", seed=1)
        assert np.abs(np.linalg.norm(ens.vectors, axis=1) - 1.0).max() <= 1e-12

    def test_gaussian_mean_square_norm(self):
        # chi2_n/n concentrates at 1; tolerance is ~4 sigma at this size
        ens = sample_ensemble(64, 10_000, "real-gaussian", seed=7)
        mean = np.mean(np.linalg.norm(ens.vectors, axis=1) ** 2 / 64)
        assert 0.97 <= mean <= 1.03

    def test_complex_gaussian_variance_split(self):
        ens = sample_ensemble(32, 5_000, "complex-gaussian", seed=3)
        assert np.var(ens.vectors.real) == pytest.approx(0.5, rel=0.05)
        assert np.var(ens.vectors.imag) == pytest.approx(0.5, rel=0.05)

    def test_determinism(self):
        a = sample_ensemble(8, 16, "complex-unit-sphere", seed=11)
        b = sample_ensemble(8, 16, "complex-unit-sphere", seed=11)
        assert np.array_equal(a.vectors, b.vectors)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_ensemble(0, 4, "real-gaussian", seed=0)
        with pytest.raises(ValueError):
            sample_ensemble(4, 4, "bernoulli", seed=0)

    @pytest.mark.parametrize(
        "vectors",
        [
            [[1.0, np.nan], [0.0, 1.0]],
            [[1.0, 0.0], [np.inf, 1.0]],
            [[1.0 + 0j, 0.0], [0.0, complex(1.0, -np.inf)]],
            [1.0, 0.0],
        ],
        ids=["nan", "inf", "complex-inf", "1-d"],
    )
    def test_bad_vectors_rejected(self, vectors):
        # a NaN made the solver's eigh fail to converge, an inf gave inf intensities, and a
        # 1-d array failed in .n with an IndexError
        with pytest.raises(ValueError, match="finite 2-d"):
            SensingEnsemble(vectors=np.array(vectors), model="real-gaussian")


class TestOperator:
    def test_identity_on_sphere(self):
        ens = sample_ensemble(6, 12, "real-unit-sphere", seed=4)
        assert np.allclose(apply_measurement(ens, np.eye(6)), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.0, 2.0 * np.pi),
    )
    def test_lift_matches_intensities(self, model, n, m, seed, theta):
        # certificate and analysis read |<x, z_i>|^2 through `intensities` alone
        ens = sample_ensemble(n, m, model, seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        phase = -1.0  # the real field's only nontrivial global phase
        if ens.field == "complex":
            x = x + 1j * rng.standard_normal(n)
            phase = np.exp(1j * theta)
        direct = intensities(ens, x)
        # ||x||^2 max_i ||z_i||^2 bounds every intensity
        scale = np.vdot(x, x).real * np.max(np.sum(np.abs(ens.vectors) ** 2, axis=1))
        lifted = apply_measurement(ens, np.outer(x, x.conj()))
        assert np.abs(lifted - direct).max() <= 1e-12 * scale
        assert np.abs(intensities(ens, phase * x) - direct).max() <= 1e-12 * scale

    @settings(max_examples=80, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(0, 8),
    )
    def test_factor_forward_matches_dense_forward(self, model, n, m, seed, rank):
        # the solver maps the prox's factor F forward as A(F F*) = sum_j |Z-bar f_j|^2;
        # rank 0 is the empty factor of X = 0
        ens = sample_ensemble(n, m, model, seed)
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((n, min(rank, n)))
        if ens.field == "complex":
            F = F + 1j * rng.standard_normal(F.shape)
        dense = apply_measurement(ens, F @ F.conj().T)
        assert np.linalg.norm(_forward_factor(ens, F) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_hand_quadratic_form(self):
        from phaselift.measurement import SensingEnsemble

        ens = SensingEnsemble(vectors=np.array([[1.0, 1.0]]), model="real-gaussian")
        out = apply_measurement(ens, np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert out[0] == pytest.approx(6.0)

    def test_adjoint_basis_vector(self):
        ens = sample_ensemble(4, 6, "complex-gaussian", seed=6)
        y = np.zeros(6)
        y[2] = 1.0
        z = ens.vectors[2]
        assert np.allclose(apply_adjoint(ens, y), np.outer(z, z.conj()))

    def test_adjoint_hand_diagonal(self):
        from phaselift.measurement import SensingEnsemble

        ens = SensingEnsemble(vectors=np.eye(2), model="real-gaussian")
        assert np.allclose(apply_adjoint(ens, np.array([3.0, 4.0])), np.diag([3.0, 4.0]))

    @pytest.mark.parametrize("model", ["real-gaussian", "complex-gaussian"])
    def test_adjoint_identity(self, model):
        rng = np.random.default_rng(8)
        for k in range(100):
            ens = sample_ensemble(4, 7, model, seed=100 + k)
            X = rng.standard_normal((4, 4))
            if model.startswith("complex"):
                X = X + 1j * rng.standard_normal((4, 4))
            X = (X + X.conj().T) / 2
            y = rng.standard_normal(7)
            lhs = float(apply_measurement(ens, X) @ y)
            rhs = float(np.vdot(X, apply_adjoint(ens, y)).real)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_positivity_on_psd(self):
        rng = np.random.default_rng(9)
        ens = sample_ensemble(5, 40, "complex-unit-sphere", seed=12)
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        X = B @ B.conj().T
        assert apply_measurement(ens, X).min() >= -1e-10

    def test_dimension_mismatch(self):
        ens = sample_ensemble(4, 6, "real-gaussian", seed=0)
        with pytest.raises(ValueError):
            apply_measurement(ens, np.eye(5))
        with pytest.raises(ValueError):
            apply_adjoint(ens, np.zeros(5))
        with pytest.raises(ValueError):
            intensities(ens, np.zeros(3))


class TestIntensities:
    def test_aligned_basis(self):
        from phaselift.measurement import SensingEnsemble

        ens = SensingEnsemble(vectors=np.eye(2)[:1], model="real-unit-sphere")
        assert intensities(ens, np.array([1.0, 0.0]))[0] == pytest.approx(1.0)

    def test_hand_complex(self):
        from phaselift.measurement import SensingEnsemble

        ens = SensingEnsemble(vectors=np.array([[1.0 + 0j, 0.0]]), model="complex-unit-sphere")
        x = np.array([1.0, 1j]) / np.sqrt(2.0)
        assert intensities(ens, x)[0] == pytest.approx(0.5)

    def test_global_phase_invariance(self):
        ens = sample_ensemble(6, 20, "complex-gaussian", seed=13)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(intensities(ens, x), intensities(ens, np.exp(1.234j) * x))


class TestNoise:
    def test_none(self):
        b = np.array([1.0, 2.0, 3.0])
        data = add_noise(b, "none", 20.0, seed=0)
        assert data.eps == 0.0 and np.array_equal(data.b, b)

    def test_gaussian_exact_snr(self):
        rng = np.random.default_rng(11)
        b = rng.uniform(0.5, 2.0, size=50)
        data = add_noise(b, "gaussian", 20.0, seed=1)
        realized = 10 * np.log10(np.sum(b**2) / np.sum((data.b - b) ** 2))
        assert realized == pytest.approx(20.0, abs=1e-9)

    def test_poisson_zero_rates(self):
        # zero rates draw 0, and at this seed the unit rate draws 1, so nu = 0
        b = np.zeros(10)
        b[-1] = 1.0
        data = add_noise(b, "poisson", 10.0, seed=0)
        assert data.eps == 0.0 and np.array_equal(data.b, b)

    def test_poisson_exact_snr(self):
        rng = np.random.default_rng(12)
        b = rng.uniform(1.0, 30.0, size=200)
        data = add_noise(b, "poisson", 15.0, seed=3)
        realized = 10 * np.log10(np.sum(b**2) / np.sum((data.b - b) ** 2))
        assert realized == pytest.approx(15.0, abs=1e-9)
        assert np.linalg.norm(data.b - b) == pytest.approx(data.eps, rel=1e-12)

    def test_infinite_snr(self):
        data = add_noise(np.ones(5), "gaussian", np.inf, seed=5)
        assert data.eps == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(5), "gaussian", 10.0, seed=6)

    def test_intensity_invariants_enforced(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntensityData(b=np.array([-1.0, 1.0]), eps=0.0)

    @pytest.mark.parametrize(
        "b, eps, match",
        [
            ([1.0, 2.0], np.nan, "eps must be nonnegative, got nan"),
            ([1.0, 2.0], -0.5, "eps must be nonnegative, got -0.5"),
            ([1.0, 2.0], np.inf, "eps must be finite, got inf"),
            ([1.0, np.nan], 0.1, "b must be a finite 1-d vector"),
            ([np.inf, 2.0], 0.1, "b must be a finite 1-d vector"),
            ([[1.0, 2.0]], 0.1, "b must be a finite 1-d vector"),
            ([1.0, -0.2], 0.1, "nonnegative, but some b_i < -eps"),
        ],
    )
    def test_bad_intensity_record_rejected(self, b, eps, match):
        with pytest.raises(ValueError, match=match):
            IntensityData(b=np.array(b), eps=eps)

    def test_entries_down_to_minus_eps_accepted(self):
        # noise of norm eps can push a zero intensity to -eps, but not below
        IntensityData(b=np.array([-0.1, 2.0]), eps=0.1)
        rng = np.random.default_rng(13)
        b = np.zeros(40)
        b[:5] = rng.uniform(1.0, 2.0, size=5)
        data = add_noise(b, "gaussian", 0.0, seed=7)
        assert data.b.min() < 0.0 and data.b.min() >= -data.eps

    @pytest.mark.parametrize(
        "b, model, snr_db, match",
        [
            ([1.0, -1.0], "gaussian", 20.0, "nonnegative"),
            ([1.0, 2.0], "laplace", 20.0, "unknown noise model"),
            ([1.0, 2.0], "gaussian", np.nan, "finite"),
            ([1.0, 2.0], "gaussian", -np.inf, "finite"),
        ],
    )
    def test_bad_noise_arguments_rejected(self, b, model, snr_db, match):
        with pytest.raises(ValueError, match=match):
            add_noise(np.array(b), model, snr_db, seed=0)

    @pytest.mark.parametrize("model", ["gaussian", "poisson", "none"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_clean_intensities_rejected(self, bad, model):
        with pytest.raises(ValueError, match=rf"must be finite and nonnegative, got \[{bad}\]"):
            add_noise(np.array([bad, 1.0]), model, 20.0, seed=0)

    @pytest.mark.parametrize(
        "b, model, snr_db, match",
        [
            ([1.7e308, 1.7e308], "gaussian", 0.0, "past float64"),
            ([1e300, 1.0], "gaussian", -200.0, "past float64"),
            ([1e200, 1.0], "poisson", 20.0, "Poisson rate 1e\\+200 .*lam value too large"),
        ],
    )
    def test_noise_past_float64_or_poisson_range_is_a_clear_error(self, b, model, snr_db, match):
        with pytest.raises(ValueError, match=match):
            add_noise(np.array(b), model, snr_db, seed=0)

    @pytest.mark.parametrize("model", ["gaussian", "poisson"])
    @pytest.mark.parametrize("snr_db", [-7000.0, -1e6, -1.7e308])
    def test_snr_past_float64_names_the_snr(self, snr_db, model):
        # 10^(-snr_db / 20) overflows float64 below about -6165 dB
        with pytest.raises(ValueError, match=re.escape(f"noise at {snr_db} dB is past float64")):
            add_noise([1.0, 2.0], model, snr_db, 0)

    @pytest.mark.parametrize("top", [1e200, 1e300])
    def test_huge_intensities_keep_the_exact_snr(self, top):
        # ||b||^2 overflows float64, so the SNR is set on b scaled by a power of two
        b = np.array([top, 1.0, 0.0])
        data = add_noise(b, "gaussian", 20.0, seed=0)
        nu = (data.b - b) / top
        assert np.linalg.norm(nu) * top == pytest.approx(data.eps, rel=1e-14)
        realized = 20 * np.log10(np.linalg.norm(b / top) / np.linalg.norm(nu))
        assert realized == pytest.approx(20.0, abs=1e-9)

    @pytest.mark.parametrize("b, snr_db", [([1.0, 2.0], -6150.0), ([3.0, 0.0, 4.0], -6145.0)])
    def test_huge_noise_keeps_a_finite_eps(self, b, snr_db):
        # ||nu|| is finite but ||nu||^2 overflows float64, so eps is taken on nu scaled by a
        # power of two
        b = np.array(b)
        data = add_noise(b, "gaussian", snr_db, seed=0)
        scale = 2.0**1000
        nu = (data.b - b) / scale
        assert np.isfinite(data.eps)
        assert np.linalg.norm(nu) * scale == pytest.approx(data.eps, rel=1e-14)
        realized = 20 * np.log10(np.linalg.norm(b) / data.eps)
        assert realized == pytest.approx(snr_db, abs=1e-9)


class TestDistributionalReductions:
    def test_rotation_invariance_ks(self):
        # intensities of Ue1 and e1 under fresh sphere ensembles agree in law
        rng = np.random.default_rng(13)
        n, m = 8, 10_000
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        e1 = np.zeros(n)
        e1[0] = 1.0
        a = intensities(sample_ensemble(n, m, "real-unit-sphere", seed=21), e1)
        b = intensities(sample_ensemble(n, m, "real-unit-sphere", seed=22), U @ e1)
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_gaussian_sphere_equivalence(self):
        ens = sample_ensemble(6, 50, "real-gaussian", seed=23)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(6)
        norms = np.linalg.norm(ens.vectors, axis=1)
        from phaselift.measurement import SensingEnsemble

        unit = SensingEnsemble(vectors=ens.vectors / norms[:, None], model="real-unit-sphere")
        assert np.allclose(intensities(ens, x) / norms**2, intensities(unit, x))

