import warnings

import numpy as np
import pytest

from phaselift.hermitian import eig
from phaselift.recovery import RecoveryResult, debias, recover, rel_mse

from oracles import phase_grid_rel_mse


class TestExtraction:
    def test_exact_lift(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        res = recover(np.outer(x, x.conj()))
        assert np.linalg.norm(res.x_hat) ** 2 == pytest.approx(np.linalg.norm(x) ** 2)
        assert rel_mse(x, res.x_hat) <= 1e-12

    def test_hand_diagonal(self):
        res = recover(np.diag([1.0, 0.25]))
        assert np.allclose(res.x_hat, [1.0, 0.0])

    def test_zero_matrix(self):
        res = recover(np.zeros((3, 3)))
        assert not res.x_hat.any() and not res.x_hat_debiased.any()

    def test_energy_identity(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((4, 4))
        X = B @ B.T
        res = recover(X)
        assert np.linalg.norm(res.x_hat) ** 2 == pytest.approx(eig(X)[0][0], rel=1e-10)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            recover(np.diag([1.0, -1.0]))

    def test_degenerate_top_eigenvalue_warns(self):
        with pytest.warns(UserWarning):
            recover(np.eye(3))

    @pytest.mark.parametrize("scale", [1e-8, 1e-5, 1.0])
    def test_exactly_rank1_input_does_not_warn(self, scale):
        # the degeneracy test is relative to lambda_1, with no absolute floor
        x = scale * np.array([1.0, 0.5, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = recover(np.outer(x, x))
        assert rel_mse(x, res.x_hat) <= 1e-12

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("scale", [1e-150, 1e-100, 1.0, 1e100, 1e150])
    def test_extreme_scales(self, scale, complex_field):
        # eig and the PSD check see X / 2^e, so its eigenvalue norm neither under- nor overflows
        x = scale * np.array([1.0, 0.5, 0.25]) * (1 - 0.5j if complex_field else 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = recover(np.outer(x, x.conj()), x_true=x)
        assert res.rel_mse <= 1e-12
        assert np.linalg.norm(res.x_hat_debiased / scale) ** 2 == pytest.approx(
            np.linalg.norm(x / scale) ** 2, rel=1e-12
        )


class TestDebias:
    def test_rank1_spectrum_is_noop(self):
        x_hat = np.array([2.0, 0.0])
        out = debias(x_hat, np.array([4.0, 0.0, 0.0]))
        assert np.allclose(out, x_hat)

    def test_hand_rescale(self):
        out = debias(np.array([1.0, 0.0]), np.array([1.0, 0.25]))
        assert np.linalg.norm(out) == pytest.approx(np.sqrt(1.25))

    def test_direction_preserved(self):
        rng = np.random.default_rng(2)
        x_hat = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = debias(x_hat, rng.uniform(0.0, 2.0, size=6))
        scale = np.linalg.norm(out) / np.linalg.norm(x_hat)
        assert np.allclose(out, scale * x_hat)

    def test_negative_leakage_clipped(self):
        out = debias(np.array([1.0]), np.array([1.0, -5.0]))
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_zero_input(self):
        assert not debias(np.zeros(3), np.array([1.0, 0.0, 0.0])).any()


class TestRelMse:
    def test_identity(self):
        x = np.array([1.0 + 1j, 2.0])
        assert rel_mse(x, x) == pytest.approx(0.0, abs=1e-14)

    def test_global_phase(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert rel_mse(x, np.exp(2.1j) * x) <= 1e-12

    def test_orthogonal_units(self):
        x = np.array([1.0, 0.0])
        err = rel_mse(x, np.array([0.0, 1.0]))
        assert err == pytest.approx(2.0) and type(err) is float

    def test_matches_phase_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            closed = rel_mse(x, x_hat)
            brute = phase_grid_rel_mse(x, x_hat)
            assert abs(closed - brute) <= 1e-8

    def test_two_sided_phase_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x_hat = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = rel_mse(x, x_hat)
        assert rel_mse(np.exp(0.7j) * x, np.exp(-1.3j) * x_hat) == pytest.approx(base, abs=1e-12)

    def test_algebraic_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x_hat = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        nx2 = np.linalg.norm(x) ** 2
        lhs = rel_mse(x, x_hat) + 2 * abs(np.vdot(x_hat, x)) / nx2
        rhs = (nx2 + np.linalg.norm(x_hat) ** 2) / nx2
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(5)
        x_hat = rng.standard_normal(5)
        assert rel_mse(3.5 * x, 3.5 * x_hat) == pytest.approx(rel_mse(x, x_hat), abs=1e-12)

    def test_mismatches_rejected(self):
        with pytest.raises(ValueError):
            rel_mse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            rel_mse(np.ones(3), np.ones(3) + 0j)
        with pytest.raises(ValueError):
            rel_mse(np.zeros(3), np.ones(3))


class TestPipeline:
    def test_recover_reports_consistent_metrics(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        X = np.outer(x, x.conj()) + 0.01 * np.eye(6)
        res = recover(X, x_true=x)
        assert isinstance(res, RecoveryResult)
        assert res.rel_rms**2 == pytest.approx(res.rel_mse, abs=1e-12)
        w = eig(X)[0]
        assert np.linalg.norm(res.x_hat) ** 2 == pytest.approx(w[0], rel=1e-10)
        energy = np.sum(np.maximum(w, 0.0))
        assert np.linalg.norm(res.x_hat_debiased) ** 2 == pytest.approx(energy, rel=1e-10)

    def test_recover_decomposes_once(self, monkeypatch):
        import phaselift.recovery as recovery

        calls = []

        def counting_eig(A):
            calls.append(A)
            return eig(A)

        monkeypatch.setattr(recovery, "eig", counting_eig)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        X = np.outer(x, x.conj()) + 0.01 * np.eye(5)
        res = recover(X, x_true=x)
        assert len(calls) == 1
        w, V = eig(X)
        assert np.array_equal(res.x_hat, np.sqrt(w[0]) * V[:, 0])
        assert np.array_equal(res.x_hat_debiased, debias(res.x_hat, w))

    def test_extract_then_compare_roundtrip(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(7)
        x /= np.linalg.norm(x)
        assert rel_mse(x, recover(np.outer(x, x)).x_hat) <= 1e-10
