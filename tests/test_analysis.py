import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselift.analysis import (
    l1_isometry_check,
    rank2_l1_mc,
    rank2_l1_mean_complex,
    rank2_l1_mean_real,
)
from phaselift.measurement import apply_measurement, sample_ensemble


class TestClosedForms:
    def test_real_endpoints(self):
        assert rank2_l1_mean_real(0.0) == pytest.approx(1.0)
        assert rank2_l1_mean_real(1.0) == pytest.approx(4.0 / np.pi)

    def test_complex_endpoints(self):
        assert rank2_l1_mean_complex(0.0) == pytest.approx(1.0)
        assert rank2_l1_mean_complex(1.0) == pytest.approx(1.0)

    def test_real_grid_floor(self):
        grid = np.linspace(0.0, 1.0, 10_001)
        assert rank2_l1_mean_real(grid).min() >= 0.94

    def test_real_grid_continuity(self):
        grid = np.linspace(0.0, 1.0, 10_001)
        vals = rank2_l1_mean_real(grid)
        assert np.abs(np.diff(vals)).max() <= 5.0 / grid.size

    def test_complex_analytic_minimum(self):
        t_star = np.sqrt(2.0) - 1.0
        f_star = 2.0 * (np.sqrt(2.0) - 1.0)
        assert rank2_l1_mean_complex(t_star) == pytest.approx(f_star, abs=1e-12)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        assert rank2_l1_mean_complex(grid).min() == pytest.approx(f_star, abs=1e-6)

    def test_domain_checks(self):
        for f in (rank2_l1_mean_real, rank2_l1_mean_complex):
            with pytest.raises(ValueError):
                f(-0.1)
            with pytest.raises(ValueError):
                f(1.1)


class TestMonteCarlo:
    def test_real_matches_closed_form(self):
        mean, se = rank2_l1_mc(0.5, "real", 1_000_000, seed=0)
        assert abs(mean - rank2_l1_mean_real(0.5)) <= 4 * se

    def test_complex_matches_analytic_minimum(self):
        t_star = np.sqrt(2.0) - 1.0
        mean, se = rank2_l1_mc(t_star, "complex", 1_000_000, seed=1)
        assert abs(mean - 2.0 * (np.sqrt(2.0) - 1.0)) <= 4 * se

    def test_t_zero_reduces_to_second_moment(self):
        mean, se = rank2_l1_mc(0.0, "real", 1_000_000, seed=2)
        assert abs(mean - 1.0) <= 4 * se

    def test_minimum_samples(self):
        with pytest.raises(ValueError, match="1000 samples"):
            rank2_l1_mc(0.5, "real", 999, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_array_t_matches_scalar_calls(self, field, ts, seed):
        # one shared draw: entry j is the scalar call at t_j with the same seed, bit for bit
        means, stderrs = rank2_l1_mc(np.array(ts), field, 1000, seed)
        assert means.shape == stderrs.shape == (len(ts),)
        for j, t in enumerate(ts):
            assert rank2_l1_mc(t, field, 1000, seed) == (means[j], stderrs[j])

    def test_array_t_keeps_its_shape(self):
        means, stderrs = rank2_l1_mc(np.array([[0.0, 0.5], [0.25, 1.0]]), "complex", 1000, seed=3)
        assert means.shape == stderrs.shape == (2, 2)
        assert means[0, 1] == rank2_l1_mc(0.5, "complex", 1000, seed=3)[0]

    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
    def test_array_t_entry_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            rank2_l1_mc(np.array([0.0, 0.5, bad]), "real", 1000, seed=0)

    def test_stderr_rate(self):
        # quadrupling the sample count should halve the standard error
        ratios = []
        for seed in range(5):
            _, se1 = rank2_l1_mc(0.3, "real", 250_000, seed=seed)
            _, se2 = rank2_l1_mc(0.3, "real", 1_000_000, seed=seed + 50)
            ratios.append(se2 / se1)
        assert all(0.4 <= r <= 0.6 for r in ratios)


class TestL1Isometry:
    def test_lift_l1_mass_equals_squared_image_norm(self):
        ens = sample_ensemble(6, 40, "real-gaussian", seed=0)
        Z = ens.vectors
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = rng.standard_normal(6)
            u /= np.linalg.norm(u)
            mass = np.abs(apply_measurement(ens, np.outer(u, u))).sum()
            assert abs(mass - np.linalg.norm(Z @ u) ** 2) <= 1e-10 * max(1.0, mass)

    def test_delta_concentrates_at_high_oversampling(self):
        hits = 0
        for seed in range(10):
            rep = l1_isometry_check("real", 16, 256, trials=1, seed=seed)
            hits += rep.delta_observed <= 0.6
        assert hits >= 9

    def test_delta_decreases_with_m(self):
        medians = []
        for m in (64, 256, 1024):
            deltas = [
                l1_isometry_check("real", 16, m, trials=1, seed=100 * m + s).delta_observed
                for s in range(10)
            ]
            medians.append(np.median(deltas))
        assert medians[0] > medians[1] > medians[2]

    def test_rank2_floor_real(self):
        rep = l1_isometry_check("real", 16, 4096, trials=500, seed=7)
        assert rep.rank2_min_ratio >= 0.80

    def test_rank2_floor_complex(self):
        rep = l1_isometry_check("complex", 16, 4096, trials=500, seed=8)
        assert rep.rank2_min_ratio >= 0.70

    def test_requires_m_at_least_n(self):
        with pytest.raises(ValueError):
            l1_isometry_check("real", 16, 8, trials=1, seed=0)

    def test_rejects_unknown_field_and_zero_trials(self):
        with pytest.raises(ValueError, match="unknown field"):
            l1_isometry_check("quaternion", 4, 8, trials=1, seed=0)
        with pytest.raises(ValueError, match="trials"):
            l1_isometry_check("real", 4, 8, trials=0, seed=0)

    def test_requires_n_at_least_two(self):
        # the rank-2 floor draws two orthonormal directions
        with pytest.raises(ValueError, match="n >= 2"):
            l1_isometry_check("real", 1, 8, trials=1, seed=0)
